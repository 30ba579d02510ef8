"""JSON Schemas for the machine-readable CLI reports.

Every ``--format json`` payload validates against the schema named after
its subcommand. ``report_schemas`` builds each schema here from the
subcommand's report table in ``tverskyci._commands``: a closed object of
the table's fields, every one required, plus the ``command`` tag. Field
names and units are part of the compatibility contract; see the README
for the prose version.
"""

from __future__ import annotations

from ._commands import _COMMANDS, _Items, _MaybeNull


def _schema(schema: object) -> dict:
    """A row's JSON Schema: its fragment, or the closed object of its table."""
    if not isinstance(schema, tuple):
        return schema
    closed = {
        "type": "object",
        "properties": {name: _schema(fragment) for name, fragment, _ in schema},
        "required": [name for name, _, _ in schema],
        "additionalProperties": False,
    }
    if isinstance(schema, _Items):
        return {"type": "array", "minItems": 1, "items": closed}
    if isinstance(schema, _MaybeNull):
        return {"anyOf": [{"type": "null"}, closed]}
    return closed


def report_schemas() -> dict:
    """The JSON Schema of each subcommand's report: a closed object of its
    table's fields, every one required, plus the ``command`` tag."""
    return {
        command: _schema((("command", {"const": command}, None), *table))
        for command, (_, table) in _COMMANDS.items()
    }


SCHEMAS_BY_COMMAND = report_schemas()
ESTIMATE_SCHEMA = SCHEMAS_BY_COMMAND["estimate"]
CI_SCHEMA = SCHEMAS_BY_COMMAND["ci"]
PLAN_SCHEMA = SCHEMAS_BY_COMMAND["plan"]
BOUND_TABLE_SCHEMA = SCHEMAS_BY_COMMAND["bound-table"]
SIMULATE_SCHEMA = SCHEMAS_BY_COMMAND["simulate"]
BOOTSTRAP_CHECK_SCHEMA = SCHEMAS_BY_COMMAND["bootstrap-check"]
