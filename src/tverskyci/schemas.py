"""JSON Schemas for the machine-readable CLI reports.

Every ``--format json`` payload validates against the schema that
``SCHEMAS_BY_COMMAND``, this module's one public name, holds for its
subcommand. Each schema is built from the subcommand's report table in
``tverskyci._commands``: a closed object of the table's fields, every one
required, plus the ``command`` tag. Field names and units are part of the
compatibility contract; see the README for the prose version.
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


SCHEMAS_BY_COMMAND = {
    command: _schema((("command", {"const": command}, None), *table))
    for command, (_, table) in _COMMANDS.items()
}
