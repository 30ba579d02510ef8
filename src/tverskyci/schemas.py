"""JSON Schemas for the machine-readable CLI reports.

Every ``--format json`` payload validates against the schema named after
its subcommand. Each schema is built by ``tverskyci.cli.report_schemas``
from the subcommand's report table: a closed object of the table's fields,
every one required, plus the ``command`` tag. Field names and units are
part of the compatibility contract; see the README for the prose version.
"""

from __future__ import annotations

from .cli import report_schemas

SCHEMAS_BY_COMMAND = report_schemas()
ESTIMATE_SCHEMA = SCHEMAS_BY_COMMAND["estimate"]
CI_SCHEMA = SCHEMAS_BY_COMMAND["ci"]
PLAN_SCHEMA = SCHEMAS_BY_COMMAND["plan"]
BOUND_TABLE_SCHEMA = SCHEMAS_BY_COMMAND["bound-table"]
SIMULATE_SCHEMA = SCHEMAS_BY_COMMAND["simulate"]
BOOTSTRAP_CHECK_SCHEMA = SCHEMAS_BY_COMMAND["bootstrap-check"]
