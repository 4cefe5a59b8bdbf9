"""Inspection and debugging tools for live databases."""

from repro.tools.inspect import (
    describe_record,
    dump_log,
    dump_tree,
    lock_table_report,
)

__all__ = [
    "describe_record",
    "dump_log",
    "dump_tree",
    "lock_table_report",
]
