"""Small shared utilities: text tables."""

from repro.utils.tables import Table, format_table

__all__ = ["Table", "format_table"]
