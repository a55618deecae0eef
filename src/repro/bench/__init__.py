"""Output helpers for the benchmark harness (plain-text tables/series)."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.bench.tables import format_series, format_table

__all__ = ["format_table", "format_series"]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.bench.tables": ("format_series", "format_table"),
    },
)
