"""Analysis helpers: tables, crossovers, small-sample statistics."""

from .stats import proportion_ci95
from .tables import crossover, format_value, render_table

__all__ = [
    "crossover",
    "format_value",
    "proportion_ci95",
    "render_table",
]
