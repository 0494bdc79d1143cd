"""Small-sample statistics for multi-trial experiment cells.

The disaster experiment reports delivery ratios over a handful of
seeded trials; :func:`proportion_ci95` annotates each with an honest
95% half-width.
"""

from __future__ import annotations

import math


def proportion_ci95(successes: int, trials: int) -> float:
    """95% half-width for a success proportion (Wald with small-n floor).

    Crude but adequate for annotating delivery-ratio cells; never
    reports an interval tighter than the one-trial resolution.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    wald = 1.96 * math.sqrt(p * (1 - p) / trials)
    return max(wald, 1.0 / (2 * trials))
