"""Summary statistics the benchmark reports: the tail-percentile rule.

Everything here is pure arithmetic over lists of floats, so it is unit
tested in isolation (``perfbench/tests``) and imports nothing from the
program under test.
"""

from __future__ import annotations

import math

#: A reported tail percentile must have at least this many samples
#: strictly beyond it; otherwise it is a guess about one or two outliers.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q`` one."""
    if count <= 0:
        return 0
    return count - math.ceil(q * count)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count whose ``q`` percentile has ``beyond`` behind it."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def percentile(samples: list[float], q: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` percentile, refusing a tail with too few samples.

    Raises :class:`ValueError` when fewer than ``beyond`` samples lie
    beyond the requested rank, so a run that graded too little can never
    report a p99 that rests on a handful of points.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    count = len(samples)
    if samples_beyond(count, q) < beyond:
        raise ValueError(
            f"p{q * 100:g} needs at least {beyond} samples beyond it; "
            f"{count} samples give {max(samples_beyond(count, q), 0)}"
        )
    ordered = sorted(samples)
    return ordered[math.ceil(q * count) - 1]
