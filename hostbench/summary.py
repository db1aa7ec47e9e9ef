"""Order statistics for timing samples.

A timing is reported as its median, its quartiles and the highest
percentile that still has at least ten samples beyond it, with the
sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99, 95, 90, 75)


def tail_percentile(n: int) -> Optional[int]:
    """Highest candidate percentile with ``TAIL_SAMPLES`` samples above it."""
    for pct in TAIL_CANDIDATES:
        if math.floor(n * (100 - pct) / 100) >= TAIL_SAMPLES:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and tail of ``values`` (``n`` counts them).

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); with fewer than two samples they equal the median.
    """
    if not values:
        raise ValueError("no samples")
    values = sorted(values)
    n = len(values)
    median = statistics.median(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    out = {"n": n, "median": median, "q1": q1, "q3": q3}
    pct = tail_percentile(n)
    if pct is not None:
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out
