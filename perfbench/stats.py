"""Order statistics for job latencies."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def percentile(samples, pct: int) -> float | None:
    """Nearest-rank percentile, or None unless MIN_BEYOND samples lie beyond it.

    The rank is ceil(pct * n / 100), computed in integers so that 90 % of 100
    samples is rank 90 and not 91 through float rounding.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {pct}")
    ordered = sorted(samples)
    rank = (pct * len(ordered) + 99) // 100
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def job_medians(latencies_ms_per_pass) -> list[float]:
    """Each job's median latency over the passes (one list per pass)."""
    return [statistics.median(job) for job in zip(*latencies_ms_per_pass)]
