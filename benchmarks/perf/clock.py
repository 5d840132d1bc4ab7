"""Timing helpers shared by the driver and the traced run."""

from __future__ import annotations

import gc
import resource
from statistics import median, quantiles
from time import perf_counter


def timed(call) -> tuple[float, object]:
    """Wall seconds of ``call()`` and its result; collects garbage first, never inside."""
    gc.collect()
    t0 = perf_counter()
    out = call()
    return perf_counter() - t0, out


def cpu_seconds() -> float:
    """User + system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count of a sample list."""
    if len(samples) >= 2:
        p25, _, p75 = quantiles(samples, n=4)
    else:
        p25 = p75 = samples[0]
    return {"p50": median(samples), "p25": p25, "p75": p75, "samples": len(samples)}


def drift_ratio(samples: list[float]) -> float:
    """Median of the last third of the samples over that of the first third."""
    third = max(len(samples) // 3, 1)
    return median(samples[-third:]) / median(samples[:third])
