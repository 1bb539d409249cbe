"""Small measurement helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import resource
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier more or less moves it.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``q``."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it (p50 needs 20 samples, p90 needs 100).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} beyond it; "
            f"need {MIN_BEYOND} ({min_samples(q)} samples)"
        )
    return ordered[rank - 1]


def mmm_count(exponent: int) -> int:
    """Montgomery products of one Algorithm 3 exponentiation.

    One product into the Montgomery domain, one squaring per exponent
    bit below the most significant, one multiply per further set bit,
    and one product back out of the domain.
    """
    return exponent.bit_length() + bin(exponent).count("1")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB.

    ``RUSAGE_CHILDREN`` reports the largest child that has ended and
    been waited for, so call this after the service's shards are joined.
    Linux reports both in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
