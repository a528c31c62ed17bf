"""Pure helpers shared by the workloads: timing summaries, seeded draws,
and open-loop accounting. Nothing here imports ``repro``, so the tests
in ``perfbench/tests`` run without the program."""

from __future__ import annotations

import math
import random
from typing import (Dict, Hashable, Iterable, List, Optional, Sequence,
                    Tuple)

# Candidate tail percentiles, highest first. A timing reports the
# highest one that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the numpy default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond
    it, or None when there are too few samples for any."""
    for pct in TAIL_LADDER:
        # Rounded, so 10000 samples at 99.9 count as the 10 they are.
        if round(count * (100.0 - pct) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, sample count and the reportable tail of one timing.

    With too few samples for any ladder percentile the tail is the
    maximum, reported as percentile 100 so the reader sees it.
    """
    if not values:
        raise ValueError("summary of no samples")
    pct = tail_percentile(len(values))
    tail_pct = 100.0 if pct is None else pct
    return {
        "n": len(values),
        "median": percentile(values, 50.0),
        "tail_pct": tail_pct,
        "tail": percentile(values, tail_pct),
    }


def item_medians(samples: Dict[Hashable, List[float]]
                 ) -> Dict[Hashable, float]:
    """Each item's median over its repeats."""
    if not samples or not all(samples.values()):
        raise ValueError("median of no samples")
    return {item: percentile(values, 50.0)
            for item, values in samples.items()}


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- seeded generation ----------------------------------------------------

def rng_for(workload: str, seed: int) -> random.Random:
    """A generator private to one (workload, seed); string seeding is
    stable across Python processes and versions."""
    return random.Random(f"perfbench:{workload}:{seed}")


def latin_offsets(rng: random.Random, count: int) -> List[float]:
    """One offset in [0, 1) per stratum, each stratum used once: a
    seeded permutation of the stratum midpoints, so the mean offset is
    the same for every seed."""
    order = list(range(count))
    rng.shuffle(order)
    return [(slot + 0.5) / count for slot in order]


def log_spaced_sizes(rng: random.Random, count: int, low: int,
                     high: int) -> List[int]:
    """``count`` sizes in [low, high], one per equal log-width stratum,
    placed inside each stratum by :func:`latin_offsets`; sorted."""
    lo, hi = math.log2(low), math.log2(high)
    width = (hi - lo) / count
    offsets = latin_offsets(rng, count)
    return sorted(
        int(round(2 ** (lo + width * (index + offsets[index]))))
        for index in range(count)
    )


def poisson_arrivals(rng: random.Random, rate: float, start: float,
                     duration: float) -> List[float]:
    """Arrival times of a Poisson process of ``rate`` per second over
    [start, start + duration)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    times = []
    now = start + rng.expovariate(rate)
    while now < start + duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


# -- open-loop accounting -------------------------------------------------

def open_loop_times(due: float, sent: float,
                    done: float) -> Tuple[float, float]:
    """(latency, lag) of one open-loop ask, both in the input's unit.

    Latency runs from when the ask was *due*, not when it was sent, so
    a stall in the generator or a full connection is charged to every
    ask it delayed. Lag is how late the generator sent it.
    """
    if sent < due or done < sent:
        raise ValueError("expected due <= sent <= done")
    return done - due, sent - due


def backlog_grew(due_times: Sequence[float], done_times: Sequence[float],
                 window_end: float, slack: float) -> bool:
    """True when asks due inside a rate step were still unanswered more
    than ``slack`` after the step ended: the service fell behind."""
    return any(done > window_end + slack
               for due, done in zip(due_times, done_times)
               if due <= window_end)
