"""What every workload shares: its run context, failure accounting, and
peak-memory reading."""

from __future__ import annotations

import contextlib
import resource
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .spans import Recorder


@dataclass
class Context:
    """One benchmark run: its seed, measuring budget and scratch dir."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    recorder: Optional[Recorder] = None
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    # Every figure worth printing, keyed by name (timings as summaries).
    details: Dict[str, object] = field(default_factory=dict)
    clock: "Clock" = field(default_factory=lambda: Clock())

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def span(self, name: str, request: Optional[str] = None):
        """A span in the traced run, nothing in the untraced one."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, request)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @contextlib.contextmanager
    def checked(self, what: str):
        """Count one operation; an exception inside is one failure."""
        self.attempt()
        try:
            yield
        except Exception:  # a failed operation is data, not a crash
            self.fail(f"{what}: {traceback.format_exc(limit=3)}")

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a false one is one failure."""
        self.attempt()
        if not ok:
            self.fail(what)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited-for
    child when asked), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def now() -> float:
    return time.perf_counter()


# Host-speed calibration. The host's speed drifts by up to 1.5x over
# seconds and minutes as other tenants load it, and no statistic over
# one run's wall times removes a drift that lasts the whole run. A fixed
# pure-Python loop, timed right before and right after each sample, is
# slowed by the same drift, so a sample's ratio to it is not. The loop
# allocates no containers, so the cyclic collector never runs inside it.
CAL_LOOPS = 7000
CAL_REPEATS = 3
# Milliseconds the loop takes, best of CAL_REPEATS, when a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest runs at its fast level: a sample
# normalised to it reads as wall milliseconds on that host at that
# level.
CAL_REF_MS = 1.0
# A calibration this recent (seconds) still counts as "right before".
CAL_FRESH_S = 0.01


def _calibration_loop() -> int:
    x, total = 12345, 0
    for _ in range(CAL_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += x >> 7
    return total


def calibrate() -> float:
    """Milliseconds the calibration loop takes now, best of a few."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = now()
        _calibration_loop()
        best = min(best, now() - t0)
    return best * 1e3


class Clock:
    """Times samples in wall milliseconds and in reference milliseconds:
    wall time scaled by CAL_REF_MS over the mean of the calibrations
    made right before and right after the sample.

        t0 = clock.start()
        ...work...
        wall_ms, ref_ms = clock.stop(t0)
    """

    def __init__(self):
        self.cal_ms = calibrate()
        self.cal_at = now()
        self.before_ms = self.cal_ms

    def start(self) -> float:
        if now() - self.cal_at > CAL_FRESH_S:
            self.cal_ms = calibrate()
        self.before_ms = self.cal_ms
        return now()

    def stop(self, t0: float) -> Tuple[float, float]:
        wall_ms = (now() - t0) * 1e3
        self.cal_ms = calibrate()
        self.cal_at = now()
        scale = CAL_REF_MS / ((self.before_ms + self.cal_ms) / 2)
        return wall_ms, wall_ms * scale



def repeats(seconds: float, unit_seconds: float) -> int:
    """How many repeats of a unit of work that takes about
    ``unit_seconds`` (one core of a 2-vCPU x86 VM) fill ``seconds``.

    Fixed by the arguments, not by the clock, so every run with the
    same ``--seconds`` does the same work on any machine.
    """
    return max(1, round(seconds / unit_seconds))
