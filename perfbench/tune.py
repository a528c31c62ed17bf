"""tune-family: one closed-loop caller running ``tune(..., jobs=1)`` on
the plan service's families, with the service's candidate space and 11
sizes from 32 KiB to 32 MiB. Each family is tuned three times per
cycle: from an empty cache, with only the disk tier holding its
candidates (a fresh process), and with every candidate in memory."""

from __future__ import annotations

import functools
import os
import statistics
from typing import Dict, List, Tuple

from repro.analysis.autotune import tune
from repro.analysis.sweep import chunk_bytes_for
from repro.core.cache import reset_default_compile_cache
from repro.runtime.simulator import IrSimulator, SimConfig
from repro.serve.service import COLLECTIVES, DEFAULT_TUNE_SPACE
from repro.topology import presets

from .common import Context, repeats
from .helpers import (geomean, item_medians, log_spaced_sizes, rng_for,
                      summarize)
from .layers import cache_targets, layer_metrics, sim_targets
from .spans import instrumented

KiB, MiB = 1024, 1024 * 1024
# (collective, NDv4 nodes): the service's families, one of them
# multi-node. Allreduce on 2 nodes is left out: its three tunes take
# about 8 s, so a run would hold too few cycles for a median over them.
FAMILIES = (
    ("allreduce", 1),
    ("alltoall", 1),
    ("allgather", 1),
    ("broadcast", 2),
)
SIZES = 11
# Seconds one untraced cycle (three tunes of every family) takes on one
# core of a 2-vCPU x86 VM.
CYCLE_S = 4.0


class Family:
    def __init__(self, collective: str, nodes: int, sizes: List[int]):
        self.label = f"{collective}/ndv4x{nodes}"
        self.topology = presets.ndv4(nodes)
        self.builder = functools.partial(
            COLLECTIVES[collective], nodes,
            self.topology.machine.gpus_per_node)
        self.sizing = self.builder(
            channels=1, instances=1,
            protocol="Simple").collective.sizing_chunks()
        self.sizes = sizes

    def tune(self, builder=None):
        return tune(builder or self.builder, self.topology, self.sizes,
                    self.sizing, space=list(DEFAULT_TUNE_SPACE), jobs=1)


def draw(seed: int) -> Tuple[List[tuple], List[int]]:
    """Seeded family order and tuning sizes (one per log-stratum, so
    every seed's sizes sit at the same mean position)."""
    rng = rng_for("tune-family", seed)
    families = list(FAMILIES)
    rng.shuffle(families)
    sizes = log_spaced_sizes(rng, SIZES, 32 * KiB, 32 * MiB)
    return families, sizes


def _fresh_cache(ctx: Context, empty: bool) -> None:
    """Drop the process-wide cache; ``empty`` also points it at a new
    directory, so nothing is cached in either tier."""
    if empty:
        os.environ["REPRO_CACHE_DIR"] = str(ctx.fresh_dir("tune-"))
    reset_default_compile_cache()


def _setup(ctx: Context) -> List[Family]:
    families, sizes = draw(ctx.seed)
    built = [Family(c, n, sizes) for c, n in families]
    # Warm lazily-initialised paths on a family outside the draw.
    _fresh_cache(ctx, empty=True)
    warm = Family("broadcast", 1, sizes[:2])
    warm.tune()
    return built


def _check(ctx: Context, family: Family, result) -> List[float]:
    """Each winner's time must match the reference engine bitwise."""
    times = []
    for size in family.sizes:
        winner = result.best[size]
        ir = result._compiled[winner].ir
        with ctx.checked(f"{family.label} reference {size}"):
            reference = IrSimulator(
                ir, family.topology,
                config=SimConfig(engine="reference")).run(
                    chunk_bytes=chunk_bytes_for(size, family.sizing))
            ctx.check(reference.time_us == result.best_time(size),
                      f"{family.label} @ {size}: tuned "
                      f"{result.best_time(size)} us, reference "
                      f"{reference.time_us} us")
        times.append(result.best_time(size))
    return times


def _timed_tune(ctx: Context, family: Family, kind: str, traced: bool,
                out: Dict):
    builder = None
    if traced:
        def builder(**kwargs):
            with ctx.span("trace"):
                return family.builder(**kwargs)
    t0 = ctx.clock.start()
    result = None
    with ctx.checked(f"{kind} tune {family.label}"):
        with ctx.span("tune", family.label):
            result = family.tune(builder)
        ctx.check(len(result.best) == len(family.sizes),
                  f"{family.label}: winners missing")
    wall, ref = ctx.clock.stop(t0)
    out.setdefault(kind, []).append(wall)
    out.setdefault(f"{kind}_by_family", {}).setdefault(
        family.label, []).append(ref)
    return result


def _cycle(ctx: Context, families: List[Family], traced: bool,
           first: bool, out: Dict) -> None:
    for family in families:
        _fresh_cache(ctx, empty=True)
        _timed_tune(ctx, family, "cold_ms", traced, out)
        _fresh_cache(ctx, empty=False)
        _timed_tune(ctx, family, "disk_ms", traced, out)
        if traced:
            # The untraced twin of the traced hit tune sizes the
            # tracing overhead.
            _timed_tune(ctx, family, "untraced_hit_ms", False, out)
        result = _timed_tune(ctx, family, "hit_ms", traced, out)
        if first and result is not None:
            out.setdefault("results", []).append((family, result))


def run(ctx: Context) -> Dict[str, float]:
    out: Dict = {}
    cycles = repeats(ctx.seconds, CYCLE_S)
    tallies: Dict = {}
    targets = ([] if not ctx.trace else
               cache_targets(tallies) + sim_targets(tallies)
               + _tune_targets())
    # One set-up before each cycle, so their median samples the whole
    # run, not its first moment.
    setups = []
    for index in range(cycles):
        t0 = ctx.clock.start()
        families = _setup(ctx)
        setups.append(ctx.clock.stop(t0)[1] / 1e3)
        with instrumented(ctx.recorder, targets):
            _cycle(ctx, families, ctx.trace, first=index == 0, out=out)
    # Checks run after the timed cycles, on the first cycle's winners.
    latencies, candidates, skipped = [], 0, 0
    for family, result in out["results"]:
        latencies += _check(ctx, family, result)
        candidates += len(result.candidates)
        skipped += len(result.skipped)
    ctx.details.update({
        "cycles": cycles,
        "families": [f.label for f in families],
        "sizes": families[0].sizes,
        "setups_s": setups,
    })
    for kind in ("cold_ms", "disk_ms", "hit_ms", "untraced_hit_ms"):
        if kind in out:
            ctx.details[f"tune_{kind}_per_family"] = summarize(out[kind])
    # Each family's median over cycles, in reference ms (see
    # common.Clock), then the mean over families: a median over families
    # of unequal cost would jump from one family's cost to another's
    # between runs.
    medians = {kind: item_medians(out[f"{kind}_ms_by_family"])
               for kind in ("cold", "disk", "hit")}
    ctx.details["median_ref_ms_per_family"] = medians
    if not ctx.trace:
        return {
            "setup_s": statistics.median(setups),
            "sim_latency_us": geomean(latencies),
            "cold_ms": statistics.mean(medians["cold"].values()),
            "disk_ms": statistics.mean(medians["disk"].values()),
            "hit_ms": statistics.mean(medians["hit"].values()),
            # Too few families for a percentile with ten samples beyond
            # it: the slowest family's warm tune.
            "hit_tail_ms": max(medians["hit"].values()),
        }

    spans = ctx.recorder.spans
    counts = dict(
        tallies,
        **{"tune.candidates": candidates,
           "tune.skipped": skipped,
           # Per cycle: every cycle runs the same tunes.
           "sim.runs": tallies.get("runs", 0) / cycles,
           "sim.occurrences": tallies.get("occurrences", 0) / cycles,
           "cache.lookups": tallies.get("lookups", 0) / cycles})
    metrics = layer_metrics(spans, counts)
    # tune.simulate_ms: simulator time inside one tune call, mean.
    tunes = [s for s in spans if s.name == "tune"]
    tune_ids = {s.id for s in tunes}
    simulate = sum(s.duration for s in spans
                   if s.name == "sim.run" and s.parent in tune_ids)
    metrics["tune.simulate_ms"] = simulate / len(tunes) * 1e3
    compile_total = sum(s.duration for s in spans
                        if s.name == "tune.compile")
    metrics["tune.compile_ms"] = compile_total / len(tunes) * 1e3
    # In reference time (see common.Clock), so that the host's drift
    # between the two tunes does not read as overhead.
    metrics["trace.overhead"] = (
        sum(map(sum, out["hit_ms_by_family"].values()))
        / sum(map(sum, out["untraced_hit_ms_by_family"].values())))
    return metrics


def _tune_targets() -> List[tuple]:
    from repro.analysis import autotune

    return [(autotune, "compile_program", "tune.compile")]
