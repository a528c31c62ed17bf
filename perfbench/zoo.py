"""compile-zoo: one closed-loop caller compiling a seeded draw from the
CLI catalog through an empty two-tier cache, then again as memory hits
and as disk hits from a fresh cache over the same directory."""

from __future__ import annotations

import argparse
import gc
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.analysis.sweep import chunk_bytes_for
from repro.core.cache import CompileCache, DiskCacheTier
from repro.core.compiler import CompilerOptions, compile_program
from repro.core.pipeline import CompileState, default_pipeline
from repro.observe.tracer import Tracer
from repro.runtime.executor import IrExecutor
from repro.runtime.simulator import IrSimulator
from repro.tools.cli import ALGORITHMS
from repro.topology import generic

from .common import Context, repeats
from .helpers import geomean, item_medians, rng_for, summarize
from .layers import cache_targets, layer_metrics, sim_targets
from .spans import instrumented

# (catalog name, ranks, nodes, instances, protocol). The programs are
# fixed so rounds from different seeds cost the same, and so simulate
# the same: they span 8-64 ranks, every catalog algorithm, instance
# counts 1-4 and each protocol five times, keeping one round of cold
# compiles near two seconds on one core.
ENTRIES = (
    ("ring_allreduce", 16, 1, 2, "LL"),
    ("allpairs_allreduce", 8, 1, 2, "LL128"),
    ("hierarchical_allreduce", 32, 4, 1, "Simple"),
    ("rhd_allreduce", 16, 1, 2, "LL128"),
    ("double_tree_allreduce", 64, 1, 1, "Simple"),
    ("twostep_alltoall", 16, 2, 4, "LL"),
    ("hierarchical_alltoall", 16, 2, 1, "Simple"),
    ("naive_alltoall", 32, 4, 1, "LL128"),
    ("alltonext", 64, 8, 2, "LL"),
    ("ring_allgather", 32, 1, 1, "Simple"),
    ("rd_allgather", 16, 1, 4, "LL"),
    ("ring_reducescatter", 16, 1, 2, "LL128"),
    ("sccl_allgather", 16, 1, 2, "Simple"),
    ("chain_broadcast", 64, 1, 4, "LL128"),
    ("tree_broadcast", 64, 1, 4, "LL"),
)
# Seconds one untraced round (cold, memory-hit and disk-hit compiles of
# the draw plus their XML checks) takes on one core of a 2-vCPU x86 VM.
ROUND_S = 5.0
# Simulated sizes, each moved by a seeded factor within 2**+-0.1: seeds
# give distinct inputs without moving the draw's latency much.
SIM_SIZES = (64 * 1024, 1024 * 1024, 16 * 1024 * 1024)
SIM_JITTER = 0.1


@dataclass(frozen=True)
class Entry:
    name: str
    ranks: int
    nodes: int
    instances: int
    protocol: str

    @property
    def label(self) -> str:
        return (f"{self.name}/{self.ranks}r/{self.instances}i/"
                f"{self.protocol}")

    def builder(self) -> Callable:
        args = argparse.Namespace(ranks=self.ranks, nodes=self.nodes,
                                  channels=1, instances=self.instances,
                                  protocol=self.protocol)
        return lambda: ALGORITHMS[self.name](args)


def draw(seed: int) -> Tuple[List[Entry], List[int]]:
    """The programs, in a fixed order, and the seeded sizes they are
    simulated at.

    The order is not drawn: the cyclic collector's pauses, about half
    of a cache hit's cost, land on whichever program crosses its
    threshold, so a seeded order moved the slowest program's hit time
    by a third between seeds.
    """
    rng = rng_for("compile-zoo", seed)
    sizes = [round(size * 2 ** rng.uniform(-SIM_JITTER, SIM_JITTER))
             for size in SIM_SIZES]
    return [Entry(*row) for row in ENTRIES], sizes


def _options(cache: CompileCache) -> CompilerOptions:
    # optimize=True so every pass of default_pipeline() runs.
    return CompilerOptions(optimize=True, cache=cache)


def _setup(ctx: Context) -> Tuple[List[Entry], List[int]]:
    entries, sizes = draw(ctx.seed)
    # Warm lazily-initialised code paths on a small program that is not
    # in the draw, so the first timed compile pays no one-off cost.
    cache = CompileCache(disk=DiskCacheTier(ctx.fresh_dir("setup-")))
    warm = Entry("ring_allreduce", 8, 1, 1, "Simple")
    with ctx.checked("set-up warm-up"):
        algo = compile_program(warm.builder()(), _options(cache))
        compile_program(warm.builder()(), _options(cache))
        IrExecutor(algo.ir, algo.collective).run_and_check()
        IrSimulator(algo.ir, generic(8, 1)).run(chunk_bytes=65536.0)
        algo.ir.to_xml()
    return entries, sizes


def _cold_traced(ctx: Context, entry: Entry, cache: CompileCache):
    """The cold compile with its passes driven one by one, so each pass
    gets its own span; returns (ir, collective, counts)."""
    options = _options(cache)
    with ctx.span("compile.cold", entry.label):
        with ctx.span("trace"):
            program = entry.builder()()
        key = cache.key_for(program, options)
        if cache.lookup(key) is not None:
            raise RuntimeError(f"{entry.label}: cold compile hit cache")
        state = CompileState(program=program,
                             collective=program.collective,
                             options=options, tracer=Tracer())
        counts = {"trace.chunk_ops": state.chunk_ops()}
        for p in default_pipeline().passes:
            if not p.enabled(options):
                continue
            before = len(state.idag.live()) if p.name == "fuse" else 0
            with ctx.span(f"pass.{p.name}"):
                p.run(state)
            if p.name == "fuse":
                counts["fuse.removed"] = before - len(state.idag.live())
        cache.store(key, state.ir, program.collective)
    counts["ir.instructions"] = state.ir.instruction_count()
    counts["ir.threadblocks"] = state.ir.threadblock_count()
    return state.ir, program.collective, counts


def _round(ctx: Context, entries: List[Entry], sizes: List[int],
           traced: bool, checks: bool, reference_xml: Dict[str, str],
           out: Dict):
    """One round: cold, memory-hit and disk-hit compiles of the draw."""
    directory = ctx.fresh_dir("zoo-")
    cache = CompileCache(disk=DiskCacheTier(directory))
    cold_ms, hit_ms, disk_ms = [], [], []
    cold = {}
    counts: Dict[str, float] = {}
    # Each timed phase starts from a collected heap, so the cyclic
    # collector's pauses inside it fall at the same programs in every
    # round.
    gc.collect()
    for entry in entries:
        t0 = ctx.clock.start()
        with ctx.checked(f"cold compile {entry.label}"):
            if traced:
                ir, collective, row = _cold_traced(ctx, entry, cache)
                for key, value in row.items():
                    counts[key] = counts.get(key, 0) + value
            else:
                algo = compile_program(entry.builder()(), _options(cache))
                ir, collective = algo.ir, algo.collective
            cold[entry] = (ir, collective)
        cold_ms.append(ctx.clock.stop(t0))
    cold_s = sum(wall for wall, _ref in cold_ms) / 1e3

    hits = {}
    gc.collect()
    for entry in entries:
        t0 = ctx.clock.start()
        with ctx.checked(f"memory hit {entry.label}"):
            with ctx.span("compile.hit", entry.label):
                with ctx.span("trace"):
                    program = entry.builder()()
                algo = compile_program(program, _options(cache))
            hits[entry] = algo
        hit_ms.append(ctx.clock.stop(t0))

    fresh = CompileCache(disk=DiskCacheTier(directory))
    disks, tiers = {}, {}
    gc.collect()
    for entry in entries:
        t0 = ctx.clock.start()
        with ctx.checked(f"disk hit {entry.label}"):
            with ctx.span("compile.disk", entry.label):
                with ctx.span("trace"):
                    program = entry.builder()()
                algo = compile_program(program, _options(fresh))
            tiers[entry] = fresh.last_hit_tier
            disks[entry] = algo
        disk_ms.append(ctx.clock.stop(t0))
    if checks:
        counts["cache.entry_bytes"] = fresh.disk.total_bytes()

    # Output checks (untimed): cold, memory-hit and disk-hit compiles
    # serialise to the same bytes, and hits came from the right tier.
    for entry in entries:
        if entry not in cold or entry not in hits or entry not in disks:
            continue
        with ctx.span("ir.to_xml"):
            xml = cold[entry][0].to_xml()
        ctx.check(hits[entry].cache_hit, f"{entry.label}: no memory hit")
        ctx.check(tiers[entry] == "disk", f"{entry.label}: no disk hit")
        ctx.check(hits[entry].ir.to_xml() == xml
                  and disks[entry].ir.to_xml() == xml,
                  f"{entry.label}: hit XML differs from cold XML")
        # The first round's XML (compile_program's when untraced) is
        # the reference every later round, traced or not, must match.
        if entry.label in reference_xml:
            ctx.check(reference_xml[entry.label] == xml,
                      f"{entry.label}: XML differs from the first round's")
        else:
            reference_xml[entry.label] = xml
        if checks:
            counts["ir.xml_bytes"] = counts.get("ir.xml_bytes", 0) + len(xml)
    if checks:
        out["sim_latency_us"] = _execute_and_simulate(ctx, entries,
                                                      sizes, cold)
        out["counts"] = counts
    out.setdefault("cold_s", []).append(cold_s)
    out.setdefault("cold_ref_s", []).append(
        sum(ref for _wall, ref in cold_ms) / 1e3)
    for kind, samples in (("cold", cold_ms), ("hit", hit_ms),
                          ("disk", disk_ms)):
        out.setdefault(f"{kind}_ms", []).extend(
            wall for wall, _ref in samples)
        by_program = out.setdefault(f"{kind}_by_program", {})
        for entry, (_wall, ref) in zip(entries, samples):
            by_program.setdefault(entry.label, []).append(ref)


def _execute_and_simulate(ctx: Context, entries: List[Entry],
                          sizes: List[int], cold: Dict) -> float:
    """Check every compiled IR on the executor; return the geomean
    simulated latency of the draw at ``sizes``."""
    latencies = []
    for entry in entries:
        if entry not in cold:
            continue
        ir, collective = cold[entry]
        with ctx.checked(f"executor {entry.label}"):
            with ctx.span("exec.check"):
                IrExecutor(ir, collective).run_and_check()
        topology = generic(entry.ranks // entry.nodes, entry.nodes)
        sizing = collective.sizing_chunks()
        for size in sizes:
            with ctx.checked(f"simulate {entry.label} {size}"):
                latencies.append(IrSimulator(ir, topology).run(
                    chunk_bytes=chunk_bytes_for(size, sizing)).time_us)
    return geomean(latencies)


def run(ctx: Context) -> Dict[str, float]:
    # One set-up before each round, so their median samples the whole
    # run, not its first moment.
    setups = []

    def set_up():
        t0 = ctx.clock.start()
        drawn = _setup(ctx)
        setups.append(ctx.clock.stop(t0)[1] / 1e3)
        return drawn

    entries, sizes = set_up()
    untraced: Dict = {}
    reference_xml: Dict[str, str] = {}
    rounds = repeats(ctx.seconds, ROUND_S)
    if not ctx.trace:
        for index in range(rounds):
            if index:
                set_up()
            _round(ctx, entries, sizes, traced=False, checks=index == 0,
                   reference_xml=reference_xml, out=untraced)
        return _end_to_end(ctx, setups, untraced)

    # Traced run: untraced and traced rounds alternate, so the tracing
    # overhead compares rounds made under the same conditions.
    traced: Dict = {}
    tallies: Dict = {}
    recorder = ctx.recorder
    targets = cache_targets(tallies) + sim_targets(tallies)
    for _ in range(max(1, rounds // 2)):
        _round(ctx, entries, sizes, traced=False, checks=False,
               reference_xml=reference_xml, out=untraced)
        with instrumented(recorder, targets):
            mark = len(recorder.spans)
            _round(ctx, entries, sizes, traced=True, checks=not traced,
                   reference_xml=reference_xml, out=traced)
    spans = recorder.spans
    # Simulations run in the first traced round only.
    counts = dict(traced["counts"], **tallies)
    counts["sim.runs"] = tallies.get("runs", 0)
    counts["sim.occurrences"] = tallies.get("occurrences", 0)
    counts["cache.lookups"] = (tallies.get("lookups", 0)
                               / len(traced["cold_s"]))
    metrics = layer_metrics(spans, counts)
    untraced_cold_s = statistics.median(untraced["cold_s"])
    # In reference time (see common.Clock), so that the host's drift
    # between the two rounds does not read as overhead.
    metrics["trace.overhead"] = (statistics.median(traced["cold_ref_s"])
                                 / statistics.median(untraced["cold_ref_s"]))
    # Coverage: the share of the last traced round's cold phase that
    # the layer spans directly inside its compiles (trace, cache,
    # passes, with their children) account for. Times trace.overhead,
    # it is their account of the untraced cold phase.
    roots = {s.id for s in spans[mark:] if s.name == "compile.cold"}
    covered = sum(s.duration for s in spans[mark:] if s.parent in roots)
    metrics["trace.coverage"] = covered / traced["cold_s"][-1]
    ctx.details["untraced_cold_s"] = untraced_cold_s
    ctx.details["traced_cold_s"] = statistics.median(traced["cold_s"])
    return metrics


def _end_to_end(ctx: Context, setups, out) -> Dict[str, float]:
    # Each program's median over rounds, in reference ms (see
    # common.Clock), then the mean over programs: a median over programs
    # of unequal cost would jump from one program's cost to another's
    # between runs.
    medians = {kind: item_medians(out[f"{kind}_by_program"])
               for kind in ("cold", "hit", "disk")}
    ctx.details.update({
        "rounds": len(out["cold_s"]),
        "compile_cold_s": summarize(out["cold_s"]),
        "compile_cold_ms_per_program": summarize(out["cold_ms"]),
        "compile_hit_ms_per_program": summarize(out["hit_ms"]),
        "compile_disk_hit_ms_per_program": summarize(out["disk_ms"]),
        "median_ref_ms_per_program": medians,
        "setups_s": setups,
    })
    return {
        "setup_s": statistics.median(setups),
        "sim_latency_us": out["sim_latency_us"],
        "cold_ms": statistics.mean(medians["cold"].values()),
        "disk_ms": statistics.mean(medians["disk"].values()),
        "hit_ms": statistics.mean(medians["hit"].values()),
        # 15 programs are too few for a percentile with ten samples
        # beyond it: the slowest program's hit.
        "hit_tail_ms": max(medians["hit"].values()),
    }
