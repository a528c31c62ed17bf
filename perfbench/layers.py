"""The per-layer metric names, the layer entry points the traced run
wraps, and the arithmetic from spans to per-layer figures."""

from __future__ import annotations

from typing import Dict, List

from .spans import Span, by_name

# Span name -> per-layer metric: mean self time per call, in ms.
SPAN_METRICS = {
    "trace": "trace.ms",
    "cache.key": "cache.key_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.materialize": "cache.materialize_ms",
    "cache.store": "cache.store_ms",
    "cache.disk_lookup": "cache.disk_lookup_ms",
    "pass.verify": "pass.verify_ms",
    "pass.lower": "pass.lower_ms",
    "pass.fuse": "pass.fuse_ms",
    "pass.schedule": "pass.schedule_ms",
    "pass.prune_redundant_deps": "pass.prune_redundant_deps_ms",
    "pass.renumber_channels": "pass.renumber_channels_ms",
    "pass.audit": "pass.audit_ms",
    "ir.to_xml": "ir.to_xml_ms",
    "ir.from_json": "ir.from_json_ms",
    "sim.build": "sim.build_ms",
    "sim.run": "sim.run_ms",
    "tune.compile": "tune.compile_ms",
    "exec.check": "exec.check_ms",
}

# Every per-layer metric, in BENCHMARK.json order (units live there). A
# workload that does not reach a layer reports 0 for its metrics.
PER_LAYER = (
    "trace.ms", "trace.chunk_ops", "cache.key_ms", "cache.lookup_ms",
    "cache.materialize_ms", "cache.store_ms", "cache.disk_lookup_ms",
    "cache.hit_ratio", "cache.lookups", "cache.entry_bytes",
    "pass.verify_ms", "pass.lower_ms", "pass.fuse_ms", "pass.schedule_ms",
    "pass.prune_redundant_deps_ms", "pass.renumber_channels_ms",
    "pass.audit_ms", "ir.instructions", "ir.threadblocks", "fuse.removed",
    "ir.to_xml_ms", "ir.xml_bytes", "ir.from_json_ms", "sim.build_ms",
    "sim.run_ms", "sim.runs", "sim.occurrences", "sim.occ_per_s",
    "tune.candidates", "tune.skipped", "tune.compile_ms",
    "tune.simulate_ms", "serve.table_ms", "serve.dedup_wait_ms",
    "serve.cold_ms", "serve.revalidate_ms", "serve.hit_ratio",
    "serve.promotions", "serve.tune_runs", "serve.response_bytes",
    "serve.warm_p99_ms", "serve.max_rps", "gen.lag_p99_ms", "exec.check_ms",
    "trace.overhead", "trace.coverage",
)


def cache_targets(counts: Dict) -> List[tuple]:
    """The cache tiers' entry points (counting memory-tier lookups and
    hits) and the IR parse a hit pays."""
    from repro.core.cache import CompileCache, DiskCacheTier
    from repro.core.ir import MscclIr

    def on_lookup(entry):
        counts["lookups"] = counts.get("lookups", 0) + 1
        if entry is not None:
            counts["hits"] = counts.get("hits", 0) + 1

    return [
        (CompileCache, "key_for", "cache.key"),
        (CompileCache, "lookup", "cache.lookup", on_lookup),
        (CompileCache, "materialize", "cache.materialize"),
        (CompileCache, "store", "cache.store"),
        (DiskCacheTier, "lookup", "cache.disk_lookup"),
        (MscclIr, "from_json", "ir.from_json"),
    ]


def sim_targets(counts: Dict) -> List[tuple]:
    """Simulator runs (counting occurrences) and per-shape program
    builds, which happen inside the first run at each size."""
    from repro.runtime.simulator import IrSimulator

    def on_run(result):
        counts["runs"] = counts.get("runs", 0) + 1
        counts["occurrences"] = (counts.get("occurrences", 0)
                                 + result.instruction_count * result.tiles)

    return [
        (IrSimulator, "run", "sim.run", on_run),
        (IrSimulator, "_compile_programs", "sim.build"),
    ]


def layer_metrics(spans: List[Span], counts: Dict) -> Dict[str, float]:
    """Mean self ms per call for each wrapped layer, plus counts.

    ``counts`` holds per-round counts under their metric names, and the
    run's raw totals from :func:`cache_targets` (``lookups``, ``hits``)
    and :func:`sim_targets` (``runs``, ``occurrences``).
    """
    table = by_name(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in SPAN_METRICS.items():
        row = table.get(span_name)
        if row and row["count"]:
            metrics[metric] = row["self_s"] / row["count"] * 1e3
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    if counts.get("lookups"):
        metrics["cache.hit_ratio"] = counts.get("hits", 0) / counts["lookups"]
    run = table.get("sim.run")
    if run and counts.get("occurrences"):
        metrics["sim.occ_per_s"] = counts["occurrences"] / run["total_s"]
    return metrics
