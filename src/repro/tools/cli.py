"""The ``repro-tools`` / ``python -m repro.tools`` command line.

Subcommands:

* ``compile``  — build a named algorithm and print its MSCCL-IR as XML,
  JSON, a summary, or DOT graphs of the compiler stages.
* ``simulate`` — compile and run one (algorithm, topology, size) point,
  printing latency and algorithm bandwidth.
* ``sweep``    — latency across a size grid, optionally against NCCL.
* ``passes``   — introspect the compiler pass pipeline: which passes
  run for the given options, their wall time and counters, per-pass
  invariant validation, and optional per-pass IR dumps to a directory.
* ``trace``    — compile + simulate with the observability tracer on
  and write a ``chrome://tracing`` JSON, printing the per-pass compile
  table, a flamegraph-style summary, and the runtime metrics.
* ``diagnose`` — compile + simulate with tracing and run the
  dependency-aware bottleneck analysis: exact critical-path
  attribution, hints, and optionally a chunk's hop-by-hop journey.
* ``conform``  — run the differential conformance + fault-injection
  harness: shuffled-schedule order invariance, executor-vs-simulator
  FIFO cross-checks, a static race scan, and fault plans; prints a
  per-algorithm verdict and exits nonzero on any witness.
* ``import``   — load a reference-dialect MSCCL XML file (including
  programs no registered builder produces, e.g. alltoallv), resolve
  its collective semantics, and feed the same machinery as compiled
  algorithms: summary, data-level check, timing simulation,
  conformance, and bottleneck diagnosis.
* ``serve``    — run the compile-plan service: an asyncio server that
  answers (collective, topology, size) requests from the two-tier
  compile cache, deduplicates identical in-flight requests, and
  autotunes cold plan families in the background (docs/serving.md).
* ``plan``     — the matching client: ask a running service for a
  plan (or its stats), print the selection summary or the XML.

Example::

    repro-tools compile ring_allreduce --ranks 8 \
        --channels 4 --instances 8 --protocol LL --format xml
    repro-tools simulate hierarchical_allreduce \
        --topology ndv4 --nodes 2 --size 64MB
    repro-tools trace ring_allreduce --ranks 8 --size 1MB \
        --out ring_trace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..analysis.parallel import parallel_map
from ..analysis.sweep import (chunk_bytes_for, format_size, ir_timer,
                              run_sweep, size_grid)
from ..core.cache import default_compile_cache
from ..core.compiler import CompilerOptions, compile_program
from ..core.visualize import describe_ir, ir_dot
from ..nccl.selector import NcclModel
from ..observe import (Tracer, chunk_journey, diagnose, diagnose_text,
                       diagnosis_dict, flame_text, journey_text,
                       metrics_dict, metrics_text, write_chrome_trace)
from ..runtime.executor import IrExecutor
from ..runtime.simulator import IrSimulator, SimConfig
from ..topology import PRESETS, generic
from .. import algorithms

# name -> (builder kwargs adapter); builders come from repro.algorithms.
ALGORITHMS = {
    "ring_allreduce": lambda a: algorithms.ring_allreduce(
        a.ranks, channels=a.channels, instances=a.instances,
        protocol=a.protocol),
    "allpairs_allreduce": lambda a: algorithms.allpairs_allreduce(
        a.ranks, instances=a.instances, protocol=a.protocol),
    "hierarchical_allreduce": lambda a: algorithms.hierarchical_allreduce(
        a.nodes, a.ranks // a.nodes, instances=a.instances,
        protocol=a.protocol, intra_parallel=a.channels),
    "rhd_allreduce": lambda a:
        algorithms.recursive_halving_doubling_allreduce(
            a.ranks, instances=a.instances, protocol=a.protocol),
    "double_tree_allreduce": lambda a:
        algorithms.double_binary_tree_allreduce(
            a.ranks, instances=a.instances, protocol=a.protocol),
    "twostep_alltoall": lambda a: algorithms.twostep_alltoall(
        a.nodes, a.ranks // a.nodes, instances=a.instances,
        protocol=a.protocol),
    "hierarchical_alltoall": lambda a: algorithms.hierarchical_alltoall(
        a.nodes, a.ranks // a.nodes, instances=a.instances,
        protocol=a.protocol),
    "naive_alltoall": lambda a: algorithms.naive_alltoall(
        a.ranks, instances=a.instances, protocol=a.protocol,
        gpus_per_node=a.ranks // a.nodes),
    "alltonext": lambda a: algorithms.alltonext(
        a.nodes, a.ranks // a.nodes, instances=a.instances,
        protocol=a.protocol),
    "ring_allgather": lambda a: algorithms.ring_allgather(
        a.ranks, channels=a.channels, instances=a.instances,
        protocol=a.protocol),
    "rd_allgather": lambda a: algorithms.recursive_doubling_allgather(
        a.ranks, instances=a.instances, protocol=a.protocol),
    "ring_reducescatter": lambda a: algorithms.ring_reducescatter(
        a.ranks, channels=a.channels, instances=a.instances,
        protocol=a.protocol),
    "sccl_allgather": lambda a: algorithms.sccl_allgather_122(
        a.ranks, instances=a.instances, protocol=a.protocol),
    "chain_broadcast": lambda a: algorithms.chain_broadcast(
        a.ranks, instances=a.instances, protocol=a.protocol),
    "tree_broadcast": lambda a: algorithms.tree_broadcast(
        a.ranks, instances=a.instances, protocol=a.protocol),
}


def parse_size(text: str) -> int:
    """'64MB' / '128KB' / '1GB' / plain bytes."""
    units = {"KB": 1024, "MB": 1024 ** 2, "GB": 1024 ** 3, "B": 1}
    upper = text.upper()
    for suffix, factor in units.items():
        if upper.endswith(suffix):
            return int(float(upper[: -len(suffix)]) * factor)
    return int(text)


def build_topology(args):
    """The cluster the command targets."""
    if args.topology == "generic":
        return generic(args.ranks // args.nodes, args.nodes)
    topo = PRESETS[args.topology](args.nodes)
    if args.ranks != topo.num_ranks:
        raise SystemExit(
            f"--ranks {args.ranks} does not match {args.topology} with "
            f"{args.nodes} node(s) ({topo.num_ranks} GPUs)"
        )
    return topo


def build_algorithm(args):
    """Trace the requested program."""
    try:
        builder = ALGORITHMS[args.algorithm]
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; choose from "
            f"{', '.join(sorted(ALGORITHMS))}"
        )
    return builder(args)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("algorithm", help="algorithm name")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--channels", type=int, default=1)
    parser.add_argument("--instances", type=int, default=1)
    parser.add_argument("--protocol", default="Simple",
                        choices=["Simple", "LL", "LL128"])
    parser.add_argument("--topology", default="generic",
                        choices=["generic", *PRESETS])


def _compile(args) -> int:
    topology = build_topology(args)
    program = build_algorithm(args)
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=topology.machine.sm_count
    ))
    if args.check:
        IrExecutor(algo.ir, algo.collective).run_and_check()
        print("# data check passed", file=sys.stderr)
    if args.format == "xml":
        print(algo.ir.to_xml())
    elif args.format == "json":
        print(algo.ir.to_json(indent=2))
    elif args.format == "dot":
        print(ir_dot(algo.ir))
    else:
        print(describe_ir(algo.ir))
    return 0


def _simulate(args) -> int:
    topology = build_topology(args)
    program = build_algorithm(args)
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=topology.machine.sm_count
    ))
    size = parse_size(args.size)
    result = IrSimulator(algo.ir, topology).run(
        chunk_bytes=chunk_bytes_for(size, algo.sizing_chunks())
    )
    print(f"{program.name} on {topology!r}")
    print(f"  buffer: {format_size(size)}  latency: "
          f"{result.time_us:.1f} us  algbw: "
          f"{result.algbw_gbps(size):.1f} GB/s  tiles: {result.tiles}")
    return 0


def _pass_table(algo) -> str:
    """The compile-time span summary as an aligned text table."""
    lines = [f"{'pass':<12s} {'wall us':>10s}  counters"]
    for name, row in algo.compile_summary.items():
        counters = "  ".join(
            f"{key}={value}" for key, value in row.items()
            if key != "duration_us"
        )
        lines.append(f"{name:<12s} {row['duration_us']:>10.1f}  {counters}")
    return "\n".join(lines)


def _passes(args) -> int:
    from ..core.pipeline import default_pipeline

    topology = build_topology(args)
    program = build_algorithm(args)
    options = CompilerOptions(
        max_threadblocks=topology.machine.sm_count,
        instr_fusion=not args.no_fusion,
        optimize=args.optimize,
        validate_each=True if args.validate else None,
        dump_after="all",
    )
    algo = compile_program(program, options)

    print(f"{program.name}: pass pipeline")
    for p in default_pipeline().passes:
        state = "ran" if p.name in algo.dumps else "skipped"
        invariants = ", ".join(p.invariants) or "-"
        print(f"  {p.name:<22s} {state:<8s} invariants: {invariants}")
    print("\n== pass timings ==")
    print(_pass_table(algo))
    if args.validate:
        print("\n# per-pass invariant validation passed")
    if args.dump_dir:
        from pathlib import Path as _Path

        dump_dir = _Path(args.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for index, (name, text) in enumerate(algo.dumps.items()):
            suffix = "xml" if text.startswith("<") else "txt"
            path = dump_dir / f"{index:02d}_{name}.{suffix}"
            path.write_text(text + "\n")
            print(f"# {name} snapshot written to {path}",
                  file=sys.stderr)
    return 0


def _trace(args) -> int:
    topology = build_topology(args)
    program = build_algorithm(args)
    tracer = Tracer()
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=topology.machine.sm_count, trace=tracer,
    ))
    size = parse_size(args.size)
    result = IrSimulator(
        algo.ir, topology, config=SimConfig(tracer=tracer)
    ).run(chunk_bytes=chunk_bytes_for(size, algo.sizing_chunks()))

    out = args.out or f"{args.algorithm}_trace.json"
    path = write_chrome_trace(out, tracer)
    print(f"{program.name} on {topology!r}: {result.time_us:.1f} us "
          f"for {format_size(size)}")
    print(f"# chrome trace written to {path} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    print("\n== compiler passes ==")
    print(_pass_table(algo))
    print("\n== span summary ==")
    print(flame_text(tracer, max_depth=args.depth))
    metrics = metrics_dict(tracer, result)
    print("\n== metrics ==")
    print(metrics_text(metrics))
    if args.metrics:
        import json as _json
        from pathlib import Path as _Path

        _Path(args.metrics).write_text(_json.dumps(metrics, indent=2))
        print(f"# metrics written to {args.metrics}", file=sys.stderr)
    return 0


def _diagnose(args) -> int:
    topology = build_topology(args)
    program = build_algorithm(args)
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=topology.machine.sm_count
    ))
    size = parse_size(args.size)
    result = IrSimulator(
        algo.ir, topology, config=SimConfig(collect_trace=True)
    ).run(chunk_bytes=chunk_bytes_for(size, algo.sizing_chunks()))

    diag = diagnose(result)
    print(f"{program.name} on {topology!r}: {result.time_us:.1f} us "
          f"for {format_size(size)}")
    print()
    print(diagnose_text(diag, top=args.top))
    if args.chunk:
        try:
            rank_text, buffer_name, index_text = args.chunk.split(":")
            rank, index = int(rank_text), int(index_text)
        except ValueError:
            raise SystemExit(
                f"--chunk wants rank:buffer:index, got {args.chunk!r}"
            )
        hops = chunk_journey(result, rank, buffer_name, index)
        print(f"\n== journey of chunk({rank}, {buffer_name}, "
              f"{index}) ==")
        print(journey_text(hops))
    if args.json:
        import json as _json
        from pathlib import Path as _Path

        payload = diagnosis_dict(diag)
        payload["algorithm"] = program.name
        payload["size_bytes"] = size
        _Path(args.json).write_text(_json.dumps(payload, indent=2))
        print(f"# diagnosis written to {args.json}", file=sys.stderr)
    return 0


def _conform_worker(payload):
    """Compile one algorithm and run the conformance harness on it.

    Module-level (and fed plain-data payloads) so the parallel layer
    can ship it to worker processes; ``repro-tools conform --jobs N``
    shards the per-algorithm runs this way.
    """
    from ..conformance import run_conformance

    name, ns, config = payload
    view = argparse.Namespace(**ns)
    program = ALGORITHMS[name](view)
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=config.topology.machine.sm_count,
        cache=default_compile_cache(),
    ))
    return run_conformance(algo, config)


def _conform(args) -> int:
    import json as _json
    from pathlib import Path as _Path

    from ..conformance import ConformanceConfig

    names = (sorted(ALGORITHMS) if args.algorithm == "all"
             else [args.algorithm])
    for name in names:
        if name not in ALGORITHMS:
            raise SystemExit(
                f"unknown algorithm {name!r}; choose from "
                f"{', '.join(sorted(ALGORITHMS))} or 'all'"
            )
    topology = build_topology(args)
    config = ConformanceConfig(
        seeds=args.seeds,
        elements_per_chunk=args.elements,
        inject_faults=not args.no_faults,
        topology=topology,
    )
    ns = {key: vars(args)[key]
          for key in ("ranks", "nodes", "channels", "instances",
                      "protocol", "topology")}
    payloads = [(name, {**ns, "algorithm": name}, config)
                for name in names]
    results = parallel_map(_conform_worker, payloads, jobs=args.jobs,
                           label="conform")
    reports = []
    failures = 0
    for name, report in zip(names, results):
        reports.append((name, report))
        print(report.text())
        if not report.ok:
            failures += 1
            if args.witness_dir:
                witness_dir = _Path(args.witness_dir)
                witness_dir.mkdir(parents=True, exist_ok=True)
                path = witness_dir / f"{name}.witness.json"
                path.write_text(_json.dumps(report.to_dict(), indent=2))
                print(f"# witnesses written to {path}", file=sys.stderr)
    if args.json:
        _Path(args.json).write_text(_json.dumps(
            [report.to_dict() for _, report in reports], indent=2
        ))
        print(f"# reports written to {args.json}", file=sys.stderr)
    verdict = "FAIL" if failures else "PASS"
    print(f"{verdict}: {len(reports) - failures}/{len(reports)} "
          f"algorithm(s) conform ({args.seeds} seeds, "
          f"{args.ranks} ranks, {args.nodes} node(s))")
    return 1 if failures else 0


def _import(args) -> int:
    import json as _json
    from pathlib import Path as _Path

    from ..core.errors import MscclError
    from ..core.interop import import_xml_file, resolve_collective

    try:
        ir = import_xml_file(args.file)
    except (OSError, MscclError) as exc:
        raise SystemExit(f"cannot import {args.file}: {exc}")
    try:
        coll = resolve_collective(ir)
    except MscclError as exc:
        raise SystemExit(
            f"cannot resolve collective semantics for {args.file}: {exc}"
        )
    payload = {
        "file": str(args.file),
        "algorithm": ir.name,
        "collective": coll.name,
        "ranks": ir.num_ranks,
        "protocol": ir.protocol,
        "threadblocks": ir.threadblock_count(),
    }
    if args.format == "xml":
        print(ir.to_xml())
    elif args.format == "json":
        print(ir.to_json(indent=2))
    else:
        print(describe_ir(ir))
        print(f"# resolved collective: {coll.name}", file=sys.stderr)

    if args.check:
        IrExecutor(ir, coll).run_and_check()
        payload["check"] = "passed"
        print("# data check passed", file=sys.stderr)

    topology = generic(ir.num_ranks)
    size = parse_size(args.size)
    chunk_bytes = chunk_bytes_for(size, coll.sizing_chunks())

    if args.simulate:
        result = IrSimulator(ir, topology).run(chunk_bytes=chunk_bytes)
        payload["simulate"] = {
            "size_bytes": size,
            "time_us": result.time_us,
            "algbw_gbps": result.algbw_gbps(size),
        }
        print(f"{ir.name} on {topology!r}")
        print(f"  buffer: {format_size(size)}  latency: "
              f"{result.time_us:.1f} us  algbw: "
              f"{result.algbw_gbps(size):.1f} GB/s  "
              f"tiles: {result.tiles}")

    if args.diagnose:
        result = IrSimulator(
            ir, topology, config=SimConfig(collect_trace=True)
        ).run(chunk_bytes=chunk_bytes)
        diag = diagnose(result)
        print(f"\n== diagnosis ({format_size(size)}) ==")
        print(diagnose_text(diag, top=args.top))
        payload["diagnose"] = diagnosis_dict(diag)

    failures = 0
    if args.conform:
        from ..conformance import ConformanceConfig, run_conformance

        report = run_conformance(ir, ConformanceConfig(
            seeds=args.seeds, topology=topology,
        ), collective=coll)
        print(report.text())
        payload["conform"] = report.to_dict()
        if not report.ok:
            failures += 1

    if args.json:
        _Path(args.json).write_text(_json.dumps(payload, indent=2))
        print(f"# import report written to {args.json}", file=sys.stderr)
    return 1 if failures else 0


def _report(args) -> int:
    from pathlib import Path

    from ..analysis.report import build_report

    if args.results is not None:
        results_dir = Path(args.results)
    else:
        results_dir = (
            Path(__file__).resolve().parents[3]
            / "benchmarks" / "results"
        )
    print(build_report(results_dir, include_audit=not args.no_audit,
                       jobs=args.jobs))
    return 0


def _sweep(args) -> int:
    topology = build_topology(args)
    program = build_algorithm(args)
    tracer = Tracer()
    algo = compile_program(program, CompilerOptions(
        max_threadblocks=topology.machine.sm_count,
        cache=default_compile_cache(), trace=tracer,
    ))
    sizes = size_grid(parse_size(args.min_size),
                      parse_size(args.max_size))
    timer = ir_timer(algo, topology, program.collective)
    result = run_sweep(program.name, sizes, {program.name: timer},
                       jobs=args.jobs, tracer=tracer)
    times = result.series[program.name].times_us
    nccl = NcclModel(topology) if args.vs_nccl else None
    header = f"{'size':>8s} {'us':>12s}"
    if nccl:
        header += f" {'nccl us':>12s} {'speedup':>8s}"
    print(header)
    for size, elapsed in zip(sizes, times):
        row = f"{format_size(size):>8s} {elapsed:>12.1f}"
        if nccl:
            base = nccl.allreduce_time(size).time_us
            row += f" {base:>12.1f} {base / elapsed:>7.2f}x"
        print(row)

    metrics = metrics_dict(tracer)
    cache = metrics["compile_cache"]
    line = (f"# compile cache: {cache['hits']} hit(s), "
            f"{cache['misses']} miss(es)")
    disk = cache.get("disk")
    if disk:
        line += (f"; disk tier: {disk['hits']} hit(s), "
                 f"{disk['entries']} file(s)")
    print(line, file=sys.stderr)
    workers = metrics.get("workers")
    if workers:
        print(f"# workers: {workers['parallel_tasks']} of "
              f"{workers['tasks']} task(s) in {workers['max_jobs']} "
              f"job(s), {workers['utilization']:.0%} busy",
              file=sys.stderr)
    return 0


def _serve(args) -> int:
    import asyncio

    from ..serve import PlanService

    service = PlanService(
        autotune=not args.no_autotune,
        tune_jobs=args.tune_jobs,
    )

    async def run():
        await service.start(args.host, args.port)
        host, port = service.address
        print(f"# plan service listening on {host}:{port}",
              file=sys.stderr)
        await service.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("# interrupted; plan service stopped", file=sys.stderr)
    stats = service.stats()["serve"]
    print(f"# served {stats['requests']} request(s): "
          f"{stats['plan_hits']} table hit(s), "
          f"{stats['dedup_inflight']} deduplicated in flight, "
          f"{stats['promotions']} promotion(s)", file=sys.stderr)
    return 0


def _plan(args) -> int:
    import json as _json

    from ..serve import PlanServiceError, SyncPlanClient

    client = SyncPlanClient(args.host, args.port)
    try:
        if args.stats:
            stats = client.stats()
        elif args.shutdown:
            client.shutdown()
        else:
            plan = client.plan(
                args.collective, parse_size(args.size),
                topology=args.topology, nodes=args.nodes,
                gpus_per_node=args.gpus_per_node,
                protocol=args.protocol, include_xml=args.xml,
            )
    except (PlanServiceError, ConnectionRefusedError, OSError) as exc:
        raise SystemExit(
            f"cannot reach plan service at {args.host}:{args.port}: "
            f"{exc}")
    if args.stats:
        print(_json.dumps(stats, indent=2))
        return 0
    if args.shutdown:
        print("# service asked to shut down", file=sys.stderr)
        return 0
    if args.xml:
        print(plan["xml"])
        return 0
    predicted = plan.get("predicted_us")
    print(f"{plan['algorithm']}  ({plan['label']})")
    print(f"  collective: {plan['collective']}  ranks: {plan['ranks']}"
          f"  protocol: {plan['protocol']}")
    print(f"  origin: {plan['origin']}  tuned: {plan['tuned']}  "
          f"predicted: "
          f"{'n/a' if predicted is None else f'{predicted:.1f} us'}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tools",
        description="Compile, inspect, simulate, and trace MSCCLang "
                    "algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="emit MSCCL-IR")
    _add_common(compile_parser)
    compile_parser.add_argument(
        "--format", default="summary",
        choices=["summary", "xml", "json", "dot"],
    )
    compile_parser.add_argument(
        "--check", action="store_true",
        help="also execute on data and verify outputs",
    )
    compile_parser.set_defaults(func=_compile)

    sim_parser = sub.add_parser("simulate", help="time one buffer size")
    _add_common(sim_parser)
    sim_parser.add_argument("--size", default="1MB")
    sim_parser.set_defaults(func=_simulate)

    passes_parser = sub.add_parser(
        "passes",
        help="introspect the compiler pass pipeline (timings, "
             "validation, per-pass dumps)",
    )
    _add_common(passes_parser)
    passes_parser.add_argument(
        "--validate", action="store_true",
        help="re-check pass invariants after every pass "
             "(same as REPRO_VALIDATE_PASSES=1)",
    )
    passes_parser.add_argument(
        "--optimize", action="store_true",
        help="also run the post-scheduling optimization passes",
    )
    passes_parser.add_argument(
        "--no-fusion", action="store_true",
        help="disable the peephole fusion pass",
    )
    passes_parser.add_argument(
        "--dump-dir", default=None,
        help="write a per-pass IR / instruction-DAG snapshot into "
             "this directory",
    )
    passes_parser.set_defaults(func=_passes)

    trace_parser = sub.add_parser(
        "trace",
        help="compile + simulate with tracing; write a Chrome trace",
    )
    _add_common(trace_parser)
    trace_parser.add_argument("--size", default="1MB")
    trace_parser.add_argument(
        "--out", default=None,
        help="Chrome-trace JSON path (default: <algorithm>_trace.json)",
    )
    trace_parser.add_argument(
        "--metrics", default=None,
        help="also write the metrics dict as JSON to this path",
    )
    trace_parser.add_argument(
        "--depth", type=int, default=2,
        help="max depth of the printed span summary tree",
    )
    trace_parser.set_defaults(func=_trace)

    diagnose_parser = sub.add_parser(
        "diagnose",
        help="bottleneck attribution from the execution graph",
    )
    _add_common(diagnose_parser)
    diagnose_parser.add_argument("--size", default="1MB")
    diagnose_parser.add_argument(
        "--top", type=int, default=8,
        help="how many critical-path intervals to print",
    )
    diagnose_parser.add_argument(
        "--chunk", default=None, metavar="RANK:BUFFER:INDEX",
        help="also print this chunk's hop-by-hop journey "
             "(e.g. 0:input:0)",
    )
    diagnose_parser.add_argument(
        "--json", default=None,
        help="write the diagnosis (attribution, hints, path) as JSON; "
             "name it *.diagnose.json to fold into `repro-tools report`",
    )
    diagnose_parser.set_defaults(func=_diagnose)

    conform_parser = sub.add_parser(
        "conform",
        help="differential conformance + fault injection for the "
             "runtime (exit nonzero on any witness)",
    )
    conform_parser.add_argument(
        "algorithm", nargs="?", default="all",
        help="algorithm name, or 'all' (default) for every "
             "registered algorithm",
    )
    conform_parser.add_argument("--ranks", type=int, default=8)
    conform_parser.add_argument("--nodes", type=int, default=1)
    conform_parser.add_argument("--channels", type=int, default=1)
    conform_parser.add_argument("--instances", type=int, default=1)
    conform_parser.add_argument("--protocol", default="Simple",
                                choices=["Simple", "LL", "LL128"])
    conform_parser.add_argument("--topology", default="generic",
                                choices=["generic", *PRESETS])
    conform_parser.add_argument(
        "--seeds", type=int, default=5,
        help="shuffled-schedule rounds per algorithm",
    )
    conform_parser.add_argument(
        "--elements", type=int, default=8,
        help="elements per chunk in the data-level executor",
    )
    conform_parser.add_argument(
        "--no-faults", action="store_true",
        help="skip the fault-injection plans",
    )
    conform_parser.add_argument(
        "--json", default=None,
        help="write all conformance reports as JSON to this path",
    )
    conform_parser.add_argument(
        "--witness-dir", default=None,
        help="write <algorithm>.witness.json here for every failing "
             "algorithm (CI artifact upload)",
    )
    conform_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for per-algorithm runs "
             "(default: $REPRO_JOBS or 1)",
    )
    conform_parser.set_defaults(func=_conform)

    import_parser = sub.add_parser(
        "import",
        help="load reference-dialect MSCCL XML and check / simulate / "
             "conform it",
    )
    import_parser.add_argument("file", help="path to an MSCCL XML file")
    import_parser.add_argument(
        "--format", default="summary",
        choices=["summary", "xml", "json"],
        help="how to print the imported IR (default: summary)",
    )
    import_parser.add_argument(
        "--check", action="store_true",
        help="execute on data and verify against the resolved "
             "collective's postcondition",
    )
    import_parser.add_argument(
        "--simulate", action="store_true",
        help="time the program on a generic topology",
    )
    import_parser.add_argument(
        "--conform", action="store_true",
        help="run the differential conformance harness "
             "(exit nonzero on any witness)",
    )
    import_parser.add_argument(
        "--diagnose", action="store_true",
        help="print the dependency-aware bottleneck diagnosis",
    )
    import_parser.add_argument("--size", default="1MB")
    import_parser.add_argument(
        "--seeds", type=int, default=5,
        help="shuffled-schedule rounds for --conform",
    )
    import_parser.add_argument(
        "--top", type=int, default=8,
        help="critical-path intervals printed by --diagnose",
    )
    import_parser.add_argument(
        "--json", default=None,
        help="write a machine-readable import report to this path",
    )
    import_parser.set_defaults(func=_import)

    report_parser = sub.add_parser(
        "report", help="assemble the evaluation report from results/"
    )
    report_parser.add_argument(
        "--results", default=None,
        help="results directory (default: benchmarks/results)",
    )
    report_parser.add_argument("--no-audit", action="store_true")
    report_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the efficiency audit "
             "(default: $REPRO_JOBS or 1)",
    )
    report_parser.set_defaults(func=_report)

    sweep_parser = sub.add_parser("sweep", help="time a size grid")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--min-size", default="1KB")
    sweep_parser.add_argument("--max-size", default="64MB")
    sweep_parser.add_argument("--vs-nccl", action="store_true",
                              help="compare against the NCCL AllReduce")
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the size grid "
             "(default: $REPRO_JOBS or 1)",
    )
    sweep_parser.set_defaults(func=_sweep)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compile-plan service (asyncio, shared-cache, "
             "background autotuning)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="TCP port (0 picks a free one)")
    serve_parser.add_argument(
        "--tune-jobs", type=int, default=None,
        help="worker processes for background autotuning "
             "(default: $REPRO_JOBS or 1)",
    )
    serve_parser.add_argument(
        "--no-autotune", action="store_true",
        help="serve provisional plans only; never tune in background",
    )
    serve_parser.set_defaults(func=_serve)

    plan_parser = sub.add_parser(
        "plan", help="ask a running plan service for a plan"
    )
    plan_parser.add_argument(
        "collective", nargs="?", default="allreduce",
        help="collective name (default: allreduce)",
    )
    plan_parser.add_argument("--host", default="127.0.0.1")
    plan_parser.add_argument("--port", type=int, default=8765)
    plan_parser.add_argument("--size", default="1MB")
    plan_parser.add_argument("--topology", default="ndv4",
                             choices=["generic", *PRESETS])
    plan_parser.add_argument("--nodes", type=int, default=1)
    plan_parser.add_argument("--gpus-per-node", type=int, default=8,
                             help="only used with --topology generic")
    plan_parser.add_argument("--protocol", default=None,
                             choices=["Simple", "LL", "LL128"])
    plan_parser.add_argument(
        "--xml", action="store_true",
        help="print the plan's MSCCL-IR XML instead of the summary",
    )
    plan_parser.add_argument(
        "--stats", action="store_true",
        help="print the service's stats JSON and exit",
    )
    plan_parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to shut down and exit",
    )
    plan_parser.set_defaults(func=_plan)

    args = parser.parse_args(argv)
    return args.func(args)
