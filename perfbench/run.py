"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-zoo --seed 1 \\
        --seconds 20 --trace 0

Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``. Exits 1 when an output check
failed and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile-zoo", "tune-family", "serve-open")

# Environment knobs of the program that would change what is measured.
CLEARED_ENV = ("REPRO_VALIDATE_PASSES", "REPRO_SIM_REFERENCE",
               "REPRO_SIM_INTERP", "REPRO_CACHE_MAX_BYTES")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import ``repro`` from this checkout's sources, never elsewhere;
    returns why it cannot, or None."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program sources under {src}"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}"
    return None


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()

    from perfbench import serve, tune, zoo
    from perfbench.common import Context, peak_rss_mb
    from perfbench.spans import Recorder
    from repro.core.cache import reset_default_compile_cache
    from repro.serve.stats import reset_serve_stats

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    # Isolation: a private cache directory for this run (inherited by
    # the service child), fresh process-wide cache and serve counters.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["REPRO_JOBS"] = "1"
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    reset_default_compile_cache()
    reset_serve_stats()

    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  workdir=workdir,
                  recorder=Recorder() if args.trace else None)
    module = {"compile-zoo": zoo, "tune-family": tune,
              "serve-open": serve}[args.workload]
    try:
        measured = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        measured.setdefault("peak_rss_mb", peak_rss_mb(
            include_children=args.workload == "serve-open"))

    declared = per_layer if args.trace else end_to_end
    missing = sorted(set(declared) - set(measured))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    if ctx.recorder is not None:
        ctx.recorder.write(
            scratch / f"spans-{args.workload}-{args.seed}.json")
    # A run that attempted nothing checked nothing: not correct.
    correct = ctx.failed == 0 and ctx.attempted > 0
    _report(ctx, measured, declared)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {name: {"value": float(measured[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


def _report(ctx, measured, declared) -> None:
    print(f"# {ctx.workload} seed={ctx.seed} trace={int(ctx.trace)} "
          f"attempted={ctx.attempted} failed={ctx.failed}")
    for failure in ctx.failures:
        print(f"# FAILED {failure}")
    for name, value in sorted(ctx.details.items()):
        print(f"#   {name}: {json.dumps(value, default=str)}")
    for name, unit in declared.items():
        print(f"{name:32s} {measured[name]:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
