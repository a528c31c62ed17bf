"""Schedule autotuning: automate the paper's manual optimization loop.

Section 7 repeatedly says "we tune the number of channels per ring,
parallelization, and protocol for the system" and that each program
"took 15 minutes to an hour to write and manually optimize". The
autotuner runs that loop automatically: give it a program *builder*
parameterized by (channels, instances, protocol), a topology, and a
size grid; it compiles every candidate the SM budget admits, simulates
each size, and returns the best configuration per size — optionally
packaged by :func:`plan_table` as a :class:`~repro.runtime.plans.
PlanTable` with contiguous size ranges, ready for the runtime's
dynamic selection.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cache import default_compile_cache
from ..core.compiler import CompilerOptions, compile_program
from ..core.errors import MscclError
from ..core.ir import MscclIr
from ..core.program import MSCCLProgram
from ..runtime.plans import Plan, PlanTable, chunk_bytes_for
from ..runtime.simulator import IrSimulator, SimConfig
from ..topology.model import Topology
from .parallel import parallel_map, resolve_jobs
from .sweep import IrTimer, _eval_point

# builder(channels=..., instances=..., protocol=...) -> MSCCLProgram
Builder = Callable[..., MSCCLProgram]


@dataclass(frozen=True)
class Candidate:
    """One point of the tuning space."""

    channels: int
    instances: int
    protocol: str

    @property
    def label(self) -> str:
        return (
            f"ch={self.channels} r={self.instances} {self.protocol}"
        )


@dataclass
class TuningResult:
    """Everything the sweep learned."""

    candidates: List[Candidate]
    sizes: List[int]
    # (candidate, size) -> simulated latency in us
    times: Dict[Tuple[Candidate, int], float]
    best: Dict[int, Candidate] = field(default_factory=dict)
    skipped: List[Tuple[Candidate, str]] = field(default_factory=list)
    # Chunks a call buffer divides into for the tuned collective;
    # plan_table stamps it onto every plan.
    sizing_chunks: int = 1
    # Every candidate that compiled, as its IR.
    compiled: Dict[Candidate, MscclIr] = field(default_factory=dict)

    @property
    def _compiled(self) -> Dict[Candidate, SimpleNamespace]:
        """``compiled`` in the ``[candidate].ir`` shape that
        perfbench/tune.py's reference check still reads."""
        return {candidate: SimpleNamespace(ir=ir)
                for candidate, ir in self.compiled.items()}

    def best_time(self, size: int) -> float:
        return self.times[(self.best[size], size)]

    def table(self) -> str:
        """Size -> winning configuration summary."""
        lines = [f"{'size (B)':>12s}  {'best config':<24s} {'us':>10s}"]
        for size in self.sizes:
            winner = self.best[size]
            lines.append(
                f"{size:>12d}  {winner.label:<24s} "
                f"{self.times[(winner, size)]:>10.1f}"
            )
        return "\n".join(lines)


def default_space(max_channels: int = 8,
                  max_instances: int = 24) -> List[Candidate]:
    """The grid the paper's tuning effectively explored."""
    channels = [c for c in (1, 2, 4, 8) if c <= max_channels]
    instances = [r for r in (1, 2, 4, 8, 16, 24) if r <= max_instances]
    protocols = ["LL", "LL128", "Simple"]
    return [
        Candidate(c, r, p)
        for c in channels for r in instances for p in protocols
    ]


def _compile_candidate(task):
    """Compile one tuning candidate; module-level for the worker pool.

    Runs in a worker process (or inline in the parent when the builder
    cannot pickle). Workers consult their own process-wide compile
    cache, and because they inherit ``REPRO_CACHE_DIR`` they share the
    persistent disk tier with the parent and each other — a candidate
    compiled by any worker is a disk hit everywhere else. Returns
    ``("ok", ir_json)`` or ``("skip", reason)``; the parent merges
    these back in candidate-space order, so the sharded compile phase
    is bitwise-identical to the sequential one.
    """
    builder, candidate, max_threadblocks = task
    options = CompilerOptions(max_threadblocks=max_threadblocks,
                              cache=default_compile_cache())
    try:
        program = builder(
            channels=candidate.channels,
            instances=candidate.instances,
            protocol=candidate.protocol,
        )
        algo = compile_program(program, options)
    except MscclError as error:
        return "skip", str(error)
    return "ok", algo.ir.to_json()


def tune(builder: Builder, topology: Topology, sizes: Sequence[int],
         collective_sizing_chunks: int, *,
         space: Optional[List[Candidate]] = None,
         sim_config: Optional[SimConfig] = None,
         jobs: Optional[int] = None, tracer=None) -> TuningResult:
    """Explore the space and pick the fastest candidate per size.

    ``jobs`` > 1 (default: ``$REPRO_JOBS``, else 1) shards *both*
    phases across the worker pool: candidate compiles (workers share
    the persistent disk cache tier, so nothing compiles twice across
    the pool) and then the (candidate x size) simulations. Results
    merge in the sequential order — compile outcomes in
    candidate-space order; simulations sizes outer, candidates inner,
    first strictly-faster candidate winning — so the parallel
    :class:`TuningResult` is bitwise-identical to the sequential one.
    """
    space = space if space is not None else default_space()
    config = sim_config or SimConfig()
    jobs = resolve_jobs(jobs)
    result = TuningResult(candidates=[], sizes=list(sizes), times={},
                          sizing_chunks=collective_sizing_chunks)
    if jobs == 1:
        # Tuning loops re-run with overlapping candidate spaces; the
        # compile cache turns every previously-seen candidate into a
        # hit.
        options = CompilerOptions(
            max_threadblocks=topology.machine.sm_count,
            cache=default_compile_cache(),
        )
        for candidate in space:
            try:
                program = builder(
                    channels=candidate.channels,
                    instances=candidate.instances,
                    protocol=candidate.protocol,
                )
                result.compiled[candidate] = compile_program(
                    program, options).ir
                result.candidates.append(candidate)
            except MscclError as error:
                result.skipped.append((candidate, str(error)))
    else:
        tasks = [(builder, candidate, topology.machine.sm_count)
                 for candidate in space]
        outcomes = parallel_map(_compile_candidate, tasks, jobs=jobs,
                                tracer=tracer, label="tune.compile")
        for candidate, (status, payload) in zip(space, outcomes):
            if status == "ok":
                result.compiled[candidate] = MscclIr.from_json(payload)
                result.candidates.append(candidate)
            else:
                result.skipped.append((candidate, payload))

    if not result.compiled:
        raise ValueError(
            "no candidate configuration compiled; the space may exceed "
            "the SM budget everywhere"
        )

    if jobs == 1:
        times = {}
        for size in result.sizes:
            for candidate, ir in result.compiled.items():
                simulator = IrSimulator(ir, topology, config=config)
                times[(candidate, size)] = simulator.run(
                    chunk_bytes=chunk_bytes_for(
                        size, collective_sizing_chunks)
                ).time_us
    else:
        timers = {
            candidate: IrTimer(ir, topology, collective_sizing_chunks,
                               config)
            for candidate, ir in result.compiled.items()
        }
        tasks = [
            (timers[candidate], size)
            for size in result.sizes for candidate in result.candidates
        ]
        flat = iter(parallel_map(_eval_point, tasks, jobs=jobs,
                                 tracer=tracer, label="tune"))
        times = {
            (candidate, size): next(flat)
            for size in result.sizes for candidate in result.candidates
        }

    for size in result.sizes:
        best_candidate = None
        best_time = float("inf")
        for candidate in result.candidates:
            elapsed = times[(candidate, size)]
            result.times[(candidate, size)] = elapsed
            if elapsed < best_time:
                best_time = elapsed
                best_candidate = candidate
        result.best[size] = best_candidate
    return result


async def tune_async(builder: Builder, topology: Topology,
                     sizes: Sequence[int],
                     collective_sizing_chunks: int, *,
                     space: Optional[List[Candidate]] = None,
                     sim_config: Optional[SimConfig] = None,
                     jobs: Optional[int] = None, tracer=None,
                     executor=None) -> TuningResult:
    """:func:`tune` without blocking the event loop.

    The non-blocking entry point the plan service's background
    autotuner uses: the whole tuning run is handed to ``executor``
    (default: the loop's default thread pool), so an asyncio server
    keeps answering requests while candidates compile and simulate —
    including in worker processes when ``jobs`` > 1. Awaiting it yields
    the same bitwise-deterministic :class:`TuningResult` as the
    synchronous call.
    """
    loop = asyncio.get_running_loop()
    fn = functools.partial(
        tune, builder, topology, sizes, collective_sizing_chunks,
        space=space, sim_config=sim_config, jobs=jobs, tracer=tracer,
    )
    return await loop.run_in_executor(executor, fn)


def plan_table(result: TuningResult) -> PlanTable[Plan]:
    """Package the winners as contiguous size-range plans.

    Adjacent sizes won by the same candidate merge into one row; the
    rows tile every size, from 0 to infinity (see
    :meth:`PlanTable.tiled`).
    """
    return PlanTable.tiled(
        result.sizes, result.best.__getitem__,
        lambda winner, _first: Plan(result.compiled[winner],
                                    winner.label, result.sizing_chunks))
