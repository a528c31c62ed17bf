"""An NCCL-like communicator facade over the simulated runtime.

The paper's runtime "is API-compatible with NCCL allowing existing ML
workloads to easily convert" and "dynamically selects the right
algorithm to invoke based on user configurable size ranges and falls
back to NCCL's built-in algorithms otherwise" (section 6). This module
provides that surface for the simulator: a :class:`Communicator` with
``all_reduce`` / ``all_to_all`` / ``all_gather`` calls that select a
registered MSCCLang program by buffer size, simulate it, and fall back
to the NCCL model when nothing better is registered.

Registration takes the :class:`~repro.core.compiler.CompiledAlgorithm`
handle returned by ``compile_program``::

    algo = compile_program(program)
    comm.register(algo, max_bytes=2 * MiB, label="ring-ll")

A tuned :class:`~repro.runtime.plans.PlanTable` mounts whole with
``comm.register_table("allreduce", plan_table(result))``.

The legacy ``register(ir, collective)`` pair was removed after its
deprecation cycle; pass the handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.compiler import CompiledAlgorithm
from ..core.errors import RuntimeConfigError
from ..nccl.selector import NcclModel
from ..topology.model import Topology
from .plans import Plan, PlanTable, chunk_bytes_for
from .simulator import IrSimulator, SimConfig, SimResult


@dataclass
class CallRecord:
    """One collective invocation, for profiling-style introspection."""

    collective: str
    buffer_bytes: float
    algorithm: str
    time_us: float


@dataclass
class Communicator:
    """Simulated NCCL-compatible communicator on a topology.

    Register tuned MSCCLang programs with :meth:`register`; collective
    calls select by size and fall back to the NCCL baseline. Every call
    is recorded in :attr:`history` with the algorithm used and its
    simulated latency, so workload traces can be replayed and audited;
    :meth:`summary` aggregates that history per collective.
    """

    topology: Topology
    sim_config: SimConfig = field(default_factory=SimConfig)
    history: List[CallRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._tables: Dict[str, PlanTable[Plan]] = {}
        self._nccl = NcclModel(self.topology, self.sim_config)

    @property
    def num_ranks(self) -> int:
        return self.topology.num_ranks

    # -- registration ----------------------------------------------------
    def register(self, algorithm: CompiledAlgorithm, *,
                 min_bytes: float = 0.0,
                 max_bytes: float = float("inf"),
                 label: str = "") -> PlanTable[Plan]:
        """Register a compiled algorithm for a buffer-size range.

        ``algorithm`` is the :class:`CompiledAlgorithm` from
        ``compile_program`` — one object carrying the IR and its
        collective, whose sizing the plan takes. (The pre-PR-1
        ``register(ir, collective)`` pair is gone; positional extras now
        raise ``TypeError``.) Returns the collective's new table: the
        old one with this row appended, so earlier rows still win.
        """
        if not isinstance(algorithm, CompiledAlgorithm):
            raise RuntimeConfigError(
                "register() needs the CompiledAlgorithm returned by "
                "compile_program (bare MscclIr registration was removed "
                "with the deprecated (ir, collective) pair)"
            )
        ir = algorithm.ir
        plan = Plan(ir, label or ir.name, algorithm.sizing_chunks())
        self._check_plan(ir.collective, plan)
        table = self._tables.get(ir.collective, PlanTable()).appended(
            plan, min_bytes=min_bytes, max_bytes=max_bytes)
        self._tables[ir.collective] = table
        return table

    def register_table(self, collective: str,
                       table: PlanTable[Plan]) -> None:
        """Serve ``collective`` from a whole table (e.g. the autotuner's
        :func:`~repro.analysis.autotune.plan_table`), replacing any
        earlier registrations for it. Every row gets the checks
        :meth:`register` makes, so a mismatched table fails here and
        not at its first call."""
        for _min_bytes, _max_bytes, plan in table.rows:
            self._check_plan(collective, plan)
        self._tables[collective] = table

    def _check_plan(self, collective: str, plan: Plan) -> None:
        ir = plan.ir
        if ir.collective != collective:
            raise RuntimeConfigError(
                f"plan {plan.label!r} implements {ir.collective!r}, "
                f"not {collective!r}"
            )
        if ir.num_ranks != self.num_ranks:
            raise RuntimeConfigError(
                f"program has {ir.num_ranks} ranks, communicator has "
                f"{self.num_ranks}"
            )

    # -- collective calls ---------------------------------------------------
    def all_reduce(self, buffer_bytes: float) -> SimResult:
        return self._call("allreduce", buffer_bytes,
                          fallback=self._nccl.allreduce_time)

    def all_to_all(self, buffer_bytes: float) -> SimResult:
        return self._call("alltoall", buffer_bytes,
                          fallback=self._nccl.alltoall_time)

    def all_gather(self, buffer_bytes: float) -> SimResult:
        return self._call("allgather", buffer_bytes, fallback=None)

    def reduce_scatter(self, buffer_bytes: float) -> SimResult:
        return self._call("reducescatter", buffer_bytes, fallback=None)

    def _call(self, collective: str, buffer_bytes: float,
              fallback) -> SimResult:
        table = self._tables.get(collective)
        plan = None if table is None else table.select(buffer_bytes)
        if plan is not None:
            simulator = IrSimulator(plan.ir, self.topology,
                                    config=self.sim_config)
            result = simulator.run(chunk_bytes=chunk_bytes_for(
                buffer_bytes, plan.sizing_chunks))
            label = plan.label
        elif fallback is not None:
            result = fallback(buffer_bytes)
            label = "nccl-fallback"
        else:
            raise RuntimeConfigError(
                f"no algorithm registered for {collective} at "
                f"{buffer_bytes} bytes and NCCL has no built-in here"
            )
        self.history.append(CallRecord(
            collective=collective, buffer_bytes=buffer_bytes,
            algorithm=label, time_us=result.time_us,
        ))
        return result

    # -- introspection ------------------------------------------------------
    def total_time_us(self) -> float:
        return sum(record.time_us for record in self.history)

    def summary(self) -> Dict[str, Dict]:
        """Structured history: per-collective call counts, simulated
        time, and the per-algorithm breakdown::

            {"allreduce": {"calls": 3, "total_us": 812.5,
                           "algorithms": {"ring-ll": {...}, ...}}}
        """
        out: Dict[str, Dict] = {}
        for record in self.history:
            coll = out.setdefault(record.collective, {
                "calls": 0, "total_us": 0.0, "algorithms": {},
            })
            coll["calls"] += 1
            coll["total_us"] += record.time_us
            algo = coll["algorithms"].setdefault(record.algorithm, {
                "calls": 0, "total_us": 0.0,
            })
            algo["calls"] += 1
            algo["total_us"] += record.time_us
        return out

    def summary_text(self) -> str:
        """Per-algorithm call counts and cumulative time, as a table."""
        lines = [f"{'collective':<14s} {'algorithm':<28s} "
                 f"{'calls':>6s} {'total us':>12s}"]
        for collective, coll in sorted(self.summary().items()):
            for label, algo in sorted(coll["algorithms"].items()):
                lines.append(
                    f"{collective:<14s} {label:<28s} "
                    f"{algo['calls']:>6d} {algo['total_us']:>12.1f}"
                )
        return "\n".join(lines)
