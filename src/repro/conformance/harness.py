"""The differential conformance + fault-injection harness.

:func:`run_conformance` takes a compiled algorithm and stress-tests the
two runtimes against each other:

* **Order invariance** — the executor is run under
  randomized-but-seeded thread-block sweep orders; a race-free IR's
  output must be *bitwise* identical under every order, because the
  data each instruction computes depends only on the dataflow (fixed
  per-thread-block program order plus sequence-tagged FIFO messages),
  never on which runnable block the scheduler happened to service
  first.
* **FIFO pop justification** — every executor FIFO pop (which send's
  payload a receive consumed) must correspond to a ``fifo``
  happens-before edge recorded by the simulator's
  :class:`~repro.observe.ExecutionGraph`; a pop with no matching edge
  means the two runtimes disagree about the message pairing — a race
  witness.
* **Engine parity** — an untraced run of the simulator's batched
  engine (the generated per-shape tasks that sweeps, tuning and the
  plan service run) must produce a bitwise-identical
  :class:`~repro.runtime.SimResult` to the reference generator loop on
  this IR; any divergence is an ``engine-parity`` witness.
* **Race scan** — conflicting buffer accesses unordered by the IR's
  dependence graph (:mod:`repro.conformance.races`), which names the
  exact racing instruction pair.
* **Fault injection** — perturbed FIFO slot windows, delayed
  deliveries, dropped-then-retried sends, and semaphore skew
  (:class:`~repro.runtime.FaultPlan`). Every fault is a legal timing
  perturbation, so each run must either complete with bitwise-correct
  data or raise a typed :class:`~repro.core.errors.DeadlockError` —
  and a slot window the deadlock audit itself accepts must never
  deadlock.

Failures come back as minimized :class:`~repro.conformance.Witness`
objects; :func:`check_conformance` raises a
:class:`~repro.core.errors.ConformanceError` carrying them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import (ConformanceError, DeadlockError, MscclError,
                           VerificationError)
from ..core.ir import MscclIr
from ..core.verification import audit_ir
from ..runtime.executor import FaultPlan, IrExecutor
from ..runtime.simulator import (IrSimulator, SimConfig,
                                 happens_before_pairs, sim_parity_diffs)
from ..topology import generic
from .races import find_races
from .witness import (ConformanceReport, TbKey, Witness, displaced_blocks,
                      minimize_order)


@dataclass
class ConformanceConfig:
    """Knobs for one conformance run."""

    seeds: int = 5  # shuffled-schedule rounds
    elements_per_chunk: int = 8
    data_seed: int = 1234  # input data; fixed so outputs are comparable
    check_order_invariance: bool = True
    check_fifo_edges: bool = True
    check_engine_parity: bool = True
    check_races: bool = True
    inject_faults: bool = True
    topology: Optional[object] = field(default=None, repr=False)
    num_slots: int = 8  # FIFO depth the deadlock audit assumed
    max_minimize_trials: int = 48
    max_witnesses: int = 8


def shuffled_order(seed: int, keys: Sequence[TbKey]) -> List[TbKey]:
    """The seeded random sweep permutation used for round ``seed``."""
    perm = list(keys)
    random.Random(seed).shuffle(perm)
    return perm


def _constant_order(perm: Sequence[TbKey]):
    """A sweep-order hook servicing thread blocks in one fixed order."""
    perm = list(perm)
    return lambda sweep_index, keys: perm


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _send_space(ir: MscclIr) -> List[Tuple[int, int, int, int]]:
    """Every (src, dst, channel, seq) message the IR sends."""
    from ..runtime.executor import SEND_OPS

    counters: Dict[Tuple[int, int, int], int] = {}
    sends: List[Tuple[int, int, int, int]] = []
    for gpu in ir.gpus:
        for tb in gpu.threadblocks:
            for instr in tb.instructions:
                if instr.op in SEND_OPS:
                    conn = (gpu.rank, tb.send_peer, tb.channel)
                    seq = counters.get(conn, 0)
                    counters[conn] = seq + 1
                    sends.append((*conn, seq))
    return sends


def _fault_plans(ir: MscclIr, cfg: ConformanceConfig):
    """The fault matrix: (label, plan, deadlock_acceptable) triples.

    A reduced slot window is only allowed to deadlock when the static
    audit *also* rejects that window — if ``audit_ir`` proves the IR
    cycle-free at ``k`` slots, the executor must complete at ``k``
    slots too.
    """
    plans = []
    for slots in (1, 2, cfg.num_slots):
        try:
            audit_ir(ir, num_slots=slots)
            may_deadlock = False
        except DeadlockError:
            may_deadlock = True
        plans.append((f"fifo_slots={slots}", FaultPlan(fifo_slots=slots),
                      may_deadlock))
    for delay in (1, 3):
        plans.append((f"deliver_delay={delay}",
                      FaultPlan(deliver_delay=delay), False))
    sends = _send_space(ir)
    rng = random.Random(cfg.data_seed)
    if sends:
        for round_index in range(2):
            chosen = rng.sample(sends, min(3, len(sends)))
            drops = {key: rng.randint(1, 2) for key in chosen}
            plans.append((f"dropped sends #{round_index}",
                          FaultPlan(drop_sends=drops), False))
    for skew in (1, 2):
        plans.append((f"semaphore_skew={skew}",
                      FaultPlan(semaphore_skew=skew), False))
    combined = FaultPlan(
        fifo_slots=cfg.num_slots, deliver_delay=1, semaphore_skew=1,
        drop_sends={sends[0]: 1} if sends else {},
    )
    plans.append(("combined", combined, False))
    return plans


def run_conformance(algo, config: Optional[ConformanceConfig] = None, *,
                    collective=None) -> ConformanceReport:
    """Differentially test one compiled algorithm; returns the report.

    ``algo`` is a :class:`~repro.core.CompiledAlgorithm` (or anything
    with ``.ir``/``.collective``; a raw :class:`MscclIr` works when
    ``collective`` is passed explicitly). When neither supplies a real
    :class:`~repro.core.Collective` — a raw IR's ``.collective`` is
    just a name string, the usual case for imported XML — one is
    resolved via :func:`repro.core.interop.resolve_collective`: a
    standard collective reconstructed from the name when possible,
    otherwise the IR's traced program-order semantics, which is exactly
    the oracle the differential checks below need.
    """
    ir = getattr(algo, "ir", algo)
    coll = collective if collective is not None \
        else getattr(algo, "collective", None)
    if coll is None or isinstance(coll, str):
        from ..core.interop import resolve_collective
        coll = resolve_collective(ir)
    cfg = config or ConformanceConfig()
    report = ConformanceReport(algorithm=ir.name, seeds=cfg.seeds)
    keys = [(gpu.rank, tb.tb_id) for gpu in ir.gpus
            for tb in gpu.threadblocks]

    def new_executor() -> IrExecutor:
        return IrExecutor(ir, coll,
                          elements_per_chunk=cfg.elements_per_chunk,
                          seed=cfg.data_seed)

    def snapshot(executor: IrExecutor):
        return {key: array.copy()
                for key, array in executor.buffers.items()}

    def state_equal(a, b) -> bool:
        return all(np.array_equal(a[key], b[key], equal_nan=True)
                   for key in a)

    def full() -> bool:
        return len(report.witnesses) >= cfg.max_witnesses

    # -- baseline: program order, no faults ---------------------------
    base = new_executor()
    try:
        base.run()
    except MscclError as exc:
        report.witnesses.append(Witness(
            "baseline", f"program-order run failed: {_first_line(exc)}"
        ))
        return report  # nothing to differ against
    report.add_round("baseline")
    base_state = snapshot(base)
    try:
        base.check()
    except VerificationError as exc:
        report.witnesses.append(Witness(
            "postcondition", _first_line(exc)
        ))

    # -- static race scan over the baseline access log ----------------
    race_pair = None
    if cfg.check_races:
        report.add_round("race-scan")
        for node_a, node_b, location in find_races(
                ir, base.access_log, cfg.num_slots,
                limit=cfg.max_witnesses):
            if race_pair is None:
                race_pair = (node_a, node_b)
            if not full():
                report.witnesses.append(Witness(
                    "race",
                    f"unordered conflicting accesses to {location}",
                    pair=(node_a, node_b),
                ))

    # -- the simulator's happens-before relation ----------------------
    fifo_pairs = None
    if cfg.check_fifo_edges:
        topology = cfg.topology or generic(ir.num_ranks, 1)
        graph = IrSimulator(ir, topology).execution_graph()
        fifo_pairs = happens_before_pairs(graph)["fifo"]
        _check_pops(base, fifo_pairs, report, seed=None, full=full)

    # -- batched vs reference simulator engine parity ------------------
    # The batched engine's contract is bitwise identity with the
    # reference loop. Both runs are untraced (a traced run always
    # executes on the reference engine), so every algorithm that goes
    # through conformance certifies the generated tasks that ship.
    if cfg.check_engine_parity:
        topology = cfg.topology or generic(ir.num_ranks, 1)
        report.add_round("engine-parity")
        runs = {
            engine: IrSimulator(ir, topology, None,
                                SimConfig(engine=engine)
                                ).run(chunk_bytes=65536.0)
            for engine in ("batched", "reference")
        }
        for diff in sim_parity_diffs(runs["batched"], runs["reference"]):
            if not full():
                report.witnesses.append(Witness("engine-parity", diff))

    def run_with(perm, faults=None) -> IrExecutor:
        executor = new_executor()
        executor.run(order=_constant_order(perm) if perm else None,
                     faults=faults)
        return executor

    def order_fails(perm) -> bool:
        try:
            executor = run_with(perm)
        except MscclError:
            return True
        return not state_equal(snapshot(executor), base_state)

    def minimized_witness(kind, detail, seed, perm) -> Witness:
        reduced = minimize_order(keys, perm, order_fails,
                                 cfg.max_minimize_trials)
        return Witness(kind, detail, seed=seed, schedule=reduced,
                       displaced=displaced_blocks(keys, reduced),
                       pair=race_pair)

    # -- order invariance under shuffled sweep schedules --------------
    if cfg.check_order_invariance:
        for seed in range(cfg.seeds):
            if full():
                break
            perm = shuffled_order(seed, keys)
            report.add_round("order")
            try:
                executor = run_with(perm)
            except MscclError as exc:
                report.witnesses.append(minimized_witness(
                    "order-variance",
                    f"shuffled schedule failed: {_first_line(exc)}",
                    seed, perm,
                ))
                continue
            if fifo_pairs is not None:
                _check_pops(executor, fifo_pairs, report, seed=seed,
                            full=full)
            if not state_equal(snapshot(executor), base_state):
                report.witnesses.append(minimized_witness(
                    "order-variance",
                    "outputs differ from the program-order run",
                    seed, perm,
                ))

    # -- fault injection ----------------------------------------------
    if cfg.inject_faults:
        for plan_index, (label, plan, may_deadlock) in enumerate(
                _fault_plans(ir, cfg)):
            if full():
                break
            perm = shuffled_order(plan_index, keys)
            report.add_round("faults")
            try:
                executor = run_with(perm, faults=plan)
            except DeadlockError as exc:
                if may_deadlock:
                    report.add_round("fault-deadlock-accepted")
                else:
                    report.witnesses.append(Witness(
                        "fault",
                        f"{label}: unexpected deadlock: "
                        f"{_first_line(exc)}",
                        seed=plan_index, faults=plan.describe(),
                        pair=race_pair,
                    ))
                continue
            except MscclError as exc:
                report.witnesses.append(Witness(
                    "fault", f"{label}: {_first_line(exc)}",
                    seed=plan_index, faults=plan.describe(),
                    pair=race_pair,
                ))
                continue
            if not state_equal(snapshot(executor), base_state):
                report.witnesses.append(Witness(
                    "fault",
                    f"{label}: outputs differ from the fault-free run",
                    seed=plan_index, faults=plan.describe(),
                    pair=race_pair,
                ))

    return report


def _check_pops(executor: IrExecutor, fifo_pairs, report, seed,
                full) -> None:
    """Every executor FIFO pop must match a simulator ``fifo`` edge."""
    report.add_round("pop-check", len(executor.pop_log))
    for pop in executor.pop_log:
        justified = (pop.producer is not None
                     and (pop.producer, pop.consumer) in fifo_pairs)
        if justified:
            continue
        if not full():
            src, dst, channel = pop.conn
            report.witnesses.append(Witness(
                "unjustified-pop",
                f"FIFO pop of seq {pop.seq} on {src}->{dst} "
                f"ch{channel} has no matching simulator "
                f"happens-before edge",
                seed=seed,
                pair=((pop.producer, pop.consumer)
                      if pop.producer is not None else None),
            ))
        return  # one witness per run is enough; avoid flooding


def check_conformance(algo, config: Optional[ConformanceConfig] = None,
                      *, collective=None) -> ConformanceReport:
    """:func:`run_conformance`, raising on any witness."""
    report = run_conformance(algo, config, collective=collective)
    if not report.ok:
        details = "\n".join(
            f"  {witness.summary()}" for witness in report.witnesses
        )
        raise ConformanceError(
            f"{report.algorithm}: {len(report.witnesses)} conformance "
            f"witness(es):\n{details}",
            witnesses=report.witnesses,
        )
    return report
