"""Post-scheduling IR optimization passes.

The scheduler emits correct but occasionally redundant metadata; these
passes tighten it without changing semantics:

* :func:`prune_redundant_deps` — transitive reduction of cross-thread-
  block dependencies: a ``dep`` entry is redundant if another dependency
  (or the thread block's own program order, or an incoming communication
  edge) already guarantees the ordering. Fewer dep entries mean fewer
  semaphore waits in the interpreter.
* :func:`renumber_channels` — compact channel ids to a dense 0..n-1
  range (after channel probing they may be sparse).
* :func:`ir_stats` — before/after accounting for the passes.

All passes mutate the IR in place and return it, so they chain. The
default pipeline runs the first two, in that order, when compiled with
``CompilerOptions(optimize=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .ir import MscclIr


def _completion_order(ir: MscclIr):
    """For each rank, a map (tb, step) -> set of (tb, step) known-done.

    Conservative happens-before within one rank: program order inside a
    thread block plus the transitive closure through explicit deps.
    Communication edges are cross-rank and cannot order two same-rank
    instructions by themselves, so they are ignored here (safe: we only
    *keep* deps that are not provably redundant).
    """
    orders = {}
    for gpu in ir.gpus:
        # done[(tb, step)] = set of (tb, step) guaranteed complete when
        # this instruction starts.
        done: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        # Iterate in a topological order over (program order + deps).
        pending = {
            (tb.tb_id, instr.step): instr
            for tb in gpu.threadblocks for instr in tb.instructions
        }
        resolved: Set[Tuple[int, int]] = set()
        progress = True
        while pending and progress:
            progress = False
            for key in sorted(pending):
                tb_id, step = key
                instr = pending[key]
                preds = set()
                if step > 0:
                    prev = (tb_id, step - 1)
                    if prev in pending:
                        continue  # wait for predecessor resolution
                    preds.add(prev)
                    preds |= done.get(prev, set())
                blocked = False
                for dep in instr.depends:
                    dep_key = tuple(dep)
                    if dep_key in pending:
                        blocked = True
                        break
                    preds.add(dep_key)
                    preds |= done.get(dep_key, set())
                if blocked:
                    continue
                done[key] = preds
                resolved.add(key)
                del pending[key]
                progress = True
        orders[gpu.rank] = done
    return orders


def prune_redundant_deps(ir: MscclIr) -> MscclIr:
    """Drop dep entries already implied by other ordering edges."""
    orders = _completion_order(ir)
    for gpu in ir.gpus:
        done = orders[gpu.rank]
        for tb in gpu.threadblocks:
            for instr in tb.instructions:
                if not instr.depends:
                    continue
                key = (tb.tb_id, instr.step)
                kept: List[Tuple[int, int]] = []
                for index, dep in enumerate(instr.depends):
                    others: Set[Tuple[int, int]] = set()
                    if instr.step > 0:
                        prev = (tb.tb_id, instr.step - 1)
                        others.add(prev)
                        others |= done.get(prev, set())
                    for j, other in enumerate(instr.depends):
                        if j != index:
                            other_key = tuple(other)
                            others.add(other_key)
                            others |= done.get(other_key, set())
                    if tuple(dep) not in others:
                        kept.append(tuple(dep))
                instr.depends = kept
    _refresh_has_dep(ir)
    return ir


def _refresh_has_dep(ir: MscclIr) -> None:
    """Recompute has_dep flags after dep edits."""
    flagged: Set[Tuple[int, int, int]] = set()
    for gpu in ir.gpus:
        for tb in gpu.threadblocks:
            for instr in tb.instructions:
                for dep_tb, dep_step in instr.depends:
                    flagged.add((gpu.rank, dep_tb, dep_step))
    for gpu in ir.gpus:
        for tb in gpu.threadblocks:
            for instr in tb.instructions:
                instr.has_dep = (
                    (gpu.rank, tb.tb_id, instr.step) in flagged
                )


def renumber_channels(ir: MscclIr) -> MscclIr:
    """Compact channel numbers to 0..n-1 preserving relative order."""
    used = sorted({
        tb.channel for gpu in ir.gpus for tb in gpu.threadblocks
    })
    mapping = {channel: index for index, channel in enumerate(used)}
    for gpu in ir.gpus:
        for tb in gpu.threadblocks:
            tb.channel = mapping[tb.channel]
    return ir


def ir_stats(ir: MscclIr) -> Dict[str, int]:
    """Counters the passes aim to reduce."""
    dep_entries = sum(
        len(instr.depends)
        for gpu in ir.gpus
        for tb in gpu.threadblocks
        for instr in tb.instructions
    )
    flagged = sum(
        1
        for gpu in ir.gpus
        for tb in gpu.threadblocks
        for instr in tb.instructions
        if instr.has_dep
    )
    return {
        "instructions": ir.instruction_count(),
        "threadblocks": ir.threadblock_count(),
        "channels": ir.channels_used(),
        "dep_entries": dep_entries,
        "has_dep_flags": flagged,
    }

