"""Lowering: expand the Chunk DAG into the Instruction DAG.

Each chunk operation becomes one local instruction or a send/recv pair
(paper section 4.2). Parallelized operations (``parallelize`` regions
and whole-program ``instances``) are replicated here: instance *k* of
*S* owns the elements ``[k/S, (k+1)/S)`` of every chunk it touches, so
instances partition the data exactly.

Dependencies are recomputed at instruction granularity by tracking,
per location, which elements each writer and reader still holds. The
arithmetic is on integers: a program fixes one common denominator
``D``, the lcm of every chunk op's instance count, and instance *k* of
*S* owns the units ``[k*D/S, (k+1)*D/S)`` of the ``D`` equal units of
a chunk. The tracker keeps each access's not yet overwritten units as
a bitmask, so overlap is ``a & b`` and overwriting is ``a & ~b``. That
yields exact true/false edges even when differently-parallelized
phases interact (e.g. a 2-way parallelized intra-node phase feeding an
unparallelized inter-node phase). Instructions carry only their
``instance``; the scheduler turns it into the IR's fractions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .buffers import Buffer
from .dag import ChunkDAG, ChunkOp
from .errors import ProgramError
from .instructions import Instruction, InstructionDAG, LocalSpan, Op


def _units(lo: int, hi: int) -> int:
    """The bitmask of units [lo, hi)."""
    return ((1 << (hi - lo)) - 1) << lo


class _LocationTracker:
    """Last-writer / readers-since-write bookkeeping.

    Every (rank, buffer) owns a flat list of cells indexed by chunk
    index. A cell is ``[writers, readers]``, each a dict from
    instruction id to the units it still holds at that location, in
    access order.
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[int, Buffer], List[list]] = {}
        # instr_id -> number of write cells not yet fully overwritten.
        self.pending_cells: Dict[int, int] = {}

    def _span_cells(self, rank: int, span: LocalSpan) -> List[list]:
        buffer, index, count = span
        cells = self._cells.get((rank, buffer))
        if cells is None:
            cells = self._cells[(rank, buffer)] = []
        end = index + count
        if len(cells) < end:
            cells.extend([{}, {}] for _ in range(end - len(cells)))
        return cells[index:end]

    def record(self, instr: Instruction, units: int) -> None:
        """Register an instruction's reads, then its writes, of the
        given units of every chunk it touches."""
        instr_id = instr.instr_id
        deps = instr.deps
        for span in instr.read_spans():
            for cell in self._span_cells(instr.rank, span):
                for writer, held in cell[0].items():
                    if held & units and writer != instr_id:
                        deps.add(writer)
                        instr.true_deps.add(writer)
                cell[1][instr_id] = units
        for span in instr.write_spans():
            for cell in self._span_cells(instr.rank, span):
                writers = {}
                for writer, held in cell[0].items():
                    if held & units:
                        deps.add(writer)  # WAW
                        held &= ~units
                        if not held:
                            self.pending_cells[writer] -= 1
                            continue
                    writers[writer] = held
                writers[instr_id] = units
                readers = {}
                for reader, held in cell[1].items():
                    if held & units:
                        if reader != instr_id:
                            deps.add(reader)  # WAR
                        held &= ~units
                        if not held:
                            continue
                    readers[reader] = held
                cell[0] = writers
                cell[1] = readers
                self.pending_cells[instr_id] = (
                    self.pending_cells.get(instr_id, 0) + 1
                )


def lower(dag: ChunkDAG, instances: int = 1) -> InstructionDAG:
    """Expand a Chunk DAG into an Instruction DAG.

    ``instances`` is the whole-program parallelization factor (the
    paper's ``r``); ``parallelize`` regions multiply on top of it.
    """
    idag = InstructionDAG()
    tracker = _LocationTracker()
    ops = dag.operations()
    totals = [instances * (op.parallel.instances
                           if op.parallel is not None else 1)
              for op in ops]
    denominator = math.lcm(1, *totals)
    for op, total in zip(ops, totals):
        _expand_op(idag, tracker, op, total, denominator // total)

    # Finalize the "dst fully overwritten later" flags used by the rrs
    # fusion rule.
    for instr in idag.live():
        pending = tracker.pending_cells.get(instr.instr_id)
        if pending is not None:
            instr.overwritten = pending == 0 and bool(instr.write_spans())
    return idag


def _expand_op(idag: InstructionDAG, tracker: _LocationTracker,
               op: ChunkOp, total: int, width: int) -> None:
    """Emit the instruction(s) of each of the ``total`` instances of one
    chunk op; instance *k* owns units ``[k*width, (k+1)*width)``."""
    src_rank, src_buffer, src_index, count = op.src
    dst_rank, dst_buffer, dst_index, dst_count = op.dst
    if dst_count != count:
        # Chunk ops move data element-wise, so both spans must cover
        # the same number of chunks; anything else would silently
        # truncate (the old code dropped the dst count on the floor).
        raise ProgramError(
            f"chunk op {op.kind!r} moves {count} chunk(s) from rank "
            f"{src_rank} {src_buffer}[{src_index}] but its destination "
            f"span on rank {dst_rank} {dst_buffer}[{dst_index}] covers "
            f"{dst_count}; source and destination counts must match"
        )
    src_span = (src_buffer, src_index, count)
    dst_span = (dst_buffer, dst_index, count)
    copy = op.kind == "copy"
    for k in range(total):
        units = _units(k * width, (k + 1) * width)
        common = dict(
            channel_directive=op.channel,
            instance=(k, total),
            chunk_op_id=op.op_id,
            trace_key=(op.trace_index, k),
        )
        if op.is_local:
            instr = idag.new(rank=src_rank,
                             op=Op.COPY if copy else Op.REDUCE,
                             src=src_span, dst=dst_span,
                             lineage=op.lineage, **common)
            tracker.record(instr, units)
            continue
        # A remote reduce's send moves only the source span's data; the
        # accumulator's own origins never leave the destination rank.
        send = idag.new(rank=src_rank, op=Op.SEND, src=src_span,
                        send_peer=dst_rank, lineage=op.src_lineage,
                        **common)
        tracker.record(send, units)
        if copy:
            recv = idag.new(rank=dst_rank, op=Op.RECV, dst=dst_span,
                            recv_peer=src_rank, lineage=op.lineage,
                            **common)
        else:  # remote reduce: receive and accumulate into the dst
            recv = idag.new(rank=dst_rank, op=Op.RECV_REDUCE_COPY,
                            src=dst_span, dst=dst_span,
                            recv_peer=src_rank, lineage=op.lineage,
                            **common)
        tracker.record(recv, units)
        send.send_match = recv.instr_id
        recv.recv_match = send.instr_id
