"""Instruction-level representation: the nodes of the Instruction DAG.

The compiler expands each Chunk DAG operation into point-to-point or
local instructions (paper section 4.2):

==============  =======================================================
``send``        send a local span to the send peer
``recv``        receive a span from the recv peer into a local location
``copy``        local copy
``reduce``      local reduce: dst = dst (+) src
``rrc``         recvReduceCopy: dst = src (+) incoming
``rcs``         recvCopySend: store incoming locally and forward it
``rrcs``        recvReduceCopySend: rrc, then forward the result
``rrs``         recvReduceSend: forward src (+) incoming, no local write
``nop``         no data movement; carries cross-thread-block ordering
==============  =======================================================

Each instruction may be one *instance* of a parallelized operation:
``instance=(k, S)`` says it owns the elements ``[k/S, (k+1)/S)`` of every
chunk it touches, so the instances of one operation partition [0, 1).
Lowering tracks those ranges as integers; :attr:`Instruction.fraction`
derives the exact rationals the IR carries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .buffers import Buffer

# A local span: (buffer, index, count) on the instruction's own rank.
LocalSpan = Tuple[Buffer, int, int]


class Op(enum.Enum):
    """Instruction opcodes, matching the paper's primitive set."""

    SEND = "s"
    RECV = "r"
    COPY = "cpy"
    REDUCE = "re"
    RECV_REDUCE_COPY = "rrc"
    RECV_COPY_SEND = "rcs"
    RECV_REDUCE_COPY_SEND = "rrcs"
    RECV_REDUCE_SEND = "rrs"
    # Synchronization-only step: moves no data, exists to carry a
    # cross-thread-block dependency (hand-written MSCCL XML uses these
    # as barriers). Not a member of any op set below.
    NOP = "nop"

    # Members are singletons compared by identity, so identity hashing
    # is consistent with equality and avoids Enum's Python-level hash.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SENDING_OPS = frozenset({
    Op.SEND, Op.RECV_COPY_SEND, Op.RECV_REDUCE_COPY_SEND,
    Op.RECV_REDUCE_SEND,
})
RECEIVING_OPS = frozenset({
    Op.RECV, Op.RECV_REDUCE_COPY, Op.RECV_COPY_SEND,
    Op.RECV_REDUCE_COPY_SEND, Op.RECV_REDUCE_SEND,
})
REDUCING_OPS = frozenset({
    Op.REDUCE, Op.RECV_REDUCE_COPY, Op.RECV_REDUCE_COPY_SEND,
    Op.RECV_REDUCE_SEND,
})
LOCAL_OPS = frozenset({Op.COPY, Op.REDUCE})


@dataclass
class Instruction:
    """One node of the Instruction DAG.

    ``deps`` are processing-edge predecessors (same rank, must execute
    first); ``send_match``/``recv_match`` are the communication-edge
    partners (send -> recv pairing across ranks).
    """

    instr_id: int
    rank: int
    op: Op
    src: Optional[LocalSpan] = None
    dst: Optional[LocalSpan] = None
    send_peer: Optional[int] = None
    recv_peer: Optional[int] = None
    channel_directive: Optional[int] = None
    channel: Optional[int] = None
    instance: Tuple[int, int] = (0, 1)  # (instance index, total instances)
    chunk_op_id: int = -1
    trace_key: Tuple[int, int] = (0, 0)  # (chunk op order, instance index)
    deps: Set[int] = field(default_factory=set)
    true_deps: Set[int] = field(default_factory=set)
    send_match: Optional[int] = None  # recv-side instruction id
    recv_match: Optional[int] = None  # send-side instruction id
    overwritten: bool = False  # dst later fully overwritten
    # Origin chunks (rank, buffer name, index) whose data this
    # instruction moves; fusion unions the absorbed send's set in.
    lineage: frozenset = frozenset()
    # instr_ids of sends absorbed into this instruction by fusion.
    fused_ids: List[int] = field(default_factory=list)

    @property
    def sends(self) -> bool:
        return self.op in SENDING_OPS

    @property
    def receives(self) -> bool:
        return self.op in RECEIVING_OPS

    @property
    def fraction(self) -> Tuple[Fraction, Fraction]:
        """The element range ``[k/S, (k+1)/S)`` this instance owns."""
        k, total = self.instance
        return (Fraction(k, total), Fraction(k + 1, total))

    def read_spans(self) -> List[LocalSpan]:
        """Local spans this instruction reads."""
        spans: List[LocalSpan] = []
        if self.op in (Op.SEND, Op.COPY, Op.RECV_REDUCE_COPY,
                       Op.RECV_REDUCE_COPY_SEND, Op.RECV_REDUCE_SEND):
            if self.src is not None:
                spans.append(self.src)
        elif self.op is Op.REDUCE:
            if self.src is not None:
                spans.append(self.src)
            if self.dst is not None:
                spans.append(self.dst)
        return spans

    def write_spans(self) -> List[LocalSpan]:
        """Local spans this instruction writes."""
        if self.op in (Op.RECV, Op.COPY, Op.REDUCE, Op.RECV_REDUCE_COPY,
                       Op.RECV_COPY_SEND, Op.RECV_REDUCE_COPY_SEND):
            if self.dst is not None:
                return [self.dst]
        return []

    def __repr__(self) -> str:
        parts = [f"#{self.instr_id} r{self.rank} {self.op.value}"]
        if self.src is not None:
            buf, idx, cnt = self.src
            parts.append(f"src={buf.value}[{idx}:{idx + cnt}]")
        if self.dst is not None:
            buf, idx, cnt = self.dst
            parts.append(f"dst={buf.value}[{idx}:{idx + cnt}]")
        if self.send_peer is not None:
            parts.append(f"->r{self.send_peer}")
        if self.recv_peer is not None:
            parts.append(f"<-r{self.recv_peer}")
        if self.instance != (0, 1):
            parts.append("frac=[{},{})".format(*self.fraction))
        return "Instr(" + " ".join(parts) + ")"


class InstructionDAG:
    """The full instruction graph produced by lowering."""

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []

    def new(self, **kwargs) -> Instruction:
        instr = Instruction(instr_id=len(self.instructions), **kwargs)
        self.instructions.append(instr)
        return instr

    def live(self) -> List[Instruction]:
        """Instructions not removed by fusion (fusion nulls out slots)."""
        return [i for i in self.instructions if i is not None]

    def dependents(self):
        """Reverse adjacency over processing edges: id -> dependents."""
        result = {i.instr_id: set() for i in self.live()}
        for instr in self.live():
            for dep in instr.deps:
                if dep in result:
                    result[dep].add(instr.instr_id)
        return result

    def __len__(self) -> int:
        return len(self.live())

