"""The Chunk DAG: the compiler's trace of a program's chunk movement.

Tracing executes the Python program once, recording every ``copy`` and
``reduce`` as a node (paper section 4.1). Edges are dependencies between
operations:

* **true dependencies** — an operation reads a location another op wrote,
* **false dependencies** — an operation overwrites a location another op
  wrote or read (WAW / WAR from reusing buffer indices).

Source nodes stand for the input chunks present at program start so the
graph is rooted.

Tracing only appends nodes. Nothing on the compile path reads these
edges (lowering recomputes them at instruction granularity), so
:func:`derive_edges` computes them in one pass over the trace's
:class:`AccessLog` the first time anything asks for ``op.deps`` or
``op.true_deps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .buffers import Buffer

# A located span of chunks: (rank, buffer, start index, count).
Span = Tuple[int, Buffer, int, int]

# A chunk origin: (rank, buffer name, index) of an input chunk present at
# program start. Lineage sets are frozensets of these.
Origin = Tuple[int, str, int]


def span_locations(span: Span):
    """Iterate the (rank, buffer, index) locations a span covers."""
    rank, buffer, index, count = span
    for offset in range(count):
        yield (rank, buffer, index + offset)


@dataclass
class ParallelGroup:
    """A ``parallelize(n)`` region; ops inside are replicated n ways."""

    group_id: int
    instances: int


class ChunkOp:
    """One node of the Chunk DAG.

    ``kind`` is ``'start'`` (input chunk source), ``'copy'``, or
    ``'reduce'``. For copy, ``src`` is read and ``dst`` written. For
    reduce, both ``src`` and ``dst`` are read and ``dst`` is written
    (the in-place accumulator).

    ``lineage`` holds the origin chunks (see ``Origin``) whose data flows
    through this op; ``src_lineage`` the origins read from ``src`` only,
    which is what actually travels on a remote reduce (the accumulator's
    own origins never leave the dst rank). ``deps``/``true_deps`` are the
    ids of the ops this one depends on. An op recorded by a
    :class:`ChunkDAG` leaves them unset until first read, which derives
    them from its trace's :class:`AccessLog`. Ops compare by value.
    """

    __slots__ = ("op_id", "kind", "src", "dst", "channel", "parallel",
                 "trace_index", "deps", "true_deps", "lineage",
                 "src_lineage", "_log")

    def __init__(self, op_id: int, kind: str, src: Optional[Span],
                 dst: Optional[Span], channel: Optional[int] = None,
                 parallel: Optional[ParallelGroup] = None,
                 trace_index: int = 0,
                 deps: Optional[Set[int]] = None,
                 true_deps: Optional[Set[int]] = None,
                 lineage: frozenset = frozenset(),
                 src_lineage: frozenset = frozenset(),
                 log: Optional["AccessLog"] = None):
        self.op_id = op_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.channel = channel
        self.parallel = parallel
        self.trace_index = trace_index
        self.lineage = lineage
        self.src_lineage = src_lineage
        self._log = log
        if log is None:
            self.deps = set() if deps is None else deps
            self.true_deps = set() if true_deps is None else true_deps

    def __getattr__(self, name: str):
        # Only reached for an unset slot: edges not derived yet.
        if name not in ("deps", "true_deps"):
            raise AttributeError(name)
        self.deps, self.true_deps = self._log.edges_of(self.op_id)
        return object.__getattribute__(self, name)

    def _fields(self) -> tuple:
        return (self.op_id, self.kind, self.src, self.dst, self.channel,
                self.parallel, self.trace_index, self.deps, self.true_deps,
                self.lineage, self.src_lineage)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable and compared by value

    @property
    def is_local(self) -> bool:
        """True when source and destination live on the same rank."""
        if self.src is None or self.dst is None:
            return True
        return self.src[0] == self.dst[0]

    def __repr__(self) -> str:
        return (
            f"ChunkOp#{self.op_id}({self.kind}, src={self.src}, "
            f"dst={self.dst}, ch={self.channel})"
        )


def derive_edges(accesses: List[Tuple[str, Optional[Span], Span]]
                 ) -> List[Tuple[Set[int], Set[int]]]:
    """``(deps, true_deps)`` of every op, from its ``(kind, src, dst)``.

    Replays the accesses in trace order: a read depends on the
    location's last writer (a true dependency); a write depends on the
    last writer (WAW) and on every reader since (WAR). Start ops only
    write, copies read ``src`` and write ``dst``, reduces read both and
    write ``dst``.
    """
    last_writer: Dict[Tuple[int, Buffer, int], int] = {}
    readers: Dict[Tuple[int, Buffer, int], Set[int]] = {}
    edges = []
    for op_id, (kind, src, dst) in enumerate(accesses):
        deps: Set[int] = set()
        true_deps: Set[int] = set()
        if kind != "start":
            for span in ([src, dst] if kind == "reduce" else [src]):
                for loc in span_locations(span):
                    writer = last_writer.get(loc)
                    if writer is not None and writer != op_id:
                        deps.add(writer)
                        true_deps.add(writer)
                    readers.setdefault(loc, set()).add(op_id)
        for loc in span_locations(dst):
            writer = last_writer.get(loc)
            if writer is not None and writer != op_id:
                deps.add(writer)  # WAW false dependency
            for reader in readers.get(loc, ()):
                if reader != op_id:
                    deps.add(reader)  # WAR false dependency
            last_writer[loc] = op_id
            readers[loc] = set()
        edges.append((deps, true_deps))
    return edges


class AccessLog:
    """What a trace's edges are derived from, shared by its ops.

    ``accesses`` holds each recorded op's ``(kind, src, dst)`` in trace
    order. The log refers to no op, so a trace has no reference cycle
    and is freed as soon as it is dropped, while an op kept past its
    DAG still derives its edges.
    """

    __slots__ = ("accesses", "_edges")

    def __init__(self) -> None:
        self.accesses: List[Tuple[str, Optional[Span], Span]] = []
        self._edges: List[Tuple[Set[int], Set[int]]] = []

    def edges_of(self, op_id: int) -> Tuple[Set[int], Set[int]]:
        """``(deps, true_deps)`` of op ``op_id``; derives every op's
        edges again if it was recorded after the last derivation."""
        if op_id >= len(self._edges):
            self._edges = derive_edges(self.accesses)
        return self._edges[op_id]


class ChunkDAG:
    """The ops a trace recorded, in trace order, and their edges."""

    def __init__(self) -> None:
        self.ops: List[ChunkOp] = []
        self._log = AccessLog()

    def record(self, kind: str, src: Optional[Span], dst: Span,
               channel: Optional[int], parallel: Optional[ParallelGroup],
               lineage: frozenset, src_lineage: frozenset) -> ChunkOp:
        """Append one op; its edges are derived when first read."""
        log = self._log
        op_id = len(self.ops)
        log.accesses.append((kind, src, dst))
        op = ChunkOp(op_id, kind, src, dst, channel, parallel, op_id,
                     None, None, lineage, src_lineage, log)
        self.ops.append(op)
        return op

    # -- queries ---------------------------------------------------------
    def operations(self) -> List[ChunkOp]:
        """All copy/reduce nodes in trace order (start nodes excluded)."""
        return [op for op in self.ops if op.kind != "start"]

    def dependents(self) -> Dict[int, Set[int]]:
        """Reverse adjacency: op_id -> set of ops depending on it."""
        result: Dict[int, Set[int]] = {op.op_id: set() for op in self.ops}
        for op in self.ops:
            for dep in op.deps:
                result[dep].add(op.op_id)
        return result

    def __len__(self) -> int:
        return len(self.ops)
