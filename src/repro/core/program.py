"""The MSCCLang program context: tracing the DSL into a Chunk DAG.

A program is written inside a ``with MSCCLProgram(...)`` block. The
module-level :func:`chunk` function (mirroring the paper's API) addresses
chunks on the *current* program. Executing the Python code once performs
the trace: every ``copy``/``reduce`` appends a node to the Chunk DAG and
updates the per-rank abstract buffer state, so correctness errors
(uninitialized reads, stale references) surface immediately at the
offending line.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple, Union

from .buffers import Buffer, BufferState, as_buffer
from .chunk import reduce_chunks
from .collectives import Collective
from .dag import ChunkDAG, ParallelGroup
from .errors import ProgramError
from .refs import ChunkRef

RankLike = Union[int, Tuple[int, int]]

_current = threading.local()


def _current_program() -> "MSCCLProgram":
    program = getattr(_current, "program", None)
    if program is None:
        raise ProgramError(
            "no MSCCLProgram is active; use 'with MSCCLProgram(...):'"
        )
    return program


class MSCCLProgram:
    """Tracing context for one collective algorithm.

    Parameters
    ----------
    name:
        Human-readable algorithm name, carried into the IR.
    collective:
        The :class:`~repro.core.collectives.Collective` this program
        implements; supplies buffer sizes, aliasing, and postcondition.
    gpus_per_node:
        Enables ``(node, gpu)`` tuple addressing for ranks and indices.
    protocol:
        Runtime protocol hint stored in the IR ('Simple', 'LL', 'LL128').
    instances:
        Whole-program parallelization factor (the paper's ``r``): the
        compiler replicates every operation this many times, each
        instance carrying 1/instances of the data on its own channels.
    """

    def __init__(self, name: str, collective: Collective, *,
                 gpus_per_node: Optional[int] = None,
                 protocol: str = "Simple",
                 instances: int = 1):
        if instances < 1:
            raise ProgramError("instances must be >= 1")
        self.name = name
        self.collective = collective
        self.num_ranks = collective.num_ranks
        self.gpus_per_node = gpus_per_node
        self.protocol = protocol
        self.instances = instances
        self.dag = ChunkDAG()
        self._buffers: Dict[Tuple[int, Buffer], BufferState] = {}
        self._group: Optional[ParallelGroup] = None
        self._next_group_id = 0
        self._finalized = False
        self._init_buffers()

    # -- setup -----------------------------------------------------------
    def _init_buffers(self) -> None:
        coll = self.collective
        record = self.dag.record
        for rank in range(self.num_ranks):
            self._buffers[(rank, Buffer.OUTPUT)] = BufferState(
                Buffer.OUTPUT, rank, coll.output_chunks(rank)
            )
            self._buffers[(rank, Buffer.SCRATCH)] = BufferState(
                Buffer.SCRATCH, rank, None
            )
            if not coll.in_place:
                self._buffers[(rank, Buffer.INPUT)] = BufferState(
                    Buffer.INPUT, rank, coll.input_chunks(rank)
                )
            # Place the precondition's input chunks (through the alias
            # for in-place collectives), each with its start node: a
            # start location is its own lineage origin.
            for index, value in coll.precondition(rank).items():
                buffer, canon_index = coll.alias(rank, Buffer.INPUT, index)
                origin = self._buffers[(rank, buffer)].place_start(
                    canon_index, value)
                record("start", None, (rank, buffer, canon_index, 1),
                       None, None, origin, origin)

    # -- context management ----------------------------------------------
    def __enter__(self) -> "MSCCLProgram":
        if getattr(_current, "program", None) is not None:
            raise ProgramError("another MSCCLProgram is already active")
        _current.program = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _current.program = None
        if exc_type is None:
            self._finalized = True

    # -- rank / index resolution -------------------------------------------
    def resolve_rank(self, rank: RankLike) -> int:
        """Convert a (node, gpu) tuple or integer into an integer rank."""
        if isinstance(rank, tuple):
            if self.gpus_per_node is None:
                raise ProgramError(
                    "tuple rank addressing requires gpus_per_node"
                )
            node, gpu = rank
            if not 0 <= gpu < self.gpus_per_node:
                raise ProgramError(
                    f"gpu index {gpu} out of range for "
                    f"{self.gpus_per_node} GPUs per node"
                )
            rank = node * self.gpus_per_node + gpu
        if not 0 <= rank < self.num_ranks:
            raise ProgramError(
                f"rank {rank} out of range for {self.num_ranks} ranks"
            )
        return rank

    def resolve_index(self, index) -> int:
        """Convert a (node, gpu)-style tuple index into an integer index."""
        if isinstance(index, tuple):
            if self.gpus_per_node is None:
                raise ProgramError(
                    "tuple index addressing requires gpus_per_node"
                )
            node, gpu = index
            return node * self.gpus_per_node + gpu
        return index

    # -- buffer access -----------------------------------------------------
    def buffer_state(self, rank: int, buffer: Buffer) -> BufferState:
        """The canonical BufferState for (rank, buffer)."""
        try:
            return self._buffers[(rank, buffer)]
        except KeyError:
            raise ProgramError(
                f"buffer {buffer} does not exist on rank {rank} "
                "(in-place programs must address 'output' or the alias)"
            ) from None

    def _canonical(self, rank: int, buffer, index) -> Tuple[Buffer, int]:
        buffer = as_buffer(buffer)
        index = self.resolve_index(index)
        return self.collective.alias(rank, buffer, index)

    # -- DSL entry points ----------------------------------------------------
    def get_chunk(self, rank: RankLike, buffer, index,
                  count: int = 1) -> ChunkRef:
        """The paper's ``chunk(rank, buffer, index, count)`` operation."""
        rank = self.resolve_rank(rank)
        buffer, index = self._canonical(rank, buffer, index)
        state = self.buffer_state(rank, buffer)
        state.read(index, count)  # errors on uninitialized chunks
        return ChunkRef(self, state, index, count)

    def apply_copy(self, src: ChunkRef, dst_rank: RankLike, buffer, index,
                   ch: Optional[int]) -> ChunkRef:
        """Trace ``src.copy(dst_rank, buffer, index)``."""
        self._check_active()
        dst_rank = self.resolve_rank(dst_rank)
        dst_buffer, dst_index = self._canonical(dst_rank, buffer, index)
        if (dst_index == src.index and dst_buffer is src.buffer
                and dst_rank == src.rank):
            return src  # copying a chunk onto itself is a no-op
        src_state, src_index, count = src.state, src.index, src.count
        values = src_state.read(src_index, count)
        dst_state = self.buffer_state(dst_rank, dst_buffer)
        dst_state.write(dst_index, values)
        lineage = dst_state.move_origins(src_state, src_index, dst_index,
                                         count)
        self.dag.record(
            "copy", (src.rank, src.buffer, src_index, count),
            (dst_rank, dst_buffer, dst_index, count), ch, self._group,
            lineage, lineage,
        )
        return ChunkRef(self, dst_state, dst_index, count)

    def apply_reduce(self, dst: ChunkRef, src: ChunkRef,
                     ch: Optional[int]) -> ChunkRef:
        """Trace ``dst.reduce(src)``: accumulate src into dst's location."""
        self._check_active()
        src_state, dst_state = src.state, dst.state
        src_index, dst_index, count = src.index, dst.index, src.count
        src_values = src_state.read(src_index, count)
        dst_values = dst_state.read(dst_index, count)
        dst_state.write(dst_index, [
            reduce_chunks(a, b) for a, b in zip(dst_values, src_values)
        ])
        lineage, src_lineage = dst_state.merge_origins(
            src_state, src_index, dst_index, count)
        self.dag.record(
            "reduce", (src.rank, src.buffer, src_index, count),
            (dst.rank, dst.buffer, dst_index, count), ch, self._group,
            lineage, src_lineage,
        )
        return ChunkRef(self, dst_state, dst_index, count)

    # -- parallelize directive -------------------------------------------------
    def push_parallel(self, instances: int) -> ParallelGroup:
        """Enter a ``parallelize(instances)`` region."""
        if instances < 1:
            raise ProgramError("parallelize factor must be >= 1")
        if self._group is not None:
            raise ProgramError("parallelize regions cannot nest")
        self._group = ParallelGroup(self._next_group_id, instances)
        self._next_group_id += 1
        return self._group

    def pop_parallel(self, group: ParallelGroup) -> None:
        """Leave a ``parallelize`` region."""
        if self._group is None or self._group is not group:
            raise ProgramError("mismatched parallelize exit")
        self._group = None

    def _check_active(self) -> None:
        if self._finalized:
            raise ProgramError(
                "this program already left its 'with' block; operations "
                "must be traced inside it"
            )

    # -- results ------------------------------------------------------------
    def output_state(self, rank: int) -> Dict[int, object]:
        """Final abstract output-buffer contents for verification."""
        return self._buffers[(rank, Buffer.OUTPUT)].snapshot()

    def scratch_chunks(self, rank: int) -> int:
        """Deduced scratch-buffer size (highest index accessed + 1)."""
        return self._buffers[(rank, Buffer.SCRATCH)].size


def chunk(rank: RankLike, buffer, index, count: int = 1) -> ChunkRef:
    """Address chunks on the current program (paper Table 1)."""
    return _current_program().get_chunk(rank, buffer, index, count)


def current_program() -> MSCCLProgram:
    """The program whose ``with`` block is active (for helpers/directives)."""
    return _current_program()
