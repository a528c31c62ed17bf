"""Collective definitions: preconditions, postconditions, and aliasing.

A collective states *what* must be true before and after a program runs
(paper section 3.2); the MSCCLang program states *how* chunks move. The
precondition places unique :class:`~repro.core.chunk.InputChunk` values
in every rank's input buffer. The postcondition maps every output index
to the input or reduction chunk that must be there, which lets
:mod:`repro.core.verification` check algorithms automatically.

In-place algorithms alias the input buffer onto (a region of) the output
buffer; ``alias`` resolves user-facing coordinates to canonical storage
coordinates so tracing sees a single underlying buffer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .buffers import Buffer
from .chunk import Chunk, InputChunk, ReductionChunk, allreduce_result
from .errors import ProgramError

Coordinate = Tuple[Buffer, int]


REDUCE_OPS = ("sum", "max", "min", "prod")


class Collective:
    """Base class: a named collective over ``num_ranks`` ranks.

    Subclasses define buffer sizes and the postcondition. ``chunk_factor``
    scales how finely the algorithm divides buffers; its meaning is
    documented per collective. ``reduce_op`` selects the point-wise
    reduction (MPI_SUM/MAX/MIN/PROD); the abstract chunk identities are
    operator-agnostic (a multiset of contributing inputs), while the
    data-level executor applies the chosen operator numerically.
    """

    name = "collective"

    def __init__(self, num_ranks: int, chunk_factor: int = 1,
                 in_place: bool = False, reduce_op: str = "sum"):
        if num_ranks < 1:
            raise ProgramError("collective needs at least one rank")
        if chunk_factor < 1:
            raise ProgramError("chunk_factor must be >= 1")
        if reduce_op not in REDUCE_OPS:
            raise ProgramError(
                f"unknown reduce_op {reduce_op!r}; expected one of "
                f"{REDUCE_OPS}"
            )
        self.num_ranks = num_ranks
        self.chunk_factor = chunk_factor
        self.in_place = in_place
        self.reduce_op = reduce_op
        self._reductions: Dict[int, ReductionChunk] = {}

    # -- sizes ---------------------------------------------------------
    def input_chunks(self, rank: int) -> int:
        """Number of chunks in ``rank``'s input buffer."""
        raise NotImplementedError

    def output_chunks(self, rank: int) -> int:
        """Number of chunks in ``rank``'s output buffer."""
        raise NotImplementedError

    def sizing_chunks(self) -> int:
        """Chunks the headline "buffer size" divides into.

        Benchmarks quote one buffer size per collective call; the chunk
        payload is that size divided by this count (the larger of the
        rank-0 input and output buffers, matching how the paper's
        figures label their x axes).
        """
        return max(self.input_chunks(0), self.output_chunks(0))

    # -- conditions ----------------------------------------------------
    def precondition(self, rank: int) -> Dict[int, InputChunk]:
        """Initial input-buffer contents: index -> unique input chunk."""
        return {
            i: InputChunk(rank, i) for i in range(self.input_chunks(rank))
        }

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        """Required final output-buffer contents: index -> chunk.

        Indices absent from the mapping are unconstrained (used by
        collectives, like AllToNext's first rank, with partial outputs).
        """
        raise NotImplementedError

    def _full_reduction(self, index: int) -> ReductionChunk:
        """The reduction of input chunk ``index`` over every rank.

        Reducing postconditions want the same value on many ranks, so it
        is built once per index and shared (chunk values are immutable).
        """
        if index not in self._reductions:
            self._reductions[index] = allreduce_result(self.num_ranks, index)
        return self._reductions[index]

    # -- in-place aliasing ---------------------------------------------
    def input_offset(self, rank: int) -> int:
        """Where the input buffer lands inside the output when in place."""
        return 0

    def alias(self, rank: int, buffer: Buffer, index: int) -> Coordinate:
        """Map user coordinates to canonical storage coordinates."""
        if self.in_place and buffer is Buffer.INPUT:
            return (Buffer.OUTPUT, index + self.input_offset(rank))
        return (buffer, index)

    def __repr__(self) -> str:
        inplace = ", in_place" if self.in_place else ""
        return (
            f"{type(self).__name__}(ranks={self.num_ranks}, "
            f"chunk_factor={self.chunk_factor}{inplace})"
        )


class AllReduce(Collective):
    """Every rank ends with the element-wise sum of all input buffers.

    ``chunk_factor`` is the number of chunks each buffer divides into.
    """

    name = "allreduce"

    def input_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        return {
            i: self._full_reduction(i) for i in range(self.chunk_factor)
        }


class AllGather(Collective):
    """Every rank ends with the concatenation of all ranks' inputs.

    ``chunk_factor`` is the number of chunks per *input* buffer; the
    output holds ``num_ranks * chunk_factor`` chunks. In place, rank r's
    input aliases output indices ``[r*chunk_factor, (r+1)*chunk_factor)``.
    """

    name = "allgather"

    def input_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def input_offset(self, rank: int) -> int:
        return rank * self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        expected: Dict[int, Chunk] = {}
        for src in range(self.num_ranks):
            for i in range(self.chunk_factor):
                expected[src * self.chunk_factor + i] = InputChunk(src, i)
        return expected


class ReduceScatter(Collective):
    """Rank r ends with its share of the fully reduced buffer.

    Inputs have ``num_ranks * chunk_factor`` chunks; rank r's output is
    the ``chunk_factor`` reduced chunks of segment r. In place, the
    output aliases input indices ``[r*chunk_factor, (r+1)*chunk_factor)``
    — expressed here as the input buffer aliasing a *larger* region, so
    canonical storage is the input-sized output buffer.
    """

    name = "reducescatter"

    def input_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        if self.in_place:
            # Canonical storage spans the whole input buffer.
            return self.num_ranks * self.chunk_factor
        return self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        base = rank * self.chunk_factor if self.in_place else 0
        expected: Dict[int, Chunk] = {}
        for i in range(self.chunk_factor):
            source_index = rank * self.chunk_factor + i
            expected[base + i] = self._full_reduction(source_index)
        return expected


class AllToAll(Collective):
    """Block j of rank i's input ends at block i of rank j's output.

    Each input divides into ``num_ranks`` blocks of ``chunk_factor``
    chunks; block indices transpose across ranks.
    """

    name = "alltoall"

    def input_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        expected: Dict[int, Chunk] = {}
        for src in range(self.num_ranks):
            for k in range(self.chunk_factor):
                expected[src * self.chunk_factor + k] = InputChunk(
                    src, rank * self.chunk_factor + k
                )
        return expected


class AllToNext(Collective):
    """Rank i sends its input buffer to rank i+1 (paper section 7.4).

    Rank 0's output is unconstrained; the last rank sends nothing.
    ``chunk_factor`` is the number of chunks per buffer.
    """

    name = "alltonext"

    def input_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        if rank == 0:
            return {}
        return {
            i: InputChunk(rank - 1, i) for i in range(self.chunk_factor)
        }


class Broadcast(Collective):
    """Every rank ends with the root's input buffer.

    ``chunk_factor`` chunks per buffer; ``root`` defaults to rank 0.
    """

    name = "broadcast"

    def __init__(self, num_ranks: int, chunk_factor: int = 1,
                 in_place: bool = False, root: int = 0,
                 reduce_op: str = "sum"):
        super().__init__(num_ranks, chunk_factor, in_place, reduce_op)
        if not 0 <= root < num_ranks:
            raise ProgramError(f"root {root} out of range")
        self.root = root

    def input_chunks(self, rank: int) -> int:
        # Only the root holds data; other ranks still expose an input
        # buffer of matching shape (uninitialized and unused).
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def precondition(self, rank: int) -> Dict[int, InputChunk]:
        if rank != self.root:
            return {}
        return {
            i: InputChunk(rank, i) for i in range(self.chunk_factor)
        }

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        return {
            i: InputChunk(self.root, i) for i in range(self.chunk_factor)
        }


class Reduce(Collective):
    """The root ends with the element-wise sum of all inputs.

    The inverse of Broadcast: only the root's output is constrained.
    """

    name = "reduce"

    def __init__(self, num_ranks: int, chunk_factor: int = 1,
                 in_place: bool = False, root: int = 0,
                 reduce_op: str = "sum"):
        super().__init__(num_ranks, chunk_factor, in_place, reduce_op)
        if not 0 <= root < num_ranks:
            raise ProgramError(f"root {root} out of range")
        self.root = root

    def input_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        if rank != self.root:
            return {}
        return {
            i: self._full_reduction(i) for i in range(self.chunk_factor)
        }


class Gather(Collective):
    """The root ends with the concatenation of all ranks' inputs."""

    name = "gather"

    def __init__(self, num_ranks: int, chunk_factor: int = 1,
                 in_place: bool = False, root: int = 0,
                 reduce_op: str = "sum"):
        super().__init__(num_ranks, chunk_factor, in_place, reduce_op)
        if not 0 <= root < num_ranks:
            raise ProgramError(f"root {root} out of range")
        self.root = root

    def input_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def input_offset(self, rank: int) -> int:
        return rank * self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        if rank != self.root:
            return {}
        expected: Dict[int, Chunk] = {}
        for src in range(self.num_ranks):
            for i in range(self.chunk_factor):
                expected[src * self.chunk_factor + i] = InputChunk(src, i)
        return expected


class Scatter(Collective):
    """Rank r ends with block r of the root's input buffer."""

    name = "scatter"

    def __init__(self, num_ranks: int, chunk_factor: int = 1,
                 in_place: bool = False, root: int = 0,
                 reduce_op: str = "sum"):
        super().__init__(num_ranks, chunk_factor, in_place, reduce_op)
        if not 0 <= root < num_ranks:
            raise ProgramError(f"root {root} out of range")
        self.root = root

    def input_chunks(self, rank: int) -> int:
        return self.num_ranks * self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        return self.chunk_factor

    def precondition(self, rank: int) -> Dict[int, InputChunk]:
        if rank != self.root:
            return {}
        return {
            i: InputChunk(rank, i)
            for i in range(self.num_ranks * self.chunk_factor)
        }

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        return {
            i: InputChunk(self.root, rank * self.chunk_factor + i)
            for i in range(self.chunk_factor)
        }


class AllToAllV(Collective):
    """Variable-count all-to-all: ``counts[src][dst]`` chunks per pair.

    The MoE token-dispatch pattern: every rank sends a different amount
    to every peer. Rank r's input is the concatenation of its outgoing
    blocks in destination order (block for dst at offset
    ``send_offset(r, dst)``); its output is the concatenation of the
    incoming blocks in source order (block from src at offset
    ``recv_offset(src, r)``). Buffer sizes therefore differ per rank —
    the collective that motivates variable-size chunk support end to
    end. In-place operation is meaningless here (input and output have
    different shapes) and is rejected.
    """

    name = "alltoallv"

    def __init__(self, counts, reduce_op: str = "sum"):
        rows = [list(int(c) for c in row) for row in counts]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ProgramError(
                "alltoallv counts must be a square num_ranks x num_ranks "
                f"matrix, got rows of lengths {[len(r) for r in rows]}"
            )
        if any(c < 0 for row in rows for c in row):
            raise ProgramError("alltoallv counts must be non-negative")
        super().__init__(len(rows), chunk_factor=1, in_place=False,
                         reduce_op=reduce_op)
        self.counts = rows

    def input_chunks(self, rank: int) -> int:
        return sum(self.counts[rank])

    def output_chunks(self, rank: int) -> int:
        return sum(self.counts[src][rank] for src in range(self.num_ranks))

    def sizing_chunks(self) -> int:
        # Rows differ per rank, so size against the largest buffer
        # anywhere (rank 0 alone would under-size skewed matrices).
        return max(
            [1] + [max(self.input_chunks(r), self.output_chunks(r))
                   for r in range(self.num_ranks)]
        )

    def send_offset(self, src: int, dst: int) -> int:
        """Offset of the block for ``dst`` inside ``src``'s input."""
        return sum(self.counts[src][:dst])

    def recv_offset(self, src: int, dst: int) -> int:
        """Offset of the block from ``src`` inside ``dst``'s output."""
        return sum(self.counts[s][dst] for s in range(src))

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        expected: Dict[int, Chunk] = {}
        for src in range(self.num_ranks):
            base_out = self.recv_offset(src, rank)
            base_in = self.send_offset(src, rank)
            for k in range(self.counts[src][rank]):
                expected[base_out + k] = InputChunk(src, base_in + k)
        return expected


class Custom(Collective):
    """A user-defined collective built from explicit size/post functions.

    ``postcondition_fn(rank)`` returns the index -> chunk mapping;
    ``input_chunks_fn`` / ``output_chunks_fn`` give buffer sizes (both
    default to ``chunk_factor`` chunks).
    """

    name = "custom"

    def __init__(self, num_ranks: int, postcondition_fn,
                 input_chunks_fn=None, output_chunks_fn=None,
                 chunk_factor: int = 1, in_place: bool = False,
                 name: Optional[str] = None, reduce_op: str = "sum"):
        super().__init__(num_ranks, chunk_factor, in_place, reduce_op)
        self._postcondition_fn = postcondition_fn
        self._input_chunks_fn = input_chunks_fn
        self._output_chunks_fn = output_chunks_fn
        if name:
            self.name = name

    def input_chunks(self, rank: int) -> int:
        if self._input_chunks_fn is not None:
            return self._input_chunks_fn(rank)
        return self.chunk_factor

    def output_chunks(self, rank: int) -> int:
        if self._output_chunks_fn is not None:
            return self._output_chunks_fn(rank)
        return self.chunk_factor

    def postcondition(self, rank: int) -> Dict[int, Chunk]:
        return self._postcondition_fn(rank)
