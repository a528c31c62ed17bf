"""Named buffers and the per-rank buffer state used while tracing.

Each rank exposes three named buffers (paper section 3.1):

* ``input`` — holds the rank's input chunks at program start,
* ``output`` — uninitialized; must satisfy the postcondition at the end,
* ``scratch`` — uninitialized temporary storage whose size is deduced
  from the highest index the program touches.

``BufferState`` is the trace's location table for one buffer on one
rank: three flat lists indexed by chunk index hold the abstract chunk
value stored there, a monotonically increasing *version*, and the
location's lineage (the frozenset of origins, see
:data:`~repro.core.dag.Origin`, whose data it holds). The version
implements the stale-reference rule: a ``ChunkRef`` snapshots the
versions of the locations it covers, and any later write bumps them,
invalidating older references. Nothing on the per-op path hashes a
location; a ``ChunkRef`` holds its ``BufferState`` and asks it for
versions. The table's layout stays inside this class: tracing moves
lineage through ``place_start``, ``move_origins`` and ``merge_origins``.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from .chunk import UNINITIALIZED, Chunk, Uninitialized, is_initialized
from .errors import ProgramError, UninitializedChunkError


class Buffer(enum.Enum):
    """The three per-rank buffers a program may address."""

    INPUT = "input"
    OUTPUT = "output"
    SCRATCH = "scratch"

    # Members are singletons compared by identity, so identity hashing
    # is consistent with equality and avoids Enum's Python-level hash.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The lineage of a location no input chunk has reached.
NO_ORIGINS: frozenset = frozenset()

_ALIASES = {
    "in": Buffer.INPUT,
    "input": Buffer.INPUT,
    "i": Buffer.INPUT,
    "out": Buffer.OUTPUT,
    "output": Buffer.OUTPUT,
    "o": Buffer.OUTPUT,
    "sc": Buffer.SCRATCH,
    "scratch": Buffer.SCRATCH,
    "s": Buffer.SCRATCH,
}


def as_buffer(name) -> Buffer:
    """Normalize a user-facing buffer name ('in', 'out', 'sc', ...)."""
    if isinstance(name, Buffer):
        return name
    if isinstance(name, str):
        try:
            return _ALIASES[name.lower()]
        except KeyError:
            raise ProgramError(
                f"unknown buffer {name!r}; expected one of "
                f"{sorted(set(_ALIASES))}"
            ) from None
    raise ProgramError(f"buffer must be a string or Buffer, got {type(name)}")


class BufferState:
    """Abstract contents of one buffer on one rank during tracing.

    The buffer grows on demand for scratch (whose size is deduced), while
    input/output have a fixed chunk count and reject out-of-range access.
    """

    def __init__(self, buffer: Buffer, rank: int, size: Optional[int]):
        self.buffer = buffer
        self.rank = rank
        self._fixed_size = size
        slots = size or 0
        self._chunks: List[Chunk] = [UNINITIALIZED] * slots
        self._versions: List[int] = [0] * slots
        self._origins: List[frozenset] = [NO_ORIGINS] * slots

    @property
    def size(self) -> int:
        """Number of chunk slots currently materialized."""
        return len(self._chunks)

    def _check_range(self, index: int, count: int) -> None:
        if index < 0 or count < 1:
            raise ProgramError(
                f"invalid access {self.buffer}[{index}:{index + count}] "
                f"on rank {self.rank}: index must be >= 0 and count >= 1"
            )
        end = index + count
        if self._fixed_size is not None:
            if end > self._fixed_size:
                raise ProgramError(
                    f"access {self.buffer}[{index}:{end}] on rank "
                    f"{self.rank} is out of range (size {self._fixed_size})"
                )
        elif end > len(self._chunks):
            # Scratch grows to cover the highest index accessed.
            growth = end - len(self._chunks)
            self._chunks.extend([UNINITIALIZED] * growth)
            self._versions.extend([0] * growth)
            self._origins.extend([NO_ORIGINS] * growth)

    def read(self, index: int, count: int) -> List[Chunk]:
        """Read ``count`` chunk values; error on uninitialized data."""
        self._check_range(index, count)
        values = self._chunks[index : index + count]
        for offset, value in enumerate(values):
            if isinstance(value, Uninitialized):
                raise UninitializedChunkError(
                    f"rank {self.rank} read uninitialized chunk at "
                    f"{self.buffer}[{index + offset}]"
                )
        return values

    def peek(self, index: int, count: int) -> List[Chunk]:
        """Read values without the initialization check (for diagnostics)."""
        self._check_range(index, count)
        return self._chunks[index : index + count]

    def write(self, index: int, values: List[Chunk]) -> None:
        """Store values and bump versions, invalidating older references."""
        end = index + len(values)
        self._check_range(index, len(values))
        self._chunks[index:end] = values
        versions = self._versions
        for offset in range(index, end):
            versions[offset] += 1

    def versions(self, index: int, count: int) -> List[int]:
        """Current version stamps for a span (used by ChunkRef snapshots)."""
        end = index + count
        if not (index >= 0 and count >= 1 and end <= len(self._versions)):
            self._check_range(index, count)  # raises, or grows scratch
        return self._versions[index:end]

    # -- lineage -----------------------------------------------------------
    def place_start(self, index: int, value: Chunk) -> frozenset:
        """Store an input chunk present at program start.

        A start location is its own lineage origin, which is returned.
        """
        origin = frozenset(((self.rank, self.buffer.value, index),))
        self.write(index, [value])
        self._origins[index] = origin
        return origin

    def move_origins(self, src: "BufferState", src_index: int, index: int,
                     count: int) -> frozenset:
        """Lineage of a copy of ``src`` into ``count`` locations here.

        Location ``index + k`` takes the origins of ``src_index + k``,
        location by location as the writes land. Returns the union of
        the origins moved.
        """
        src_origins, origins = src._origins, self._origins
        moved: set = set()
        for offset in range(count):
            incoming = src_origins[src_index + offset]
            origins[index + offset] = incoming
            moved |= incoming
        return frozenset(moved)

    def merge_origins(self, src: "BufferState", src_index: int, index: int,
                      count: int) -> Tuple[frozenset, frozenset]:
        """Lineage of a reduce of ``src`` into ``count`` locations here.

        Each accumulator location keeps its own origins and gains those
        of the matching ``src`` location. Returns the union of the
        merged origins and the union of those read from ``src``.
        """
        src_origins, origins = src._origins, self._origins
        merged: set = set()
        read: set = set()
        for offset in range(count):
            incoming = src_origins[src_index + offset]
            combined = origins[index + offset] = (
                incoming | origins[index + offset]
            )
            merged |= combined
            read |= incoming
        return frozenset(merged), frozenset(read)

    def snapshot(self) -> Dict[int, Chunk]:
        """Mapping of index -> chunk for all initialized slots."""
        return {
            i: c for i, c in enumerate(self._chunks) if is_initialized(c)
        }
