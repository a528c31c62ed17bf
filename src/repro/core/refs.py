"""Chunk references: the fluent handles MSCCLang programs manipulate.

Programs never touch chunks directly; they hold :class:`ChunkRef` values
returned by ``chunk()``, ``copy()`` and ``reduce()``. A reference
snapshots the *versions* of the buffer locations it covers; if a later
operation overwrites any of them, the reference is stale and any use
raises :class:`~repro.core.errors.StaleReferenceError`. This is what
makes MSCCLang programs data-race free by construction (section 3.3).
"""

from __future__ import annotations

from typing import Optional

from .buffers import BufferState
from .errors import ProgramError, StaleReferenceError


class ChunkRef:
    """A reference to ``count`` contiguous chunks at a buffer location.

    Coordinates are canonical (in-place aliasing already resolved). The
    reference holds the :class:`~repro.core.buffers.BufferState` it
    points into and the versions of its locations when it was made.
    """

    __slots__ = ("_program", "state", "rank", "buffer", "index", "count",
                 "_versions")

    def __init__(self, program, state: BufferState, index: int,
                 count: int):
        self._program = program
        self.state = state
        self.rank = state.rank
        self.buffer = state.buffer
        self.index = index
        self.count = count
        self._versions = state.versions(index, count)

    # -- validity ------------------------------------------------------
    def is_stale(self) -> bool:
        """True if any covered location was written after this snapshot."""
        return self.state.versions(self.index, self.count) != self._versions

    def _check_fresh(self, role: str) -> None:
        if self.is_stale():
            raise StaleReferenceError(
                f"{role} reference {self!r} is stale: the location was "
                "overwritten after this reference was created; re-acquire "
                "it with chunk(...)"
            )

    # -- operations ------------------------------------------------------
    def copy(self, dst_rank, buffer=None, index=None,
             count: Optional[int] = None, *,
             ch: Optional[int] = None) -> "ChunkRef":
        """Copy these chunks to a destination; returns the new reference.

        ``dst_rank`` may be an integer rank or a ``(node, gpu)`` tuple.
        ``buffer``/``index`` default to this reference's own buffer and
        index. ``count``, if given, must match this reference's count
        (it exists so calls can mirror the paper's examples verbatim).
        ``ch`` pins the transfer to a channel (section 5.1).
        """
        self._check_fresh("copy source")
        if count is not None and count != self.count:
            raise ProgramError(
                f"copy count {count} does not match the reference's "
                f"count {self.count}"
            )
        if buffer is None:
            buffer = self.buffer
        if index is None:
            index = self.index
        return self._program.apply_copy(self, dst_rank, buffer, index, ch)

    def reduce(self, other: "ChunkRef", *,
               ch: Optional[int] = None) -> "ChunkRef":
        """Reduce ``other`` into this reference's location, in place.

        Matches the paper's ``c1.reduce(c2)``: the result lands at
        ``c1``'s indices and a fresh reference to it is returned.
        """
        if not isinstance(other, ChunkRef):
            raise ProgramError(
                f"reduce expects a ChunkRef, got {type(other).__name__}"
            )
        if other.count != self.count:
            raise ProgramError(
                f"reduce requires equal counts: {self.count} vs {other.count}"
            )
        self._check_fresh("reduce destination")
        other._check_fresh("reduce source")
        return self._program.apply_reduce(self, other, ch)

    # -- introspection ---------------------------------------------------
    def values(self):
        """The abstract chunk values currently referenced (fresh only)."""
        self._check_fresh("inspected")
        return self.state.read(self.index, self.count)

    def __repr__(self) -> str:
        return (
            f"ChunkRef(rank={self.rank}, buffer={self.buffer}, "
            f"index={self.index}, count={self.count})"
        )
