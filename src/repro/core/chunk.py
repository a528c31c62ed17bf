"""Chunk identities: the values the DSL's abstract semantics track.

The paper (section 3.1) distinguishes three kinds of chunk:

* **Input chunks**, uniquely identified by ``(rank, index)`` into the
  rank's input buffer.
* **Reduction chunks**, identified by the collection of input chunks that
  were combined through the point-wise reduction.
* **Uninitialized chunks**, a unit type filling output/scratch buffers at
  program start.

Tracking these identities while tracing is what lets the compiler verify
an algorithm against a collective's postcondition without running it on
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple


@dataclass(frozen=True)
class InputChunk:
    """A chunk initialized at runtime in some rank's input buffer."""

    rank: int
    index: int

    def __repr__(self) -> str:
        return f"c[{self.rank},{self.index}]"


@dataclass(frozen=True)
class Uninitialized:
    """The unit value stored by output/scratch buffers before any write."""

    def __repr__(self) -> str:
        return "<uninit>"


UNINITIALIZED = Uninitialized()

# A reduction is a multiset of input chunks: the identity is insensitive
# to the order reductions happened in (sums commute) but sensitive to
# multiplicity, so reducing the same chunk twice is distinguishable.
_Contribution = Tuple[InputChunk, int]


@dataclass(frozen=True)
class ReductionChunk:
    """The result of point-wise reducing two or more chunks.

    ``contributions`` is a canonical (sorted) tuple of
    ``(input_chunk, multiplicity)`` pairs.
    """

    contributions: Tuple[_Contribution, ...]

    @staticmethod
    def of(*chunks: "Chunk") -> "ReductionChunk":
        """Build the reduction of the given chunks (inputs or reductions)."""
        # Merge multiplicities by integer (rank, index): sorting those
        # keys gives the canonical order without a key function.
        merged: Dict[Tuple[int, int], list] = {}
        for chunk in chunks:
            if isinstance(chunk, InputChunk):
                pairs: Tuple[_Contribution, ...] = ((chunk, 1),)
            elif isinstance(chunk, ReductionChunk):
                pairs = chunk.contributions
            else:
                raise TypeError(f"cannot reduce {chunk!r}")
            for contrib, mult in pairs:
                entry = merged.setdefault((contrib.rank, contrib.index),
                                          [contrib, 0])
                entry[1] += mult
        return ReductionChunk(
            tuple(tuple(merged[key]) for key in sorted(merged))
        )

    @property
    def inputs(self) -> FrozenSet[InputChunk]:
        """The set of distinct input chunks contributing to this value."""
        return frozenset(c for c, _ in self.contributions)

    def __repr__(self) -> str:
        terms = []
        for chunk, mult in self.contributions:
            terms.append(f"{mult}*{chunk!r}" if mult > 1 else repr(chunk))
        return "(" + "+".join(terms) + ")"


Chunk = object  # union: InputChunk | ReductionChunk | Uninitialized


def reduce_chunks(a: Chunk, b: Chunk) -> ReductionChunk:
    """Abstract semantics of the point-wise reduce of two chunk values."""
    return ReductionChunk.of(a, b)


def is_initialized(chunk: Chunk) -> bool:
    """True when ``chunk`` holds data (is not the uninitialized unit)."""
    return not isinstance(chunk, Uninitialized)


def allreduce_result(num_ranks: int, index: int) -> ReductionChunk:
    """The reduction chunk AllReduce must place at ``index`` on every rank."""
    return ReductionChunk.of(*(InputChunk(r, index) for r in range(num_ranks)))
