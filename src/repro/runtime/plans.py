"""Size-range plan selection: one immutable table for every caller.

The paper's runtime "dynamically selects the right algorithm to invoke
based on user configurable size ranges and falls back to NCCL's
built-in algorithms otherwise" (section 6). :class:`PlanTable` is that
selection policy, and the only one: the :class:`~repro.runtime.api.
Communicator` keeps one table per collective, the autotuner packages
its per-size winners as one (:func:`~repro.analysis.autotune.
plan_table`), and the plan service serves each family from one. A row
is ``(min_bytes, max_bytes, plan)`` with both bounds inclusive; the
first matching row wins, and a size no row covers selects ``None`` so
the caller can fall back (the communicator to its NCCL model).

:func:`chunk_bytes_for` lives here too: it turns a call's buffer size
into the chunk payload a plan runs with, and the runtime, sweeps,
tuning and the CLI all size through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Generic, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

from ..core.errors import RuntimeConfigError
from ..core.ir import MscclIr

P = TypeVar("P")
W = TypeVar("W")


def chunk_bytes_for(buffer_bytes: float, chunks: int) -> int:
    """Bytes per chunk when a call buffer divides into ``chunks``.

    Rounded *up*, matching how the runtime tiles real buffers: a
    970-byte buffer over 8 chunks moves 8 chunks of 122 bytes, not
    fractional 121.25-byte chunks. Every byte->chunk sizing (the
    communicator, sweeps, tuning, the CLI) goes through here so they
    can never disagree.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if buffer_bytes < 0:
        raise ValueError(f"buffer_bytes must be >= 0, got {buffer_bytes}")
    return int(math.ceil(buffer_bytes / chunks))


class Plan(NamedTuple):
    """A compiled program ready to run on a call buffer.

    ``sizing_chunks`` is the number of chunks the buffer divides into
    (see :func:`chunk_bytes_for`); it comes from the program's
    collective, so a bare IR needs it spelled out.
    """

    ir: MscclIr
    label: str
    sizing_chunks: int


@dataclass(frozen=True)
class PlanTable(Generic[P]):
    """Immutable ``(min_bytes, max_bytes, plan)`` rows; first match wins."""

    rows: Tuple[Tuple[float, float, P], ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        for min_bytes, max_bytes, _plan in rows:
            if min_bytes > max_bytes:
                raise RuntimeConfigError(
                    f"empty size range [{min_bytes}, {max_bytes}]")
        object.__setattr__(self, "rows", rows)

    def select(self, nbytes: float) -> Optional[P]:
        """The plan for a buffer of ``nbytes``, or ``None``."""
        for min_bytes, max_bytes, plan in self.rows:
            if min_bytes <= nbytes <= max_bytes:
                return plan
        return None

    def appended(self, plan: P, *, min_bytes: float = 0.0,
                 max_bytes: float = math.inf) -> "PlanTable[P]":
        """A new table with one more row, matched after the others."""
        return PlanTable(self.rows + ((min_bytes, max_bytes, plan),))

    @classmethod
    def tiled(cls, sizes: Sequence[int], winner_of: Callable[[int], W],
              plan_of: Callable[[W, int], P]) -> "PlanTable[P]":
        """Tile ``[0, inf)`` from the winners of ascending ``sizes``.

        Adjacent sizes with equal winners merge into one row, built by
        ``plan_of(winner, first_size_of_the_run)``. Each row reaches up
        to (excluding) the next row's first size, the first row starts
        at 0 and the last reaches infinity, so the rows cover every
        size with no gap or overlap.
        """
        runs = []  # (first size, winner)
        for size in sizes:
            winner = winner_of(size)
            if not runs or runs[-1][1] != winner:
                runs.append((size, winner))
        rows = []
        for index, (first, winner) in enumerate(runs):
            min_bytes = 0 if index == 0 else first
            max_bytes = (runs[index + 1][0] - 1 if index + 1 < len(runs)
                         else math.inf)
            rows.append((min_bytes, max_bytes, plan_of(winner, first)))
        return cls(tuple(rows))
