"""Property-based tests (hypothesis) for compiler and runtime invariants.

The centerpiece: for *arbitrary* randomly generated chunk-routing
programs, the compiled IR must (a) pass the deadlock audit, and (b)
produce, on real data, exactly the values the abstract trace semantics
promise at every initialized location. This exercises tracing, lowering,
fusion, scheduling, and the executor end to end far beyond the
hand-written algorithms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AllReduce,
    Buffer,
    CompilerOptions,
    Custom,
    MSCCLProgram,
    audit_ir,
    chunk,
    compile_program,
)
from repro.core.buffers import BufferState
from repro.core.chunk import InputChunk, ReductionChunk, reduce_chunks
from repro.core.lowering import _units
from repro.runtime import IrExecutor
from tests.conftest import build_ring_allreduce

# -- strategies -----------------------------------------------------------

@st.composite
def random_programs(draw):
    """A random but *valid* chunk-routing program description.

    Ops may span multiple chunks (count > 1), sit inside a
    ``parallelize`` region, and carry channel directives — the whole
    surface the compiler must get right.
    """
    num_ranks = draw(st.integers(2, 4))
    num_chunks = draw(st.integers(1, 3))
    n_ops = draw(st.integers(1, 12))
    ops = []
    for _ in range(n_ops):
        count = draw(st.integers(1, num_chunks))
        ops.append((
            draw(st.sampled_from(["copy", "reduce"])),
            draw(st.integers(0, num_ranks - 1)),      # src rank
            draw(st.integers(0, num_chunks - count)),  # src index
            draw(st.sampled_from(["in", "sc"])),      # src buffer
            draw(st.integers(0, num_ranks - 1)),      # dst rank
            draw(st.integers(0, num_chunks - count)),  # dst index
            draw(st.sampled_from(["out", "sc"])),     # dst buffer
            count,
            draw(st.sampled_from([None, 0, 1])),      # channel directive
            draw(st.booleans()),                      # inside parallelize
        ))
    instances = draw(st.integers(1, 2))
    group = draw(st.integers(1, 3))
    return (num_ranks, num_chunks, ops, instances, group)


def trace_random_program(description):
    """Replay a random description, skipping ops that would be invalid
    (uninitialized reads are skipped; that is part of the semantics)."""
    from repro.core import parallelize
    from repro.core.errors import UninitializedChunkError

    num_ranks, num_chunks, ops, instances, group = description
    collective = Custom(
        num_ranks,
        postcondition_fn=lambda rank: {},
        input_chunks_fn=lambda rank: num_chunks,
        output_chunks_fn=lambda rank: num_chunks,
        name="gossip",
    )
    applied = 0

    def apply_op(op) -> int:
        (kind, s_rank, s_idx, s_buf, d_rank, d_idx, d_buf,
         count, channel, _grouped) = op
        try:
            source = chunk(s_rank, s_buf, s_idx, count=count)
        except UninitializedChunkError:
            return 0
        if kind == "copy":
            source.copy(d_rank, d_buf, d_idx, ch=channel)
            return 1
        try:
            dest = chunk(d_rank, d_buf, d_idx, count=count)
        except UninitializedChunkError:
            return 0
        if (dest.rank, dest.buffer, dest.index) == (
                source.rank, source.buffer, source.index):
            return 0  # self-reduce is not meaningful
        dest.reduce(source, ch=channel)
        return 1

    with MSCCLProgram("random", collective,
                      instances=instances) as program:
        for op in ops:
            if op[-1] and group > 1:
                with parallelize(group):
                    applied += apply_op(op)
            else:
                applied += apply_op(op)
    return program, applied


# -- the end-to-end property ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_random_programs_compile_and_compute_correctly(description):
    program, applied = trace_random_program(description)
    ir = compile_program(program, CompilerOptions(verify=False))
    audit_ir(ir, num_slots=8)

    executor = IrExecutor(ir, program.collective, elements_per_chunk=8)
    executor.run()
    # Every initialized abstract location must hold exactly the data the
    # trace semantics promise (inputs and sums of inputs).
    for rank in range(program.num_ranks):
        for buffer in (Buffer.OUTPUT, Buffer.SCRATCH):
            state = program.buffer_state(rank, buffer)
            for index, value in state.snapshot().items():
                expected = executor.expected_chunk(rank, value)
                actual = executor.buffers[(rank, buffer)][index]
                np.testing.assert_allclose(
                    actual, expected, rtol=1e-9, atol=1e-9,
                    err_msg=f"rank {rank} {buffer} [{index}]",
                )


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(1, 3))
def test_ring_allreduce_verifies_at_any_size(num_ranks, factor, instances):
    program = build_ring_allreduce(num_ranks, instances=instances)
    ir = compile_program(program, CompilerOptions())
    IrExecutor(ir, program.collective,
               elements_per_chunk=6).run_and_check()


# -- data-structure properties -------------------------------------------------


@settings(max_examples=100)
@given(st.integers(0, (1 << 60) - 1), st.integers(0, 60),
       st.integers(0, 60))
def test_subtract_removes_exactly_the_range(held, a, b):
    """Overwriting units [lo, hi) of a lowering bitmask removes exactly
    those units and keeps every other one."""
    lo, hi = min(a, b), max(a, b)
    written = _units(lo, hi)
    result = held & ~written
    assert not result & written
    assert result | (held & written) == held
    assert bin(written).count("1") == hi - lo


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)),
                min_size=1, max_size=10))
def test_reduction_identity_is_permutation_invariant(pairs):
    chunks = [InputChunk(r, i) for r, i in pairs]
    forward = chunks[0]
    for c in chunks[1:]:
        forward = reduce_chunks(forward, c)
    backward = chunks[-1]
    for c in reversed(chunks[:-1]):
        backward = reduce_chunks(backward, c)
    if len(chunks) > 1:
        assert forward == backward


@settings(max_examples=50)
@given(st.integers(1, 12), st.integers(1, 12))
def test_instance_fractions_partition_unit_interval(r, g):
    """The r x g instances of one op partition a chunk's D units for a
    common denominator D that their count divides."""
    total = r * g
    denominator = total * 6
    width = denominator // total
    masks = [_units(k * width, (k + 1) * width) for k in range(total)]
    covered = 0
    for mask in masks:
        assert not covered & mask
        covered |= mask
    assert covered == (1 << denominator) - 1


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20)),
                min_size=1, max_size=30))
def test_bufferstate_versions_monotone(writes):
    state = BufferState(Buffer.SCRATCH, rank=0, size=None)
    seen = {}
    for index, stamp in writes:
        state.write(index, [InputChunk(0, stamp)])
        version = state.versions(index, 1)[0]
        assert version == seen.get(index, 0) + 1
        seen[index] = version
        assert state.read(index, 1) == [InputChunk(0, stamp)]
