"""Golden values for the tracing layer.

The compile cache keys every compile by :func:`program_digest`, and
disk entries written by earlier versions stay valid only while it is
byte-identical. These tests pin digests of three catalog programs, the
full Chunk DAG rendering (ops, true and false edges) of an 8-rank ring,
a property every derived edge must satisfy, that a DSL call that
fails leaves the trace untouched, that a traced program pickles and is
freed without the cyclic collector, and that edges stay derivable.
"""

import argparse
import gc
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import given, seed, settings

from repro.algorithms import ring_allreduce
from repro.core import AllReduce, MSCCLProgram, chunk
from repro.core.buffers import Buffer
from repro.core.cache import program_digest
from repro.core.dag import span_locations
from repro.core.errors import ProgramError, UninitializedChunkError
from repro.core.visualize import chunk_dag_dot
from repro.tools.cli import ALGORITHMS
from tests.test_property import random_programs, trace_random_program

GOLDEN = Path(__file__).parent / "golden"

# (catalog name, ranks, nodes, instances, protocol) -> program_digest.
DIGESTS = [
    (("hierarchical_allreduce", 32, 4, 1, "Simple"),
     "fde5daf1c05c4add954df0921898ccefd4a1bbf8a6596eb3df6aad607d20b46a"),
    (("naive_alltoall", 32, 4, 1, "LL128"),
     "eeab7c78df5c8b6588e7ad2ba43c2913a751fdd6f1b83d4d7118316535c41c1a"),
    (("ring_reducescatter", 16, 1, 2, "LL128"),
     "90cd2e2c66efca0c21f44297bfd46de44a55497ccbb2707b41fd34932df570a9"),
]


@pytest.mark.parametrize("config,digest", DIGESTS,
                         ids=[config[0] for config, _ in DIGESTS])
def test_program_digest_is_pinned(config, digest):
    name, ranks, nodes, instances, protocol = config
    args = argparse.Namespace(ranks=ranks, nodes=nodes, channels=1,
                              instances=instances, protocol=protocol)
    assert program_digest(ALGORITHMS[name](args)) == digest


def test_ring_chunk_dag_dot_is_pinned():
    dot = chunk_dag_dot(ring_allreduce(8).dag)
    assert dot + "\n" == (GOLDEN / "ring_allreduce_8.dot").read_text()


def _reads(op):
    spans = [op.src, op.dst] if op.kind == "reduce" else [op.src]
    return {loc for span in spans for loc in span_locations(span)}


@seed(1414)
@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_derived_edges_point_back_at_real_accesses(description):
    program, _applied = trace_random_program(description)
    ops = program.dag.ops
    for op in ops:
        assert op.true_deps <= op.deps
        for dep in op.deps:
            assert dep < op.op_id
        reads = set() if op.kind == "start" else _reads(op)
        for dep in op.true_deps:
            assert reads & set(span_locations(ops[dep].dst)), (
                f"{op!r} has a true dependency on {ops[dep]!r}, which "
                "wrote nothing it reads"
            )


def _trace_state(program):
    """Everything a traced op may change: ops, values, versions and
    lineage of every buffer on every rank."""
    state = {"ops": len(program.dag.ops)}
    for rank in range(program.num_ranks):
        for buffer in Buffer:
            try:
                buf = program.buffer_state(rank, buffer)
            except ProgramError:
                continue  # in place: no separate input buffer
            size = buf.size
            state[(rank, buffer)] = (
                buf.peek(0, size) if size else [],
                buf.versions(0, size) if size else [],
                list(buf._origins),
            )
    return state


def test_failed_dsl_calls_leave_the_trace_untouched():
    with MSCCLProgram("t", AllReduce(2, chunk_factor=4)) as program:
        chunk(0, "in", 0).copy(0, "sc", 0)
        chunk(0, "in", 1).copy(0, "sc", 2)   # sc[1] stays empty
        chunk(0, "in", 2).copy(1, "out", 0)  # out[1] stays empty
        before = _trace_state(program)
        with pytest.raises(UninitializedChunkError):
            chunk(0, "sc", 0, count=3).copy(1, "out", 0)
        with pytest.raises(UninitializedChunkError):
            chunk(1, "out", 0, count=2).copy(0, "sc", 4)
        # A destination out of range fails after the source was read,
        # still before anything is recorded.
        with pytest.raises(ProgramError, match="out of range"):
            chunk(0, "in", 0, count=2).copy(1, "out", 3)
        with pytest.raises(ProgramError, match="out of range"):
            chunk(1, "in", 2, count=2).reduce(chunk(0, "in", 3, count=2))
        assert _trace_state(program) == before


def test_pickled_program_keeps_its_trace():
    program = ring_allreduce(8)
    clone = pickle.loads(pickle.dumps(program))
    assert program_digest(clone) == program_digest(program)
    assert chunk_dag_dot(clone.dag) == chunk_dag_dot(program.dag)


def test_a_dropped_trace_is_freed_without_the_collector():
    # No reference cycle keeps a trace alive: once its program is
    # dropped the DAG is gone, and an op kept past it still derives the
    # same edges as one whose DAG is alive.
    live = ring_allreduce(4).dag.ops
    gc.disable()
    try:
        program = ring_allreduce(4)
        dag = weakref.ref(program.dag)
        ops = program.dag.ops
        del program
        assert dag() is None
        assert [(op.deps, op.true_deps) for op in reversed(ops)] == [
            (op.deps, op.true_deps) for op in reversed(live)]
        assert ops == live
    finally:
        gc.enable()


def test_ops_traced_after_a_query_get_edges():
    with MSCCLProgram("t", AllReduce(2, chunk_factor=1)) as program:
        first = chunk(0, "in", 0).copy(1, "sc", 0)
        copy = program.dag.ops[-1]
        assert copy.deps == {0}
        chunk(1, "sc", 0).reduce(chunk(1, "in", 0))
        reduce = program.dag.ops[-1]
        assert reduce.true_deps == {copy.op_id, 1}
        assert first.is_stale()
