"""Tests for collective pre/postconditions and in-place aliasing."""

import pytest

from repro.core.buffers import Buffer
from repro.core.chunk import InputChunk, ReductionChunk, allreduce_result
from repro.core.collectives import (
    AllGather,
    AllReduce,
    AllToAll,
    AllToNext,
    Custom,
    Reduce,
    ReduceScatter,
)
from repro.core.errors import ProgramError, VerificationError
from repro.core.program import MSCCLProgram, chunk
from repro.core.verification import check_postcondition


class TestAllReduce:
    def test_sizes(self):
        coll = AllReduce(4, chunk_factor=8)
        assert coll.input_chunks(0) == 8
        assert coll.output_chunks(0) == 8
        assert coll.sizing_chunks() == 8

    def test_postcondition_is_full_reduction(self):
        coll = AllReduce(3, chunk_factor=2)
        post = coll.postcondition(1)
        assert post[0] == allreduce_result(3, 0)
        assert post[1] == allreduce_result(3, 1)

    def test_precondition_unique_chunks(self):
        coll = AllReduce(2, chunk_factor=2)
        assert coll.precondition(1) == {
            0: InputChunk(1, 0), 1: InputChunk(1, 1)
        }

    def test_in_place_alias_is_identity_offset(self):
        coll = AllReduce(2, chunk_factor=4, in_place=True)
        assert coll.alias(1, Buffer.INPUT, 3) == (Buffer.OUTPUT, 3)

    def test_out_of_place_alias_untouched(self):
        coll = AllReduce(2, chunk_factor=4)
        assert coll.alias(1, Buffer.INPUT, 3) == (Buffer.INPUT, 3)


class TestAllGather:
    def test_sizes(self):
        coll = AllGather(4, chunk_factor=2)
        assert coll.input_chunks(0) == 2
        assert coll.output_chunks(0) == 8
        assert coll.sizing_chunks() == 8

    def test_postcondition_places_every_input(self):
        coll = AllGather(3, chunk_factor=1)
        post = coll.postcondition(0)
        assert post == {r: InputChunk(r, 0) for r in range(3)}

    def test_in_place_offset_by_rank(self):
        coll = AllGather(4, chunk_factor=2, in_place=True)
        assert coll.alias(2, Buffer.INPUT, 1) == (Buffer.OUTPUT, 5)


class TestReduceScatter:
    def test_out_of_place_postcondition(self):
        coll = ReduceScatter(4, chunk_factor=1)
        post = coll.postcondition(2)
        assert list(post) == [0]
        assert post[0] == allreduce_result(4, 2)

    def test_in_place_postcondition_lands_at_segment(self):
        coll = ReduceScatter(4, chunk_factor=1, in_place=True)
        post = coll.postcondition(2)
        assert list(post) == [2]
        assert post[2] == allreduce_result(4, 2)


class TestAllToAll:
    def test_transpose_postcondition(self):
        coll = AllToAll(3, chunk_factor=1)
        post = coll.postcondition(2)
        assert post == {src: InputChunk(src, 2) for src in range(3)}

    def test_block_transpose_with_chunk_factor(self):
        coll = AllToAll(2, chunk_factor=2)
        post = coll.postcondition(1)
        assert post[0] == InputChunk(0, 2)  # src 0, block 1, k 0
        assert post[3] == InputChunk(1, 3)  # src 1, block 1, k 1


class TestAllToNext:
    def test_rank0_unconstrained(self):
        coll = AllToNext(3, chunk_factor=2)
        assert coll.postcondition(0) == {}

    def test_later_ranks_receive_predecessor(self):
        coll = AllToNext(3, chunk_factor=2)
        assert coll.postcondition(2) == {
            0: InputChunk(1, 0), 1: InputChunk(1, 1)
        }


class TestCustom:
    def test_custom_postcondition_function(self):
        coll = Custom(
            2,
            postcondition_fn=lambda rank: {0: InputChunk(1 - rank, 0)},
            name="swap",
        )
        assert coll.name == "swap"
        assert coll.postcondition(0) == {0: InputChunk(1, 0)}

    def test_custom_sizes(self):
        coll = Custom(
            2,
            postcondition_fn=lambda rank: {},
            input_chunks_fn=lambda rank: 3,
            output_chunks_fn=lambda rank: 5,
        )
        assert coll.input_chunks(0) == 3
        assert coll.output_chunks(0) == 5


class TestValidation:
    def test_zero_ranks_rejected(self):
        with pytest.raises(ProgramError):
            AllReduce(0)

    def test_zero_chunk_factor_rejected(self):
        with pytest.raises(ProgramError):
            AllReduce(2, chunk_factor=0)

    def test_repr_mentions_ranks(self):
        assert "ranks=4" in repr(AllReduce(4))


def _fresh_reduction(num_ranks, index):
    return ReductionChunk.of(
        *(InputChunk(r, index) for r in range(num_ranks))
    )


def _expected(coll, rank):
    """The reducing postconditions, written out independently."""
    n, cf = coll.num_ranks, coll.chunk_factor
    if isinstance(coll, ReduceScatter):
        base = rank * cf if coll.in_place else 0
        return {base + i: _fresh_reduction(n, rank * cf + i)
                for i in range(cf)}
    if isinstance(coll, Reduce) and rank != coll.root:
        return {}
    return {i: _fresh_reduction(n, i) for i in range(cf)}


REDUCING = {
    "allreduce": lambda n: AllReduce(n, chunk_factor=3),
    "allreduce_in_place": lambda n: AllReduce(n, chunk_factor=2,
                                              in_place=True),
    "reducescatter": lambda n: ReduceScatter(n, chunk_factor=2),
    "reducescatter_in_place": lambda n: ReduceScatter(
        n, chunk_factor=2, in_place=True),
    "reduce": lambda n: Reduce(n, chunk_factor=2, root=n - 1),
}


def _gathering_program(coll, drop_one):
    """Build every expected reduction on its rank by copying the inputs
    into scratch and reducing them; ``drop_one`` leaves out the last
    contribution of each."""
    with MSCCLProgram("gather", coll) as program:
        slot = 0
        for rank in range(coll.num_ranks):
            for index, want in sorted(coll.postcondition(rank).items()):
                inputs = [c for c, _ in want.contributions]
                if drop_one:
                    inputs = inputs[:-1]
                acc = chunk(inputs[0].rank, "in", inputs[0].index).copy(
                    rank, "sc", slot)
                for src in inputs[1:]:
                    acc = acc.reduce(chunk(src.rank, "in", src.index).copy(
                        rank, "sc", slot + 1))
                acc.copy(rank, "out", index)
                slot += 2
    return program


@pytest.mark.parametrize("num_ranks", [4, 8])
@pytest.mark.parametrize("kind", sorted(REDUCING))
class TestReducingPostconditions:
    def test_mappings_equal_freshly_built_ones(self, kind, num_ranks):
        coll = REDUCING[kind](num_ranks)
        for _ in range(2):  # a second call reuses what the first built
            for rank in range(num_ranks):
                assert coll.postcondition(rank) == _expected(coll, rank)

    def test_each_call_returns_its_own_mapping(self, kind, num_ranks):
        coll = REDUCING[kind](num_ranks)
        first = coll.postcondition(coll.num_ranks - 1)
        first.clear()
        assert coll.postcondition(coll.num_ranks - 1)


# In place, the gathering program would overwrite inputs it still reads.
@pytest.mark.parametrize("num_ranks", [4, 8])
@pytest.mark.parametrize("kind", ["allreduce", "reducescatter", "reduce"])
def test_wrong_program_is_still_rejected(kind, num_ranks):
    make = REDUCING[kind]
    check_postcondition(_gathering_program(make(num_ranks), False))
    with pytest.raises(VerificationError, match="expected"):
        check_postcondition(_gathering_program(make(num_ranks), True))


def test_allreduce_shares_one_reduction_across_ranks():
    coll = AllReduce(8, chunk_factor=2)
    assert coll.postcondition(0)[1] is coll.postcondition(7)[1]
