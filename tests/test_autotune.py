"""Tests for the schedule autotuner and its plan tables."""

import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.algorithms import ring_allreduce
from repro.analysis import (
    Candidate,
    default_space,
    plan_table,
    tune,
)
from repro.core.ir import MscclIr
from repro.runtime import Communicator, PlanTable
from repro.topology import ndv4

KiB = 1024
MiB = 1024 * 1024


def ring_builder(channels, instances, protocol):
    return ring_allreduce(8, channels=channels, instances=instances,
                          protocol=protocol)


@pytest.fixture(scope="module")
def result():
    space = [
        Candidate(1, 2, "LL"),
        Candidate(4, 8, "LL"),
        Candidate(1, 24, "Simple"),
    ]
    sizes = [32 * KiB, 1 * MiB, 64 * MiB]
    return tune(ring_builder, ndv4(1), sizes,
                collective_sizing_chunks=8, space=space)


class TestTune:
    def test_all_candidates_timed_on_all_sizes(self, result):
        assert len(result.times) == 3 * 3

    def test_winner_is_actually_fastest(self, result):
        for size in result.sizes:
            winner_time = result.best_time(size)
            for candidate in result.candidates:
                assert winner_time <= result.times[(candidate, size)]

    def test_protocol_winners_follow_size(self, result):
        """LL configs win small, the wide Simple config wins large."""
        assert result.best[32 * KiB].protocol == "LL"
        assert result.best[64 * MiB].protocol == "Simple"

    def test_table_renders(self, result):
        table = result.table()
        assert "best config" in table
        for size in result.sizes:
            assert str(size) in table

    def test_infeasible_candidates_skipped(self):
        space = [
            Candidate(1, 2, "LL"),
            Candidate(8, 24, "Simple"),  # 192 TBs > 108 SMs
        ]
        outcome = tune(ring_builder, ndv4(1), [32 * KiB],
                       collective_sizing_chunks=8, space=space)
        assert len(outcome.candidates) == 1
        assert len(outcome.skipped) == 1
        assert "thread blocks" in outcome.skipped[0][1]

    def test_non_divisible_size_regression(self):
        """Sizes that don't divide by sizing_chunks go through the
        shared ceil-division helper, so tune and a standalone timer
        agree exactly (they used to disagree via float division)."""
        from repro.analysis import IrTimer

        space = [Candidate(1, 2, "LL")]
        size = 1000  # 1000 / 8 chunks is not integral
        outcome = tune(ring_builder, ndv4(1), [size],
                       collective_sizing_chunks=8, space=space)
        (candidate,) = outcome.candidates
        timer = IrTimer(outcome.compiled[candidate], ndv4(1), 8)
        assert outcome.times[(candidate, size)] == timer(size)

    def test_times_match_a_fresh_simulation(self, result):
        """Sequential tunes time every point as one IrSimulator run at
        the shared chunk sizing, exactly."""
        from repro.runtime import chunk_bytes_for
        from repro.runtime.simulator import IrSimulator

        for (candidate, size), elapsed in result.times.items():
            simulator = IrSimulator(result.compiled[candidate], ndv4(1))
            assert elapsed == simulator.run(
                chunk_bytes=chunk_bytes_for(size, 8)).time_us

    def test_rank_mismatch_fails_before_any_compile(self, monkeypatch):
        from repro.analysis import autotune
        from repro.core.errors import RuntimeConfigError

        compiles = []
        monkeypatch.setattr(autotune, "compile_program",
                            lambda *a, **k: compiles.append(a))

        def four_ranks(channels, instances, protocol):
            return ring_allreduce(4, channels=channels,
                                  instances=instances, protocol=protocol)

        for jobs in (1, 2):
            with pytest.raises(RuntimeConfigError, match="4-rank"):
                tune(four_ranks, ndv4(1), [KiB],
                     collective_sizing_chunks=4,
                     space=[Candidate(1, 1, "LL")], jobs=jobs)
        assert compiles == []

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            tune(ring_builder, ndv4(1), [KiB],
                 collective_sizing_chunks=8,
                 space=[Candidate(8, 24, "Simple")])

    def test_default_space_shape(self):
        space = default_space(max_channels=4, max_instances=8)
        assert all(c.channels <= 4 and c.instances <= 8 for c in space)
        protocols = {c.protocol for c in space}
        assert protocols == {"LL", "LL128", "Simple"}


class TestBuildRegistry:
    """plan_table(): the tuner's winners as one tiled PlanTable."""

    def test_ranges_are_contiguous_and_cover_everything(self, result):
        table = plan_table(result)
        # Every size (including ones between grid points) selects some
        # plan.
        for size in (0, 1, 32 * KiB, 100 * KiB, 1 * MiB, 10 * MiB,
                     64 * MiB, 10 ** 12):
            assert table.select(size) is not None
        assert table.rows[0][0] == 0
        assert table.rows[-1][1] == math.inf
        for (_, hi, _), (lo, _, _) in zip(table.rows, table.rows[1:]):
            assert lo == hi + 1

    def test_selection_matches_winners(self, result):
        table = plan_table(result)
        for size in result.sizes:
            plan = table.select(size)
            winner = result.best[size]
            assert plan.label == winner.label
            assert plan.ir is result.compiled[winner]
            assert plan.sizing_chunks == result.sizing_chunks

    def test_adjacent_same_winner_merges(self):
        space = [Candidate(1, 2, "LL")]
        outcome = tune(ring_builder, ndv4(1),
                       [KiB, 2 * KiB, 4 * KiB],
                       collective_sizing_chunks=8, space=space)
        table = plan_table(outcome)
        assert len(table.rows) == 1

    def test_compiled_holds_bare_irs(self, result):
        assert set(result.compiled) == set(result.candidates)
        assert all(type(ir) is MscclIr for ir in result.compiled.values())

    def test_communicator_replay_matches_tuned_time(self):
        """A size that does not divide into the 8 chunks sizes the same
        way (rounded up) in tune and in the communicator's replay."""
        size = 1_000_003
        outcome = tune(ring_builder, ndv4(1), [size],
                       collective_sizing_chunks=8,
                       space=[Candidate(1, 2, "LL")])
        comm = Communicator(ndv4(1))
        comm.register_table("allreduce", plan_table(outcome))
        assert comm.all_reduce(size).time_us == outcome.best_time(size)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10 ** 9),
                          st.sampled_from("abc")),
                min_size=1, max_size=12))
def test_tiling_covers_every_size_once(draws):
    """Rows tile [0, inf) with no gap or overlap, every tuned size
    selects its own winner, and no two adjacent rows share one."""
    winners = dict(draws)
    sizes = sorted(winners)
    table = PlanTable.tiled(sizes, winners.__getitem__,
                            lambda winner, first: (winner, first))
    rows = table.rows
    assert rows[0][0] == 0 and rows[-1][1] == math.inf
    for (_, hi, before), (lo, _, after) in zip(rows, rows[1:]):
        assert lo == hi + 1
        assert before[0] != after[0]
    for size in sizes:
        assert table.select(size)[0] == winners[size]
        assert sum(lo <= size <= hi for lo, hi, _ in rows) == 1
