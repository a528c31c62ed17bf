"""Tests for the NCCL-like Communicator facade."""

import pytest

from repro.algorithms import ring_allgather, ring_allreduce
from repro.core import CompilerOptions, compile_program
from repro.core.errors import RuntimeConfigError
from repro.runtime import Communicator
from repro.topology import generic, ndv4

KiB = 1024
MiB = 1024 * 1024


@pytest.fixture
def communicator():
    comm = Communicator(ndv4(1))
    program = ring_allreduce(8, channels=4, instances=8, protocol="LL")
    algo = compile_program(program, CompilerOptions(max_threadblocks=108))
    comm.register(algo, min_bytes=0, max_bytes=2 * MiB, label="ring-ll")
    return comm


class TestSelection:
    def test_registered_program_used_in_range(self, communicator):
        communicator.all_reduce(256 * KiB)
        assert communicator.history[-1].algorithm == "ring-ll"

    def test_fallback_outside_range(self, communicator):
        communicator.all_reduce(64 * MiB)
        assert communicator.history[-1].algorithm == "nccl-fallback"

    def test_fallback_without_any_registration(self):
        comm = Communicator(ndv4(1))
        result = comm.all_reduce(MiB)
        assert result.time_us > 0
        assert comm.history[-1].algorithm == "nccl-fallback"

    def test_no_fallback_collective_raises(self):
        comm = Communicator(ndv4(1))
        with pytest.raises(RuntimeConfigError):
            comm.all_gather(MiB)

    def test_allgather_served_when_registered(self):
        comm = Communicator(ndv4(1))
        program = ring_allgather(8, channels=2, instances=4)
        algo = compile_program(
            program, CompilerOptions(max_threadblocks=108)
        )
        comm.register(algo, label="ag")
        result = comm.all_gather(4 * MiB)
        assert result.time_us > 0
        assert comm.history[-1].algorithm == "ag"

    def test_rank_mismatch_rejected(self):
        comm = Communicator(ndv4(2))
        program = ring_allreduce(8)
        algo = compile_program(program)
        with pytest.raises(RuntimeConfigError, match="ranks"):
            comm.register(algo)

    def test_bare_ir_rejected(self, communicator):
        program = ring_allreduce(8)
        algo = compile_program(program)
        with pytest.raises(RuntimeConfigError, match="CompiledAlgorithm"):
            communicator.register(algo.ir)

    def test_old_pair_shape_removed(self):
        # The PR-1 deprecation cycle is complete: the (ir, collective)
        # pair is no longer accepted, positionally or otherwise.
        comm = Communicator(ndv4(1))
        program = ring_allreduce(8, channels=4, instances=8,
                                 protocol="LL")
        algo = compile_program(
            program, CompilerOptions(max_threadblocks=108)
        )
        with pytest.raises(TypeError):
            comm.register(algo.ir, program.collective)
        with pytest.raises(RuntimeConfigError,
                           match="CompiledAlgorithm"):
            comm.register(algo.ir)


class TestHistory:
    def test_every_call_recorded(self, communicator):
        communicator.all_reduce(KiB)
        communicator.all_reduce(64 * MiB)
        communicator.all_to_all(MiB)
        assert len(communicator.history) == 3
        assert communicator.history[2].collective == "alltoall"

    def test_total_time_accumulates(self, communicator):
        a = communicator.all_reduce(KiB).time_us
        b = communicator.all_reduce(MiB).time_us
        assert communicator.total_time_us() == pytest.approx(a + b)

    def test_summary_groups_by_algorithm(self, communicator):
        communicator.all_reduce(KiB)
        communicator.all_reduce(2 * KiB)
        communicator.all_reduce(64 * MiB)
        summary = communicator.summary()
        row = summary["allreduce"]
        assert row["calls"] == 3
        assert row["total_us"] == pytest.approx(
            communicator.total_time_us()
        )
        algos = row["algorithms"]
        assert algos["ring-ll"]["calls"] == 2
        assert algos["nccl-fallback"]["calls"] == 1

    def test_summary_text_renders_table(self, communicator):
        communicator.all_reduce(KiB)
        communicator.all_reduce(64 * MiB)
        text = communicator.summary_text()
        assert "ring-ll" in text
        assert "nccl-fallback" in text
        assert "allreduce" in text


class TestAutotuneIntegration:
    def test_registry_from_autotuner_plugs_in(self):
        from repro.analysis import Candidate, plan_table, tune

        def builder(channels, instances, protocol):
            return ring_allreduce(8, channels=channels,
                                  instances=instances, protocol=protocol)

        outcome = tune(
            builder, ndv4(1), [32 * KiB, 8 * MiB],
            collective_sizing_chunks=8,
            space=[Candidate(1, 2, "LL"), Candidate(1, 24, "Simple")],
        )
        comm = Communicator(ndv4(1))
        comm.register_table("allreduce", plan_table(outcome))
        comm.all_reduce(32 * KiB)
        comm.all_reduce(8 * MiB)
        labels = [record.algorithm for record in comm.history]
        assert labels[0] != labels[1]  # different winners per band

    def test_mismatched_table_rejected_at_adoption(self):
        from repro.analysis import Candidate, plan_table, tune

        def builder(channels, instances, protocol):
            return ring_allreduce(4, channels=channels,
                                  instances=instances, protocol=protocol)

        outcome = tune(builder, generic(4, 1), [32 * KiB],
                       collective_sizing_chunks=4,
                       space=[Candidate(1, 2, "LL")])
        table = plan_table(outcome)
        comm = Communicator(ndv4(1))
        with pytest.raises(RuntimeConfigError, match="4 ranks"):
            comm.register_table("allreduce", table)
        # Nothing was adopted: the call still falls back to NCCL.
        comm.all_reduce(32 * KiB)
        assert comm.history[-1].algorithm == "nccl-fallback"
