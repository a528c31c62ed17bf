"""Tests for sweeps, tables, the plan table, and the end-to-end model."""

import pytest

from repro.analysis import (
    GiB,
    KiB,
    MiB,
    Series,
    SweepResult,
    WorkloadModel,
    CollectiveCall,
    chunk_bytes_for,
    format_size,
    inference_serving_step,
    ir_timer,
    latency_table,
    moe_training_step,
    run_sweep,
    size_grid,
    speedup_table,
    summary_lines,
)
from repro.core import CompilerOptions, compile_program
from repro.runtime import Communicator, Plan, PlanTable
from repro.core.errors import RuntimeConfigError
from repro.algorithms import ring_allgather
from repro.topology import generic, ndv4
from tests.conftest import build_ring_allreduce


class TestSizeGrid:
    def test_powers_of_two(self):
        assert size_grid(KiB, 8 * KiB) == [KiB, 2 * KiB, 4 * KiB, 8 * KiB]

    def test_inverted_bounds_name_both_ends(self):
        with pytest.raises(ValueError) as err:
            size_grid(8 * KiB, KiB)
        message = str(err.value)
        assert str(8 * KiB) in message and str(KiB) in message

    def test_nonpositive_start_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            size_grid(0, KiB)
        with pytest.raises(ValueError, match="positive"):
            size_grid(-KiB, KiB)

    def test_format_size(self):
        assert format_size(KiB) == "1KB"
        assert format_size(512 * KiB) == "512KB"
        assert format_size(3 * MiB) == "3MB"
        assert format_size(2 * GiB) == "2GB"

    def test_format_size_bytes_branch(self):
        assert format_size(512) == "512B"
        assert format_size(1) == "1B"
        assert format_size(0) == "0B"

    def test_format_size_unit_boundaries(self):
        assert format_size(KiB - 1) == "1023B"
        assert format_size(MiB - KiB) == "1023KB"
        assert format_size(MiB) == "1MB"
        assert format_size(GiB - MiB) == "1023MB"
        assert format_size(GiB) == "1GB"


class TestChunkBytesFor:
    def test_exact_division(self):
        assert chunk_bytes_for(1024, 8) == 128

    def test_rounds_up_not_down(self):
        # 970 bytes over 8 chunks: the runtime moves 8x122, never
        # fractional 121.25-byte chunks.
        assert chunk_bytes_for(970, 8) == 122

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            chunk_bytes_for(1024, 0)
        with pytest.raises(ValueError):
            chunk_bytes_for(-1.0, 4)


class TestSweep:
    def _sweep(self):
        sizes = [KiB, 2 * KiB]
        return run_sweep("t", sizes, {
            "fast": lambda s: s / 1000,
            "slow": lambda s: s / 500,
        })

    def test_series_recorded(self):
        result = self._sweep()
        assert set(result.series) == {"fast", "slow"}
        assert result.series["fast"].times_us == [1.024, 2.048]

    def test_speedups(self):
        result = self._sweep()
        speedups = result.speedups("slow")
        assert speedups["fast"] == pytest.approx([2.0, 2.0])

    def test_best_speedup(self):
        result = self._sweep()
        assert result.best_speedup("fast", "slow") == pytest.approx(2.0)

    def test_mismatched_grid_rejected(self):
        result = self._sweep()
        with pytest.raises(ValueError):
            result.add(Series("x", [KiB], [1.0]))

    def test_speedup_grid_mismatch_rejected(self):
        a = Series("a", [KiB], [1.0])
        b = Series("b", [2 * KiB], [1.0])
        with pytest.raises(ValueError):
            a.speedup_over(b)


class TestTables:
    def test_latency_table_renders_all_cells(self):
        table = latency_table(self._sweep())
        assert "fast" in table and "slow" in table
        assert "1KB" in table and "2KB" in table

    def test_speedup_table_has_baseline_column(self):
        table = speedup_table(self._sweep(), "slow")
        assert "2.00x" in table and "1.00x" in table

    def test_summary_lines(self):
        lines = summary_lines(self._sweep(), "slow")
        assert any("fast" in line and "2.00x" in line for line in lines)

    def _sweep(self):
        return run_sweep("t", [KiB, 2 * KiB], {
            "fast": lambda s: s / 1000,
            "slow": lambda s: s / 500,
        })


class TestIrTimer:
    def test_timer_runs_simulation(self):
        program = build_ring_allreduce(4)
        ir = compile_program(program, CompilerOptions())
        topo = ndv4(1)

        # A 4-rank program on an 8-GPU node is fine: pad via generic.
        timer = ir_timer(ir, generic(4, 1), program.collective)
        assert timer(MiB) > 0
        assert timer(16 * MiB) > timer(MiB)


class TestRegistry:
    """Size selection through PlanTable and the communicator's tables."""

    def _registry(self):
        program = build_ring_allreduce(4)
        algo = compile_program(program, CompilerOptions())
        comm = Communicator(generic(4, 1))
        table = comm.register(algo, min_bytes=0, max_bytes=MiB,
                              label="small")
        return comm, table, algo

    def test_selects_by_size(self):
        comm, table, algo = self._registry()
        plan = table.select(512 * KiB)
        assert plan.ir is algo.ir
        assert plan.label == "small"
        comm.all_reduce(512 * KiB)
        assert comm.history[-1].algorithm == "small"

    def test_sizing_adopted_from_compiled_algorithm(self):
        _comm, table, algo = self._registry()
        (_lo, _hi, plan), = table.rows
        assert plan.sizing_chunks == algo.sizing_chunks()

    def test_no_match_no_fallback_raises(self):
        comm, table, algo = self._registry()
        assert table.select(8 * MiB) is None
        # allgather has no NCCL built-in to fall back to.
        program = ring_allgather(4)
        gather = compile_program(program, CompilerOptions())
        comm.register(gather, max_bytes=MiB)
        with pytest.raises(RuntimeConfigError):
            comm.all_gather(8 * MiB)

    def test_wrong_collective_rejected(self):
        comm, table, _algo = self._registry()
        with pytest.raises(RuntimeConfigError, match="implements"):
            comm.register_table("alltoall", table)

    def test_empty_range_rejected(self):
        comm, table, algo = self._registry()
        with pytest.raises(RuntimeConfigError, match="empty size range"):
            comm.register(algo, min_bytes=10, max_bytes=5)
        with pytest.raises(RuntimeConfigError, match="empty size range"):
            PlanTable(((10, 5, table.select(0)),))
        # A rejected registration leaves the existing table in place.
        assert comm.register(algo).rows[:1] == table.rows

    def test_first_match_wins(self):
        comm, table, algo = self._registry()
        program2 = build_ring_allreduce(4, instances=2)
        algo2 = compile_program(program2, CompilerOptions())
        table = comm.register(algo2, min_bytes=0, max_bytes=MiB,
                              label="later")
        assert table.select(KiB).ir is algo.ir
        assert isinstance(table.select(KiB), Plan)


class TestEndToEndModel:
    def _timers(self, scale):
        return {
            "allreduce": lambda nbytes: scale * nbytes / 1000,
            "alltoall": lambda nbytes: scale * nbytes / 1000,
        }

    def test_speedup_follows_amdahl(self):
        model = WorkloadModel("w", compute_us=1000, calls=[
            CollectiveCall("allreduce", 1_000_000, calls_per_step=1),
        ])
        # Communication halves: step speedup is bounded by comm share.
        speedup = model.speedup(self._timers(1.0), self._timers(0.5))
        comm_fraction = model.communication_fraction(self._timers(1.0))
        assert 1 < speedup < 2
        assert speedup == pytest.approx(
            1 / (1 - comm_fraction + comm_fraction / 2)
        )

    def test_overlap_shrinks_comm_cost(self):
        model = WorkloadModel("w", compute_us=1000, calls=[
            CollectiveCall("allreduce", 1_000_000),
        ])
        full = model.step_time_us(self._timers(1.0))
        overlapped = model.step_time_us(self._timers(1.0), overlap=0.5)
        assert overlapped < full

    def test_overlap_out_of_range_rejected(self):
        model = WorkloadModel("w", compute_us=1000, calls=[])
        with pytest.raises(ValueError):
            model.step_time_us({}, overlap=1.0)
        with pytest.raises(ValueError):
            model.step_time_us({}, overlap=-0.1)

    def test_degenerate_model_has_zero_comm_fraction(self):
        model = WorkloadModel("w", compute_us=0.0, calls=[])
        assert model.communication_fraction({}) == 0.0

    def test_prebuilt_workloads(self):
        moe = moe_training_step(16)
        serving = inference_serving_step()
        assert any(c.name == "alltoall" for c in moe.calls)
        assert all(c.name == "allreduce" for c in serving.calls)
        assert moe.step_time_us(self._timers(1.0)) > moe.compute_us
