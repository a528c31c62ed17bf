"""Tests for IR optimization passes, XML import, profiling, and fault
injection."""

import pytest

from repro.algorithms import alltonext, hierarchical_allreduce
from repro.core import (
    CompilerOptions,
    MscclIr,
    audit_ir,
    compile_program,
    ir_stats,
    prune_redundant_deps,
    renumber_channels,
)
from repro.core.errors import RuntimeConfigError, SimulationError
from repro.runtime import (
    IrExecutor,
    IrSimulator,
    SimConfig,
    critical_path,
    profile_threadblocks,
    slowest_threadblocks,
    timeline,
    utilization_report,
)
from repro.topology import generic, ndv4
from tests.conftest import build_ring_allreduce

MiB = 1024 * 1024


@pytest.fixture(scope="module")
def hierarchical_ir():
    program = hierarchical_allreduce(2, 4, intra_parallel=2)
    return compile_program(program, CompilerOptions()), program


class TestPrunedDeps:
    def test_pruning_preserves_correctness(self, hierarchical_ir):
        ir, program = hierarchical_ir
        fresh = MscclIr.from_json(ir.to_json())
        prune_redundant_deps(fresh)
        audit_ir(fresh)
        IrExecutor(fresh, program.collective).run_and_check()

    def test_pruning_never_adds_deps(self, hierarchical_ir):
        ir, _ = hierarchical_ir
        fresh = MscclIr.from_json(ir.to_json())
        before = ir_stats(fresh)["dep_entries"]
        prune_redundant_deps(fresh)
        after = ir_stats(fresh)["dep_entries"]
        assert after <= before

    def test_has_dep_flags_refreshed(self, hierarchical_ir):
        ir, _ = hierarchical_ir
        fresh = MscclIr.from_json(ir.to_json())
        prune_redundant_deps(fresh)
        needed = {
            (gpu.rank, dep_tb, dep_step)
            for gpu in fresh.gpus
            for tb in gpu.threadblocks
            for instr in tb.instructions
            for dep_tb, dep_step in instr.depends
        }
        flagged = {
            (gpu.rank, tb.tb_id, instr.step)
            for gpu in fresh.gpus
            for tb in gpu.threadblocks
            for instr in tb.instructions
            if instr.has_dep
        }
        assert flagged == needed

    def test_duplicate_dep_removed(self, hierarchical_ir):
        """Injecting a duplicate of an existing dep must be pruned."""
        ir, _ = hierarchical_ir
        fresh = MscclIr.from_json(ir.to_json())
        target = None
        for gpu in fresh.gpus:
            for tb in gpu.threadblocks:
                for instr in tb.instructions:
                    if instr.depends:
                        target = instr
                        break
        if target is None:
            pytest.skip("no cross-TB deps in this schedule")
        target.depends = target.depends + [target.depends[0]]
        prune_redundant_deps(fresh)
        assert len(target.depends) == len(set(target.depends))


class TestRenumberChannels:
    def test_channels_become_dense(self):
        program = build_ring_allreduce(4, channels=2, instances=2)
        ir = compile_program(program)
        for tb in ir.gpus[0].threadblocks:
            tb.channel += 7  # make them sparse
        renumber_channels(ir)
        channels = sorted({
            tb.channel for gpu in ir.gpus for tb in gpu.threadblocks
        })
        assert channels == list(range(len(channels)))

    def test_optimize_pipeline_runs(self, hierarchical_ir):
        """optimize=True runs prune_redundant_deps then
        renumber_channels on the scheduled IR, and stays correct."""
        ir, program = hierarchical_ir
        optimized = compile_program(program,
                                    CompilerOptions(optimize=True)).ir
        IrExecutor(optimized, program.collective).run_and_check()
        fresh = MscclIr.from_json(ir.to_json())
        renumber_channels(prune_redundant_deps(fresh))
        assert optimized.to_xml() == fresh.to_xml()


class TestXmlImport:
    def test_roundtrip_equals_original(self, hierarchical_ir):
        ir, _ = hierarchical_ir
        back = MscclIr.from_xml(ir.to_xml())
        assert back.to_dict() == ir.to_dict()

    def test_imported_ir_executes(self, hierarchical_ir):
        ir, program = hierarchical_ir
        back = MscclIr.from_xml(ir.to_xml())
        IrExecutor(back, program.collective).run_and_check()

    def test_imported_ir_simulates(self, hierarchical_ir):
        ir, _ = hierarchical_ir
        back = MscclIr.from_xml(ir.to_xml())
        result = IrSimulator(back, generic(4, 2)).run(chunk_bytes=4096)
        assert result.time_us > 0


@pytest.fixture(scope="module")
def traced_result():
    program = build_ring_allreduce(4, channels=2)
    ir = compile_program(program)
    simulator = IrSimulator(ir, generic(4, 1),
                            config=SimConfig(collect_trace=True))
    return simulator.run(chunk_bytes=256 * 1024)


class TestProfiling:
    def test_profiles_cover_all_threadblocks(self, traced_result):
        profiles = profile_threadblocks(traced_result)
        assert len(profiles) == traced_result.threadblocks
        for profile in profiles:
            assert profile.active_us > 0
            assert 0 < profile.utilization <= 1.0

    def test_slowest_sorted(self, traced_result):
        slowest = slowest_threadblocks(traced_result, top=3)
        ends = [p.last_end_us for p in slowest]
        assert ends == sorted(ends, reverse=True)

    def test_report_renders_every_block(self, traced_result):
        report = utilization_report(traced_result)
        assert report.count("r0/") == 2  # 2 channels -> 2 TBs on rank 0

    def test_critical_path_entries(self, traced_result):
        entries = critical_path(traced_result, top=4)
        assert len(entries) == 4
        assert all("us" in e for e in entries)

    def test_timeline_ascii(self, traced_result):
        art = timeline(traced_result, rank=0, width=32)
        assert "#" in art and "tb0" in art

    def test_requires_trace(self):
        program = build_ring_allreduce(4)
        ir = compile_program(program)
        result = IrSimulator(ir, generic(4, 1)).run(chunk_bytes=1024)
        with pytest.raises(RuntimeConfigError, match="trace"):
            profile_threadblocks(result)


class TestFaultInjection:
    def test_degraded_nic_slows_execution(self):
        program = alltonext(2, 4, instances=2)
        ir = compile_program(program, CompilerOptions())
        healthy = IrSimulator(ir, generic(4, 2)).run(
            chunk_bytes=8 * MiB).time_us
        degraded = IrSimulator(
            ir, generic(4, 2),
            config=SimConfig(degradations={"nic_out[0,1]": 0.1}),
        ).run(chunk_bytes=8 * MiB).time_us
        assert degraded > healthy * 1.3

    def test_striped_algorithm_degrades_less_than_single_path(self):
        """AllToNext spreads over all NICs, the naive baseline uses one:
        degrading that one NIC hurts the baseline far more."""
        from repro.algorithms import naive_alltonext

        def slowdown(program, prefix):
            ir = compile_program(program, CompilerOptions())
            base = IrSimulator(ir, generic(4, 2)).run(
                chunk_bytes=8 * MiB).time_us
            hurt = IrSimulator(
                ir, generic(4, 2),
                config=SimConfig(degradations={prefix: 0.1}),
            ).run(chunk_bytes=8 * MiB).time_us
            return hurt / base

        # The naive baseline's single boundary flow uses GPU 3's NIC.
        naive_hit = slowdown(naive_alltonext(2, 4), "nic_out[0,3]")
        striped_hit = slowdown(alltonext(2, 4, instances=2),
                               "nic_out[0,3]")
        assert naive_hit > striped_hit

    def test_unmatched_prefix_raises(self):
        # A typo'd prefix used to silently run a fault-free simulation;
        # now the run completes and then reports the dead prefix.
        program = build_ring_allreduce(4)
        ir = compile_program(program)
        with pytest.raises(SimulationError, match=r"nic_out\[9,9\]"):
            IrSimulator(
                ir, generic(4, 1),
                config=SimConfig(degradations={"nic_out[9,9]": 0.01}),
            ).run(chunk_bytes=MiB)
