"""Tests for the pass pipeline, per-pass validation, and the cache."""

import json

import pytest

from repro.algorithms import allpairs_allreduce, ring_allreduce
from repro.core import (
    CompileCache,
    CompilerOptions,
    DefaultSchedulerPolicy,
    Pass,
    PassPipeline,
    PassValidationError,
    compile_program,
    default_pipeline,
    program_digest,
)
from repro.core.ir import MscclIr
from repro.analysis.sweep import compile_for
from repro.runtime.executor import IrExecutor
from repro.topology import ndv4


def ring(**overrides):
    kwargs = dict(channels=2, instances=4, protocol="LL")
    kwargs.update(overrides)
    return ring_allreduce(8, **kwargs)


class TestPipelineShape:
    def test_default_order_matches_paper(self):
        assert default_pipeline().names() == [
            "verify", "lower", "fuse", "schedule",
            "prune_redundant_deps", "renumber_channels", "audit",
        ]

    def test_default_compile_runs_exactly_paper_passes(self):
        algo = compile_program(ring())
        assert list(algo.compile_summary) == [
            "verify", "lower", "fuse", "schedule", "audit",
        ]

    def test_optimize_adds_the_two_ir_passes(self):
        algo = compile_program(ring(), CompilerOptions(optimize=True))
        assert list(algo.compile_summary) == [
            "verify", "lower", "fuse", "schedule",
            "prune_redundant_deps", "renumber_channels", "audit",
        ]

    def test_disabled_passes_are_skipped(self):
        algo = compile_program(
            ring(), CompilerOptions(instr_fusion=False, verify=False)
        )
        names = list(algo.compile_summary)
        assert "fuse" not in names
        assert "verify" not in names

    def test_duplicate_pass_names_rejected(self):
        pipeline = default_pipeline()
        with pytest.raises(ValueError, match="duplicate"):
            PassPipeline(pipeline.passes + [pipeline.passes[0]])

    def test_composition_helpers(self):
        class Marker(Pass):
            name = "marker"

            def run(self, state):
                pass

        pipeline = default_pipeline()
        pipeline.insert_after("schedule", Marker())
        names = pipeline.names()
        assert names.index("marker") == names.index("schedule") + 1
        pipeline.remove("marker")
        assert "marker" not in pipeline.names()
        with pytest.raises(KeyError):
            pipeline.get("marker")

    def test_custom_pipeline_option_is_used(self):
        class Counting(Pass):
            name = "counting"
            calls = 0

            def run(self, state):
                Counting.calls += 1

        pipeline = default_pipeline().insert_before("lower", Counting())
        compile_program(ring(), CompilerOptions(pipeline=pipeline))
        assert Counting.calls == 1


class BreakLineage(Pass):
    """Deliberately corrupt one instruction's chunk lineage."""

    name = "break_lineage"
    invariants = ("lineage",)

    def run(self, state):
        instr = state.ir.gpus[0].threadblocks[0].instructions[0]
        instr.lineage = ((-5, "input", 0),)


class TestPerPassValidation:
    def test_broken_pass_is_named(self):
        pipeline = default_pipeline().insert_after(
            "schedule", BreakLineage()
        )
        with pytest.raises(PassValidationError) as exc_info:
            compile_program(ring(), CompilerOptions(
                pipeline=pipeline, validate_each=True,
            ))
        error = exc_info.value
        assert error.pass_name == "break_lineage"
        assert error.invariant == "lineage"
        assert "break_lineage" in str(error)

    def test_same_corruption_undetected_without_validation(self):
        # The point of validate_each: this compiles "fine" otherwise.
        pipeline = default_pipeline().insert_after(
            "schedule", BreakLineage()
        )
        algo = compile_program(ring(), CompilerOptions(
            pipeline=pipeline, validate_each=False,
        ))
        assert algo.ir.instruction_count() > 0

    def test_env_var_enables_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_PASSES", "1")
        pipeline = default_pipeline().insert_after(
            "schedule", BreakLineage()
        )
        with pytest.raises(PassValidationError):
            compile_program(ring(), CompilerOptions(pipeline=pipeline))

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_PASSES", "1")
        pipeline = default_pipeline().insert_after(
            "schedule", BreakLineage()
        )
        compile_program(ring(), CompilerOptions(
            pipeline=pipeline, validate_each=False,
        ))

    def test_clean_compile_validates_everywhere(self):
        algo = compile_program(ring(), CompilerOptions(
            validate_each=True, optimize=True,
        ))
        IrExecutor(algo.ir, algo.collective).run_and_check()


class TestDumps:
    def test_dump_after_all_snapshots_every_ran_pass(self):
        algo = compile_program(ring(), CompilerOptions(dump_after="all"))
        assert set(algo.dumps) == {
            "verify", "lower", "fuse", "schedule", "audit",
        }
        # Post-scheduling snapshots are the XML; pre-scheduling ones
        # are instruction listings.
        assert algo.dumps["schedule"].startswith("<algo")
        assert algo.dumps["schedule"] == algo.ir.to_xml()
        assert "lower" in algo.dumps and algo.dumps["lower"]

    def test_dump_after_selected_names(self):
        algo = compile_program(
            ring(), CompilerOptions(dump_after=["schedule"])
        )
        assert list(algo.dumps) == ["schedule"]

    def test_no_dumps_by_default(self):
        assert compile_program(ring()).dumps == {}


class TestCompileCache:
    def test_hit_is_byte_identical_to_cold_compile(self):
        cache = CompileCache()
        options = CompilerOptions(max_threadblocks=80, cache=cache)
        cold = compile_program(ring(), options)
        hit = compile_program(ring(), options)
        assert not cold.cache_hit
        assert hit.cache_hit
        assert hit.ir.to_xml() == cold.ir.to_xml()
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_hits_never_alias(self):
        cache = CompileCache()
        options = CompilerOptions(cache=cache)
        compile_program(ring(), options)
        first = compile_program(ring(), options)
        second = compile_program(ring(), options)
        first.ir.gpus[0].threadblocks[0].instructions.clear()
        assert second.ir.gpus[0].threadblocks[0].instructions
        assert (compile_program(ring(), options).ir
                .gpus[0].threadblocks[0].instructions)

    def test_cold_ir_edits_after_store_never_reach_hits(self):
        cache = CompileCache()
        options = CompilerOptions(cache=cache)
        cold = compile_program(ring(), options)
        xml = cold.ir.to_xml()
        tb = cold.ir.gpus[0].threadblocks[0]
        tb.instructions[0].depends.append((99, 99))
        tb.instructions[0].count = 77
        tb.instructions.pop()
        cold.ir.gpus.pop()
        cold.ir.name = "edited"
        hit = compile_program(ring(), options)
        assert hit.cache_hit
        assert hit.ir.to_xml() == xml

    def test_memory_hit_parses_no_json(self, monkeypatch):
        cache = CompileCache()
        options = CompilerOptions(cache=cache)
        cold = compile_program(ring(), options)

        def refuse(*args, **kwargs):
            raise AssertionError("a memory hit parsed JSON")

        monkeypatch.setattr(json, "loads", refuse)
        monkeypatch.setattr(MscclIr, "from_json", staticmethod(refuse))
        hit = compile_program(ring(), options)
        monkeypatch.undo()
        assert hit.cache_hit
        assert hit.ir.to_xml() == cold.ir.to_xml()

    def test_option_changes_miss(self):
        cache = CompileCache()
        compile_program(ring(), CompilerOptions(cache=cache))
        compile_program(
            ring(), CompilerOptions(cache=cache, instr_fusion=False)
        )
        compile_program(
            ring(), CompilerOptions(cache=cache, max_threadblocks=8)
        )
        assert cache.stats()["misses"] == 3
        assert cache.stats()["hits"] == 0

    def test_different_programs_miss(self):
        cache = CompileCache()
        options = CompilerOptions(cache=cache)
        compile_program(ring(), options)
        compile_program(allpairs_allreduce(8, instances=4,
                                           protocol="LL"), options)
        assert cache.stats()["misses"] == 2

    def test_program_digest_stable_across_retrace(self):
        assert program_digest(ring()) == program_digest(ring())
        assert program_digest(ring()) != program_digest(
            ring(channels=1)
        )

    def test_sweep_recompiles_become_hits(self):
        # The acceptance bar: 6 sweep compiles of the same point must
        # do one cold compile, not six (>= 5x fewer cold compiles).
        topology = ndv4(1)
        cache = CompileCache()
        results = [
            compile_for(topology, ring(), CompilerOptions(
                max_threadblocks=topology.machine.sm_count,
                cache=cache,
            ))
            for _ in range(6)
        ]
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 5
        xml = results[0].ir.to_xml()
        assert all(r.ir.to_xml() == xml for r in results)

    def test_tracer_counters_record_hits_and_misses(self):
        from repro.observe import Tracer

        cache = CompileCache()
        tracer = Tracer()
        options = CompilerOptions(cache=cache, trace=tracer)
        compile_program(ring(), options)
        compile_program(ring(), options)
        assert tracer.counters["compile_cache.misses"] == 1
        assert tracer.counters["compile_cache.hits"] == 1

    def test_metrics_dict_exports_default_cache_stats(self):
        from repro.observe import Tracer, metrics_dict

        metrics = metrics_dict(Tracer())
        cache = metrics["compile_cache"]
        assert set(cache) >= {"hits", "misses", "entries", "hit_rate"}

    def test_lru_bound_evicts_oldest(self):
        cache = CompileCache(maxsize=1)
        compile_program(ring(), CompilerOptions(cache=cache))
        compile_program(ring(channels=1),
                        CompilerOptions(cache=cache))
        assert len(cache) == 1
        # The first entry was evicted; compiling it again misses.
        compile_program(ring(), CompilerOptions(cache=cache))
        assert cache.stats()["hits"] == 0


class TestSchedulerPolicy:
    def test_custom_policy_key_never_aliases_default(self):
        class Renamed(DefaultSchedulerPolicy):
            policy_key = "renamed-default"

        cache = CompileCache()
        compile_program(ring(), CompilerOptions(cache=cache))
        other = compile_program(ring(), CompilerOptions(
            cache=cache, scheduler=Renamed(),
        ))
        assert not other.cache_hit
        assert cache.stats()["misses"] == 2

    def test_delegating_policy_matches_default_output(self):
        class Renamed(DefaultSchedulerPolicy):
            policy_key = "renamed-default"

        default = compile_program(ring())
        custom = compile_program(
            ring(), CompilerOptions(scheduler=Renamed())
        )
        assert custom.ir.to_xml() == default.ir.to_xml()


class TestOptimizeMatrix:
    @pytest.mark.parametrize("instr_fusion", [True, False])
    @pytest.mark.parametrize("max_threadblocks", [None, 32])
    def test_optimized_ir_stays_correct(self, instr_fusion,
                                        max_threadblocks):
        algo = compile_program(ring(), CompilerOptions(
            optimize=True, instr_fusion=instr_fusion,
            max_threadblocks=max_threadblocks,
        ))
        IrExecutor(algo.ir, algo.collective).run_and_check()
        summary = algo.compile_summary
        assert "prune_redundant_deps" in summary
        assert "renumber_channels" in summary
        if max_threadblocks is not None:
            assert algo.ir.threadblock_count() <= \
                max_threadblocks * algo.ir.num_ranks
