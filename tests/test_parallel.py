"""Tests for the parallel evaluation layer: determinism above all.

The contract under test: ``run_sweep``/``tune`` with ``jobs=N`` must be
bitwise-identical to their sequential runs, unpicklable work degrades
to inline execution instead of crashing, and the pool's counters show
up in :func:`repro.observe.metrics_dict`.
"""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ring_allreduce
from repro.analysis import (
    Candidate,
    KiB,
    MiB,
    ir_timer,
    parallel_map,
    pool_stats,
    reset_pool_stats,
    resolve_jobs,
    run_sweep,
    tune,
)
from repro.core import CompilerOptions, compile_program
from repro.observe import Tracer, metrics_dict
from repro.topology import ndv4
from tests.conftest import build_ring_allreduce


def _double(task):
    """Module-level so worker processes can import it."""
    return task * 2


def _type_name(task):
    return type(task).__name__


# Held by a helper thread while a pool starts (see TestStartMethod). A
# worker forked at that moment inherits it locked, with no thread left
# to release it.
_HELD = threading.Lock()


def _under_held_lock(task):
    with _HELD:
        return task


def map_while_a_thread_holds_the_lock():
    """Run a two-worker pool while another thread holds ``_HELD``."""
    held, release = threading.Event(), threading.Event()

    def holder():
        with _HELD:
            held.set()
            release.wait()

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(timeout=30)
    try:
        return parallel_map(_under_held_lock, [1, 2, 3, 4], jobs=2)
    finally:
        release.set()
        thread.join(timeout=30)


class LinearTimer:
    """A picklable synthetic latency model: alpha + beta * bytes."""

    def __init__(self, alpha_us, beta_us_per_byte):
        self.alpha_us = alpha_us
        self.beta_us_per_byte = beta_us_per_byte

    def __call__(self, nbytes):
        return self.alpha_us + self.beta_us_per_byte * nbytes


class TestResolveJobs:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestParallelMap:
    def test_results_come_back_in_task_order(self):
        tasks = list(range(20))
        assert parallel_map(_double, tasks, jobs=4) == \
            [task * 2 for task in tasks]

    def test_jobs_one_runs_inline(self):
        reset_pool_stats()
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]
        stats = pool_stats()
        assert stats["parallel_tasks"] == 0
        assert stats["inline_tasks"] == 3

    def test_unpicklable_task_falls_back_inline(self):
        reset_pool_stats()
        tasks = [7, lambda: None]  # the lambda cannot cross a process
        assert parallel_map(_type_name, tasks, jobs=2) == \
            ["int", "function"]
        stats = pool_stats()
        assert stats["parallel_tasks"] == 1
        assert stats["inline_tasks"] == 1

    def test_unpicklable_fn_falls_back_inline(self):
        reset_pool_stats()
        assert parallel_map(lambda t: t + 1, [1, 2], jobs=2) == [2, 3]
        assert pool_stats()["parallel_tasks"] == 0

    def test_empty_tasks(self):
        assert parallel_map(_double, [], jobs=4) == []


class TestStartMethod:
    def test_pool_started_under_a_held_lock_finishes(self):
        # In a child process, so a deadlocked pool can be killed with
        # its workers instead of hanging the test session.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        child = subprocess.Popen(
            [sys.executable, "-c",
             "from tests.test_parallel import "
             "map_while_a_thread_holds_the_lock as run; print(run())"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a worker pool started while another thread held "
                        "a lock deadlocked")
        assert child.returncode == 0, err
        assert out.strip() == "[1, 2, 3, 4]"


class TestSweepParity:
    def _configs(self):
        return {
            "fast": LinearTimer(5.0, 1e-3),
            "slow": LinearTimer(9.0, 2e-3),
        }

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bitwise_equal_to_sequential(self, jobs):
        sizes = [KiB, 2 * KiB, 4 * KiB, 8 * KiB]
        seq = run_sweep("t", sizes, self._configs(), jobs=1)
        par = run_sweep("t", sizes, self._configs(), jobs=jobs)
        assert {k: s.times_us for k, s in par.series.items()} == \
            {k: s.times_us for k, s in seq.series.items()}
        assert par.sizes == seq.sizes

    def test_real_ir_timer_parity(self):
        program = build_ring_allreduce(8)
        topo = ndv4(1)
        algo = compile_program(program, CompilerOptions(
            max_threadblocks=topo.machine.sm_count))
        timer = ir_timer(algo, topo, program.collective)
        sizes = [KiB, 64 * KiB, MiB]
        seq = run_sweep("ring", sizes, {"ring": timer}, jobs=1)
        par = run_sweep("ring", sizes, {"ring": timer}, jobs=2)
        assert par.series["ring"].times_us == seq.series["ring"].times_us

    def test_worker_spans_and_metrics(self):
        reset_pool_stats()
        tracer = Tracer()
        sizes = [KiB, 2 * KiB, 4 * KiB]
        run_sweep("t", sizes, self._configs(), jobs=2, tracer=tracer)
        names = {span.name for span in tracer.spans()}
        assert "sweep.pool" in names
        assert "sweep.task" in names
        stats = pool_stats()
        assert stats["pools"] == 1
        assert stats["tasks"] == 6
        assert stats["max_jobs"] == 2
        assert sum(stats["per_worker_tasks"].values()) == 6
        metrics = metrics_dict(tracer)
        assert metrics["workers"]["tasks"] == 6


@settings(max_examples=8, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 30),
                   min_size=1, max_size=5, unique=True),
    alpha=st.floats(min_value=0.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False),
    jobs=st.sampled_from([2, 3, 4]),
)
def test_parallel_sweep_matches_sequential_property(sizes, alpha, jobs):
    configs = {
        "a": LinearTimer(alpha, 1e-3),
        "b": LinearTimer(2.0 * alpha + 1.0, 5e-4),
    }
    seq = run_sweep("p", sizes, configs, jobs=1)
    par = run_sweep("p", sizes, configs, jobs=jobs)
    for label in configs:
        assert par.series[label].times_us == seq.series[label].times_us


class TestTuneParity:
    def test_parallel_tune_matches_sequential(self):
        space = [
            Candidate(1, 2, "LL"),
            Candidate(4, 8, "LL"),
            Candidate(1, 4, "Simple"),
        ]
        sizes = [64 * KiB, MiB]

        def build(channels, instances, protocol):
            return ring_allreduce(8, channels=channels,
                                  instances=instances,
                                  protocol=protocol)

        seq = tune(build, ndv4(1), sizes, collective_sizing_chunks=8,
                   space=space, jobs=1)
        par = tune(build, ndv4(1), sizes, collective_sizing_chunks=8,
                   space=space, jobs=2)
        assert par.times == seq.times
        assert par.best == seq.best
        assert par.table() == seq.table()
