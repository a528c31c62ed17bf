"""Tests for the benchmark's own helpers (no program import needed).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import pytest

from perfbench.helpers import (backlog_grew, item_medians,
                               latin_offsets, log_spaced_sizes,
                               open_loop_times,
                               percentile, poisson_arrivals, rng_for,
                               summarize, tail_percentile)
from perfbench.spans import Recorder, Span, by_name, self_times


# -- percentiles and sample counts ----------------------------------------

def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(values, 25) == pytest.approx(1.75)


def test_item_medians_take_each_items_median_repeat():
    assert item_medians({"a": [3.0, 1.0, 2.0], ("b", 1): [5.0]}) == {
        "a": 2.0, ("b", 1): 5.0}
    with pytest.raises(ValueError):
        item_medians({})
    with pytest.raises(ValueError):
        item_medians({"a": []})


@pytest.mark.parametrize("count, expected", [
    (10, None), (19, None), (20, 50.0), (40, 75.0), (50, 80.0),
    (100, 90.0), (200, 95.0), (999, 98.0), (1000, 99.0),
    (2000, 99.5), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert round(count * (100 - expected) / 100, 9) >= 10


def test_summarize_reports_median_count_and_tail():
    values = list(range(1, 101))
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(percentile(values, 90))


def test_summarize_falls_back_to_max_when_samples_are_few():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["tail_pct"] == 100.0
    assert summary["tail"] == 3.0


# -- seeded generation -----------------------------------------------------

def test_same_seed_same_draws_other_seed_other_draws():
    def draws(seed):
        rng = rng_for("w", seed)
        return (latin_offsets(rng, 5),
                log_spaced_sizes(rng, 11, 1 << 15, 1 << 25),
                poisson_arrivals(rng, 100.0, 0.0, 1.0))

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    assert rng_for("a", 1).random() != rng_for("b", 1).random()


def test_latin_offsets_use_each_stratum_once():
    offsets = latin_offsets(rng_for("w", 3), 4)
    assert sorted(offsets) == [0.125, 0.375, 0.625, 0.875]


def test_log_spaced_sizes_stay_in_range_one_per_stratum():
    sizes = log_spaced_sizes(rng_for("w", 1), 11, 32 << 10, 32 << 20)
    assert len(sizes) == 11 and sizes == sorted(sizes)
    assert sizes[0] >= 32 << 10 and sizes[-1] <= 32 << 20


def test_poisson_arrivals_lie_in_the_window_at_the_rate():
    times = poisson_arrivals(rng_for("w", 2), 1000.0, 5.0, 2.0)
    assert times == sorted(times)
    assert all(5.0 <= t < 7.0 for t in times)
    assert 1800 < len(times) < 2200


# -- self-time arithmetic --------------------------------------------------

def _span(ident, start, end, parent=None):
    return Span(ident, f"s{ident}", start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0),
             _span(2, 4.0, 8.0, 0), _span(3, 5.0, 6.0, 2)]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    # Self times of a tree add up to its root's duration.
    assert sum(own.values()) == spans[0].duration


def test_self_time_merges_overlapping_and_clips_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0),
             _span(2, 4.0, 8.0, 0), _span(3, 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_spans_and_inherits_request():
    recorder = Recorder()
    with recorder.span("outer", request="r1"):
        with recorder.span("inner") as inner:
            pass
    outer = next(s for s in recorder.spans if s.name == "outer")
    assert inner.parent == outer.id and inner.request == "r1"
    table = by_name(recorder.spans)
    assert table["outer"]["count"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        outer.duration - inner.duration)


# -- open-loop lateness accounting -----------------------------------------

def test_latency_runs_from_due_time_and_lag_from_generator():
    latency, lag = open_loop_times(due=10.0, sent=10.5, done=11.0)
    assert latency == 1.0 and lag == 0.5


def test_a_generator_stall_is_charged_to_every_ask_it_delayed():
    due = [0.0, 0.1, 0.2]
    # The generator stalls until 1.0, then sends all three at once.
    sent = [1.0, 1.0, 1.0]
    done = [1.01, 1.02, 1.03]
    latencies = [open_loop_times(d, s, e)[0]
                 for d, s, e in zip(due, sent, done)]
    assert latencies == pytest.approx([1.01, 0.92, 0.83])


def test_open_loop_times_reject_disordered_timestamps():
    with pytest.raises(ValueError):
        open_loop_times(due=1.0, sent=0.5, done=2.0)


def test_backlog_grows_when_answers_trail_the_step():
    due = [0.0, 0.5, 0.9]
    assert not backlog_grew(due, [0.1, 0.6, 1.02], 1.0, 0.05)
    assert backlog_grew(due, [0.1, 0.6, 1.2], 1.0, 0.05)
    # Asks due after the step do not count against it.
    assert not backlog_grew([0.0, 1.5], [0.1, 9.0], 1.0, 0.05)

