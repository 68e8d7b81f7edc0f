"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import probe  # noqa: E402
import sections  # noqa: E402
from probe import (Recorder, covered_seconds, durations,  # noqa: E402
                   fastest_total, lane_fill_ratio, self_seconds,
                   tail_percentile)


def test_self_time_subtracts_disjoint_children():
    assert self_seconds((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_overlapping_children_are_counted_once():
    children = [(1.0, 4.0), (2.0, 5.0), (2.5, 3.0)]
    assert covered_seconds(children, 0.0, 10.0) == 4.0
    assert self_seconds((0.0, 10.0), children) == 6.0


def test_children_are_clipped_to_the_span():
    assert covered_seconds([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_seconds([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_recorder_nests_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(probe.time, "perf_counter", lambda: next(ticks))
    rec = Recorder()
    inner = rec.wrap(lambda: None, "inner")
    outer = rec.wrap(lambda: inner() or inner(), "outer")
    outer()
    # outer opens at 0; inner spans 1..2 and 3..4; outer closes at 5
    assert rec.wall["outer"] == 5
    assert rec.self_time["outer"] == 3
    assert rec.wall["inner"] == 2 and rec.calls["inner"] == 2


def test_recorder_names_calls_from_arguments():
    rec = Recorder()
    fn = rec.wrap(lambda backend: backend,
                  lambda args, kwargs: "step." + kwargs["backend"])
    fn(backend="native")
    fn(backend="native")
    assert rec.calls["step.native"] == 2


@pytest.mark.parametrize("n, pct", [(20, 50.0), (42, 75.0), (100, 90.0),
                                    (200, 95.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n, 0, -1))
    got_pct, value, count = tail_percentile(values)
    assert (got_pct, count) == (pct, n)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


def test_lane_fill_ratio_counts_the_golden_lane():
    # 124 faults in word-width batches of 63 and 61 faults
    assert lane_fill_ratio([63, 61]) == (64 + 62) / 128
    assert lane_fill_ratio([3]) == 4 / 64
    assert lane_fill_ratio([]) == 0.0


def test_fastest_total_takes_each_segments_minimum():
    # the host was busy in segment 1 of the first repetition and in
    # segment 0 of the second
    assert fastest_total([[1.0, 9.0, 2.0], [5.0, 3.0, 2.5]]) == 6.0
    assert fastest_total([[4.0]]) == 4.0


def test_fastest_total_needs_aligned_segments():
    with pytest.raises(ValueError):
        fastest_total([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        fastest_total([])


def test_durations_are_differences_of_stamps():
    assert durations([1.0, 1.5, 4.0]) == [0.5, 2.5]
    assert durations([3.0]) == []


def test_job_plan_resubmits_every_job_after_its_cold_run():
    plans = sections._job_plan(seed=5, n_cold=9)
    assert len(plans) == sections.N_CLIENTS
    seeds = []
    for requests in plans:
        done = set()
        for mode, index, spec in requests:
            if mode == "cold":
                done.add(index)
                seeds.append(spec["options"]["seed"])
            else:
                assert index in done
        cached = {index for mode, index, _ in requests if mode == "cached"}
        assert cached == done
    assert len(seeds) == len(set(seeds))
    assert plans == sections._job_plan(seed=5, n_cold=9)
