"""Interrupting parallel campaigns: clean teardown, partial results.

A Ctrl-C during a fault-injection campaign or corpus matrix must not
orphan worker processes, and the work already classified must survive
as a partial report instead of vanishing.  ``parallel_map`` converts
the interrupt into :class:`PoolInterrupted` carrying the completed
leading results; ``run_campaign``/``run_corpus`` surface that as an
``interrupted`` report and the CLI refuses to write BENCH json for it.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.fi.campaign import (CampaignConfig, PoolInterrupted,
                               parallel_map, run_campaign)
from repro.src_design.params import SMALL_PARAMS


def _interrupt_at_three(task):
    if task == 3:
        raise KeyboardInterrupt
    return task * 10


def test_inprocess_interrupt_carries_partial_results():
    with pytest.raises(PoolInterrupted) as info:
        parallel_map(_interrupt_at_three, [0, 1, 2, 3, 4], jobs=1)
    assert info.value.partial == [0, 10, 20]
    # it still is a KeyboardInterrupt: untouched callers propagate it
    assert isinstance(info.value, KeyboardInterrupt)


def _times_ten(task):
    return task * 10


def test_pool_interrupt_tears_down_and_carries_partial_results(
        monkeypatch):
    """A Ctrl-C in the parent while consuming pool results terminates
    and joins every worker (no orphans) and hands back the completed
    prefix."""
    from repro import pool as P

    class InterruptingPool:
        """A real pool whose result stream is cut short by a
        parent-side KeyboardInterrupt after two results."""

        def __init__(self, real):
            self._real = real

        def imap(self, fn, tasks):
            for i, result in enumerate(self._real.imap(fn, tasks)):
                if i == 2:
                    raise KeyboardInterrupt
                yield result

        def __getattr__(self, name):
            return getattr(self._real, name)

    class Ctx:
        def __init__(self, real):
            self._real = real

        def Pool(self, *args, **kw):
            return InterruptingPool(self._real.Pool(*args, **kw))

    real_get_context = multiprocessing.get_context
    monkeypatch.setattr(
        P.multiprocessing, "get_context",
        lambda method: Ctx(real_get_context(method)))

    before = multiprocessing.active_children()
    with pytest.raises(PoolInterrupted) as info:
        parallel_map(_times_ten, [0, 1, 2, 3, 4], jobs=2)
    assert info.value.partial == [0, 10]
    # every pool worker was joined; none outlives the call
    leaked = [p for p in multiprocessing.active_children()
              if p not in before]
    assert leaked == []


def _boom(task):
    raise RuntimeError(f"task {task} failed")


def test_pool_task_error_tears_down_without_orphans():
    before = multiprocessing.active_children()
    with pytest.raises(RuntimeError, match="failed"):
        parallel_map(_boom, [0, 1, 2], jobs=2)
    leaked = [p for p in multiprocessing.active_children()
              if p not in before]
    assert leaked == []


def test_interrupted_campaign_reports_partial_classification(
        monkeypatch):
    """``run_campaign`` under an interrupt returns the classified
    prefix flagged ``interrupted`` instead of raising away the work."""
    from repro.fi import campaign as C

    real = C.parallel_map

    def interrupting(fn, tasks, jobs, **kw):
        results = real(fn, list(tasks)[:1], 1, **kw)
        raise PoolInterrupted(results)

    monkeypatch.setattr(C, "parallel_map", interrupting)
    config = CampaignConfig(params=SMALL_PARAMS, level="rtl",
                            n_faults=8, seed=0, budget="smoke",
                            backend="compiled", batch_size=4)
    report = run_campaign(config)
    assert report.interrupted
    assert 0 < len(report.records) < 8
    assert "INTERRUPTED" in report.format()


def test_interrupted_corpus_reports_partial_matrix(monkeypatch):
    from repro.corpus import matrix as M

    def interrupting(fn, tasks, jobs, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)
        raise PoolInterrupted([fn(list(tasks)[0])])

    monkeypatch.setattr(M, "parallel_map", interrupting)
    config = M.CorpusConfig(seed=0, n_designs=3, budget="smoke",
                            backend="compiled", jobs=1)
    report = M.run_corpus(config)
    assert report.interrupted
    assert len(report.rows) == 1
    assert not report.passed  # a partial matrix never counts as clean
    assert "INTERRUPTED" in report.format()
