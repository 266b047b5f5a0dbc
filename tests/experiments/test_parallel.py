"""Tests for the deterministic parallel experiment runner.

The runner's one promise: ``workers=N`` is indistinguishable from
``workers=1`` — same results in the same order, same merged trace — because
every task is seeded by its arguments and the merge is positional.
"""

import gc

import numpy as np
import pytest

from repro.experiments import fault_sweep, fig02_irr
from repro.experiments.parallel import (
    parallel_map,
    resolve_workers,
    spawn_seeds,
)
from repro.obs.exporters import to_jsonl
from repro.obs.tracer import Span, Tracer, get_tracer, use_tracer


class TestResolveWorkers:
    def test_sequential_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) >= 1


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(42, 5) == spawn_seeds(42, 5)

    def test_distinct_across_parent_and_siblings(self):
        seeds = spawn_seeds(42, 5)
        assert len(set(seeds)) == 5
        assert 42 not in seeds

    def test_prefix_stable(self):
        # Spawning more replicas later must not reshuffle the earlier ones.
        assert spawn_seeds(7, 5)[:2] == spawn_seeds(7, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)


def _square(x):
    return x * x


def _draw(seed):
    return int(np.random.default_rng(seed).integers(0, 2**32))


class TestParallelMap:
    def test_results_in_task_order(self):
        tasks = [(i,) for i in range(10)]
        assert parallel_map(_square, tasks, workers=1) == [
            i * i for i in range(10)
        ]
        assert parallel_map(_square, tasks, workers=3) == [
            i * i for i in range(10)
        ]

    def test_bare_items_promoted_to_tuples(self):
        assert parallel_map(_square, [2, 3], workers=1) == [4, 9]

    def test_seeded_tasks_identical_across_worker_counts(self):
        tasks = [(s,) for s in spawn_seeds(11, 6)]
        assert parallel_map(_draw, tasks, workers=1) == parallel_map(
            _draw, tasks, workers=4
        )

    def test_pool_thaws_only_the_heap_it_froze(self):
        """The pool freezes the parent's heap for its forked workers and
        thaws it after; a heap the caller froze stays frozen."""
        tasks = [(i,) for i in range(4)]
        assert gc.get_freeze_count() == 0
        assert parallel_map(_square, tasks, workers=2) == [0, 1, 4, 9]
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            parallel_map(_square, tasks, workers=2)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


def _trace_signature(tracer):
    out = []
    for r in tracer.records:
        if isinstance(r, Span):
            out.append(
                ("S", r.span_id, r.parent_id, r.depth, r.name, r.start_s,
                 r.end_s, tuple(sorted(r.args.items())))
            )
        else:
            out.append(
                ("E", r.event_id, r.parent_id, r.name, r.t_s,
                 tuple(sorted(r.args.items())))
            )
    return out


class TestDriverEquivalence:
    def test_fig02_identical_and_trace_merged(self):
        kwargs = dict(tag_counts=(1, 5), initial_qs=(4,), repeats=2)
        t1, t2 = Tracer(), Tracer()
        with use_tracer(t1):
            r1 = fig02_irr.run(workers=1, **kwargs)
        with use_tracer(t2):
            r2 = fig02_irr.run(workers=2, **kwargs)
        assert [c.round_durations_s for c in r1.curves] == [
            c.round_durations_s for c in r2.curves
        ]
        assert r1.model_irr_hz == r2.model_irr_hz
        assert _trace_signature(t1) == _trace_signature(t2)

    def test_fault_sweep_identical(self):
        kwargs = dict(loss_rates=(0.0, 0.3), n_cycles=2, warmup_s=4.0)
        r1 = fault_sweep.run(workers=1, **kwargs)
        r2 = fault_sweep.run(workers=2, **kwargs)
        assert r1.points == r2.points


class TestTracerAbsorb:
    def test_ids_remapped_past_existing(self):
        parent = Tracer()
        span = parent.begin("own", t=0.0)
        parent.end(span, t=1.0)

        worker = Tracer()
        outer = worker.begin("outer", t=0.0)
        worker.event("ping", t=0.5)
        worker.end(outer, t=1.0)

        parent.absorb(worker.records)
        names = [r.name for r in parent.records]
        assert names == ["own", "ping", "outer"]
        ids = [
            r.span_id if isinstance(r, Span) else r.event_id
            for r in parent.records
        ]
        assert len(set(ids)) == 3
        # The absorbed event keeps its parent link to the absorbed span.
        ping = parent.records[1]
        outer_absorbed = parent.records[2]
        assert ping.parent_id == outer_absorbed.span_id
        # Roots stay roots, and the next fresh id does not collide.
        assert outer_absorbed.parent_id == 0
        fresh = parent.begin("after", t=2.0)
        assert fresh.span_id not in ids

    def test_absorb_empty_is_noop(self):
        tracer = Tracer()
        tracer.absorb([])
        assert tracer.records == []

    def test_batch_roots_reanchor_under_open_span(self):
        """Absorbed roots attach to the currently open span, depth-shifted.

        This is the regression the audit found: a driver that calls
        ``parallel_map`` *inside* one of its own spans used to get absorbed
        task spans parented to 0 at depth 0, while the sequential run
        nested them — so merged traces diverged between worker counts.
        """
        parent = Tracer()
        enclosing = parent.begin("sweep", t=0.0)

        worker = Tracer()
        inner = worker.begin("task", t=0.0)
        worker.event("tick", t=0.5)
        worker.end(inner, t=1.0)

        parent.absorb(worker.records)
        parent.end(enclosing, t=2.0)

        task = next(r for r in parent.records if r.name == "task")
        assert task.parent_id == enclosing.span_id
        assert task.depth == 1
        tick = next(r for r in parent.records if r.name == "tick")
        assert tick.parent_id == task.span_id


def _traced_burst(seed):
    """A task that opens a small span tree on the ambient tracer."""
    tracer = get_tracer()
    outer = tracer.begin("burst", t=0.0, seed=seed)
    inner = tracer.begin("draw", t=0.1)
    value = int(np.random.default_rng(seed).integers(0, 1000))
    tracer.event("value", t=0.2, value=value)
    tracer.end(inner, t=0.3)
    tracer.end(outer, t=0.4)
    return value


class TestTraceMergeDeterminism:
    """The merged trace is byte-stable across worker counts.

    Pins the full contract documented in :mod:`repro.experiments.parallel`:
    same ids, parents, depths, and args whether tasks ran inline, in one
    pool, or spread over several workers — both at top level and inside an
    enclosing ambient span.
    """

    WORKER_COUNTS = (1, 2, 4)

    def _run(self, workers, enclose):
        tracer = Tracer()
        tasks = [(s,) for s in spawn_seeds(23, 6)]
        with use_tracer(tracer):
            if enclose:
                span = tracer.begin("driver", t=0.0)
                results = parallel_map(_traced_burst, tasks, workers=workers)
                tracer.end(span, t=9.0)
            else:
                results = parallel_map(_traced_burst, tasks, workers=workers)
        return results, to_jsonl(tracer)

    @pytest.mark.parametrize("enclose", [False, True], ids=["flat", "nested"])
    def test_jsonl_byte_equal_across_worker_counts(self, enclose):
        reference_results, reference_export = self._run(1, enclose)
        for workers in self.WORKER_COUNTS[1:]:
            results, export = self._run(workers, enclose)
            assert results == reference_results
            assert export == reference_export, (
                f"merged trace diverged at workers={workers} "
                f"(enclosing span: {enclose})"
            )
