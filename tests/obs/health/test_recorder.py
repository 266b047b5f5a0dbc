"""FlightRecorder unit tests: ring eviction, absorb, worker determinism."""

import pytest

from repro.experiments.parallel import parallel_map, spawn_seeds
from repro.obs.exporters import to_jsonl
from repro.obs.health.recorder import FlightRecorder
from repro.obs.tracer import Span, get_tracer, use_tracer


def one_cycle(tracer, index, t0):
    """A tiny two-level cycle span tree ending at ``t0 + 1``."""
    outer = tracer.begin("cycle", t=t0, index=index)
    inner = tracer.begin("phase", t=t0 + 0.1)
    tracer.event("tick", t=t0 + 0.2, index=index)
    tracer.end(inner, t=t0 + 0.5)
    tracer.end(outer, t=t0 + 1.0)


class TestRing:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity_cycles=0)

    def test_retains_only_the_newest_cycles(self):
        recorder = FlightRecorder(capacity_cycles=2)
        for i in range(5):
            one_cycle(recorder, i, float(i))
        assert recorder.n_cycles_retained == 2
        indices = [
            r.args["index"]
            for r in recorder.records
            if isinstance(r, Span) and r.name == "cycle"
        ]
        assert indices == [3, 4]
        # 3 evicted cycles x (2 spans + 1 event) each.
        assert recorder.evicted_spans == 6
        assert recorder.evicted_events == 3

    def test_events_between_cycles_ride_with_the_next_segment(self):
        recorder = FlightRecorder(capacity_cycles=1)
        one_cycle(recorder, 0, 0.0)
        recorder.event("between", t=1.5)
        one_cycle(recorder, 1, 2.0)
        names = [r.name for r in recorder.records]
        # Cycle 0 was evicted together with nothing after it; the orphan
        # event belongs to cycle 1's segment and survives with it.
        assert "between" in names
        assert [r.args.get("index") for r in recorder.records
                if isinstance(r, Span) and r.name == "cycle"] == [1]

    def test_metric_snapshot_ring_shares_the_capacity(self):
        recorder = FlightRecorder(capacity_cycles=3)
        for i in range(10):
            recorder.snapshot_metrics(i, float(i), {"n": i})
        assert len(recorder.metric_snapshots) == 3
        assert [s[0] for s in recorder.metric_snapshots] == [7, 8, 9]

    def test_open_spans_not_counted_until_closed(self):
        recorder = FlightRecorder(capacity_cycles=2)
        span = recorder.begin("cycle", t=0.0)
        assert recorder.n_cycles_retained == 0
        recorder.end(span, t=1.0)
        assert recorder.n_cycles_retained == 1


def _traced_task(seed):
    """A worker task tracing one cycle on the ambient tracer."""
    tracer = get_tracer()
    one_cycle(tracer, seed, 0.0)
    return seed


class TestAbsorbDeterminism:
    """Merged flight recordings are byte-stable across worker counts.

    The same contract TestTraceMergeDeterminism pins for the plain Tracer,
    plus the ring: after absorbing parallel batches the recorder applies
    the same eviction rule the sequential run applied, so the retained
    window is identical.
    """

    WORKER_COUNTS = (1, 2, 4)

    def _run(self, workers, capacity):
        recorder = FlightRecorder(capacity_cycles=capacity)
        tasks = [(s,) for s in spawn_seeds(31, 6)]
        with use_tracer(recorder):
            results = parallel_map(_traced_task, tasks, workers=workers)
        return results, to_jsonl(recorder), recorder.n_cycles_retained

    @pytest.mark.parametrize("capacity", [2, 4, 100])
    def test_jsonl_byte_equal_across_worker_counts(self, capacity):
        reference = self._run(1, capacity)
        for workers in self.WORKER_COUNTS[1:]:
            assert self._run(workers, capacity) == reference, (
                f"flight recording diverged at workers={workers}, "
                f"capacity={capacity}"
            )

    def test_absorb_rebuilds_segments(self):
        recorder = FlightRecorder(capacity_cycles=2)
        one_cycle(recorder, 0, 0.0)

        from repro.obs.tracer import Tracer

        worker = Tracer()
        one_cycle(worker, 1, 0.0)
        one_cycle(worker, 2, 2.0)
        recorder.absorb(worker.records)
        assert recorder.n_cycles_retained == 2
        indices = [
            r.args["index"]
            for r in recorder.records
            if isinstance(r, Span) and r.name == "cycle"
        ]
        assert indices == [1, 2]
