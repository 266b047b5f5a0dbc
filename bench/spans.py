"""Span recording around the program's layer boundaries, from outside.

The traced pass wraps the public entry points of each layer (the table in
:data:`BOUNDARIES`) without editing the program: class methods are replaced
on the class that defines them, module functions in every ``repro`` module
namespace that holds them.  Each wrapped call appends one span
``(id, parent id, name, start, end, counts)`` to an in-memory buffer; the
parent link is the innermost wrapped call still open in the same process.

Pool workers fork after the wrappers are installed, so they record too.
``parallel_map`` hands them a :class:`TracedTask` instead of the task
function; it records one ``parallel.task`` span per task and flushes that
worker's buffer to ``<span_dir>/spans-<pid>.jsonl``, which the parent merges
with :func:`read_worker_spans` once the pool has shut down.

Self time is computed per process: a span's duration minus the durations of
its direct children.  Children of one span never overlap because each
process records from a single thread.  In the parent, ``parallel.map`` has
no children of its own, so its self time is the pool's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import types
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded call: (id, parent id or -1, boundary name, start, end,
#: counts dict or None).  Times are ``perf_counter`` seconds, which share
#: one monotonic clock across the processes of a host.
Span = Tuple[int, int, str, float, float, Optional[dict]]


def _log_counts(args, kwargs, log) -> dict:
    return {"slots": log.n_slots, "reads": len(log.reads), "lost": log.n_lost}


def _len_result(args, kwargs, result) -> dict:
    return {"items": len(result)}


def _len_first_arg(args, kwargs, result) -> dict:
    items = args[1] if len(args) > 1 else kwargs["observations"]
    return {"items": len(items)}


def _cover_counts(args, kwargs, selection) -> dict:
    return {
        "bitmasks": len(selection.bitmasks),
        "targets": selection.n_targets,
        "collateral": selection.n_collateral,
    }


def _reachable_counts(args, kwargs, indices) -> dict:
    n_tags = args[0].topology.n_tags
    return {"kept": n_tags if indices is None else len(indices), "total": n_tags}


def _ingest_counts(args, kwargs, accepted) -> dict:
    return {"rows": len(args[1]), "accepted": accepted}


def _bytes_result(args, kwargs, n_bytes) -> dict:
    return {"bytes": n_bytes}


def _pool_counts(args, kwargs, result) -> dict:
    from repro.experiments.parallel import resolve_workers

    tasks = args[1]
    workers = args[2] if len(args) > 2 else kwargs.get("workers")
    return {"workers": min(resolve_workers(workers), max(1, len(tasks)))}


#: (span name, "module:Class.method" or "module:function", counter).  The
#: counter maps ``(args, kwargs, result)`` to the counts a span carries.
BOUNDARIES: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("gen2.run_round", "repro.gen2.inventory:InventoryEngine.run_round", _log_counts),
    ("world.observe_batch", "repro.world.scene:Scene.observe_batch", _len_result),
    ("world.tags_in_range", "repro.world.scene:Scene.tags_in_range", None),
    ("reader.inventory_round", "repro.reader.reader:SimReader.inventory_round", None),
    ("reader.participants", "repro.reader.reader:SimReader.participants", None),
    ("faults.apply_round", "repro.faults.injector:FaultInjector.apply_round", None),
    ("core.observe_all", "repro.core.motion:MotionAssessor.observe_all", _len_first_arg),
    ("core.assess", "repro.core.motion:MotionAssessor.assess", None),
    ("core.plan", "repro.core.scheduler:TargetScheduler.plan", None),
    ("core.candidate_rows", "repro.core.bitmask:IndexedBitmaskTable.candidate_rows", None),
    ("core.select_bitmasks", "repro.core.setcover:select_bitmasks", _cover_counts),
    ("core.run_cycle", "repro.core.tagwatch:Tagwatch.run_cycle", None),
    ("core.warm_up", "repro.core.tagwatch:Tagwatch.warm_up", None),
    ("site.build_reader", "repro.site.site:build_reader", None),
    ("site.reachable_tag_indices", "repro.site.site:reachable_tag_indices", _reachable_counts),
    ("site.ingest_rows", "repro.site.fusion:FusionLayer.ingest_rows", _ingest_counts),
    ("site.simulate_site", "repro.site.site:simulate_site", None),
    ("parallel.map", "repro.experiments.parallel:parallel_map", _pool_counts),
    ("runtime.checkpoint_save", "repro.runtime.checkpoint:CheckpointStore.save", _bytes_result),
    ("runtime.checkpoint_load", "repro.runtime.checkpoint:CheckpointStore.load_latest", None),
    ("runtime.supervisor_cycle", "repro.runtime.supervisor:Supervisor.run_cycle", None),
    ("health.observe_cycle", "repro.obs.health.monitor:HealthMonitor.observe_cycle", None),
)

TASK_SPAN = "parallel.task"


class Recorder:
    """Per-process span buffer; the lists are cleared in place, never
    replaced, because every wrapper closes over them."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.ids = itertools.count()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()


def _wrap(recorder: Recorder, name: str, fn: Callable, count: Optional[Callable]):
    spans, stack, ids = recorder.spans, recorder.stack, recorder.ids

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = next(ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.append((sid, parent, name, start, perf_counter(), None))
            stack.pop()
            raise
        end = perf_counter()
        stack.pop()
        spans.append(
            (sid, parent, name, start, end,
             count(args, kwargs, result) if count else None)
        )
        return result

    return wrapper


class TracedTask:
    """The task function ``parallel_map`` ships to its workers.

    Picklable by reference (module-level class, module-level ``fn``).  In a
    forked worker it starts from an empty buffer, records the task as a
    root span and appends the worker's spans to ``spans-<pid>.jsonl``.
    Run inline in the parent (a sequential map) it is an ordinary span.
    """

    def __init__(self, fn: Callable, span_dir: str, owner_pid: int) -> None:
        self.fn = fn
        self.span_dir = span_dir
        self.owner_pid = owner_pid

    def __call__(self, *args):
        recorder = _active
        pid = os.getpid()
        if recorder is None or pid == self.owner_pid:
            return self._run(recorder, args)
        if recorder.pid != pid:
            recorder.reset()  # drop the buffer inherited through fork
        try:
            return self._run(recorder, args)
        finally:
            path = os.path.join(self.span_dir, f"spans-{pid}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"pid": pid, "spans": recorder.spans}) + "\n")
            recorder.spans.clear()

    def _run(self, recorder: Optional[Recorder], args):
        if recorder is None:
            return self.fn(*args)
        return _wrap(recorder, TASK_SPAN, self.fn, None)(*args)


#: The recorder of the installed wrappers (``None`` when none are).
_active: Optional[Recorder] = None
_restore: List[Tuple[object, str, object]] = []


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder, span_dir: str) -> None:
    """Wrap every boundary in :data:`BOUNDARIES`; see the module docstring."""
    global _active
    if _active is not None:
        raise RuntimeError("span wrappers are already installed")
    resolved = [(name, *_resolve(target), count) for name, target, count in BOUNDARIES]
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "repro" or key.startswith("repro."))
    ]
    owner_pid = os.getpid()
    for name, owner, attr, count in resolved:
        original = owner.__dict__[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{name}: {attr} is not a plain function")
        fn = original
        if name == "parallel.map":
            fn = _pool_adapter(original, span_dir, owner_pid)
        wrapper = _wrap(recorder, name, fn, count)
        if isinstance(owner, type):
            _restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    _restore.append((module, key, original))
                    setattr(module, key, wrapper)
    _active = recorder


def _pool_adapter(original: Callable, span_dir: str, owner_pid: int) -> Callable:
    def parallel_map(fn, tasks, workers=None):
        return original(TracedTask(fn, span_dir, owner_pid), tasks, workers)

    return parallel_map


def uninstall() -> None:
    """Put every original back."""
    global _active
    while _restore:
        owner, attr, original = _restore.pop()
        setattr(owner, attr, original)
    _active = None


def read_worker_spans(span_dir: str) -> List[Tuple[int, List[Span]]]:
    """Merge and delete the span files pool workers wrote, by pid."""
    by_pid: Dict[int, List[Span]] = {}
    for entry in sorted(os.listdir(span_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        path = os.path.join(span_dir, entry)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                batch = json.loads(line)
                by_pid.setdefault(batch["pid"], []).extend(
                    tuple(span) for span in batch["spans"]
                )
        os.unlink(path)
    return sorted(by_pid.items())


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations.

    ``spans`` must come from one process: a span in another process is
    never a child, whatever its timestamps.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for sid, parent, _name, start, end, _counts in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - covered.get(sid, 0.0)
        for sid, _parent, _name, start, end, _counts in spans
    }


def aggregate(processes: List[Tuple[int, List[Span]]]) -> dict:
    """Per-boundary calls, self time and summed counts over all processes.

    ``processes[0]`` is the parent.  Also returns the parent's own self
    time total (what the attribution identity needs) and each task span's
    duration.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    counts: Dict[str, Dict[str, float]] = {}
    task_durations: List[float] = []
    parent_self_s = 0.0
    for index, (_pid, spans) in enumerate(processes):
        own = self_times(spans)
        for sid, _parent, name, start, end, span_counts in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[sid]
            if index == 0:
                parent_self_s += own[sid]
            if name == TASK_SPAN:
                task_durations.append(end - start)
            if span_counts:
                bucket = counts.setdefault(name, {})
                for key, value in span_counts.items():
                    if key == "workers":
                        bucket[key] = max(bucket.get(key, 0), value)
                    else:
                        bucket[key] = bucket.get(key, 0) + value
    return {
        "calls": calls,
        "self_s": self_s,
        "counts": counts,
        "task_durations": task_durations,
        "parent_self_s": parent_self_s,
    }


def count_under(spans: List[Span], name: str, key: str, ancestor: str) -> float:
    """Sum ``key`` over ``name`` spans nested (at any depth) in an
    ``ancestor`` span of the same process."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for sid, parent, span_name, _s, _e, span_counts in spans:
        if span_name != name or not span_counts:
            continue
        while parent >= 0:
            ancestor_span = by_id[parent]
            if ancestor_span[2] == ancestor:
                total += span_counts[key]
                break
            parent = ancestor_span[1]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SPAN_NAMES: Tuple[str, ...] = tuple(name for name, _target, _count in BOUNDARIES) + (TASK_SPAN,)

#: Per-layer metrics in print order, with units.  ``BENCHMARK.json`` lists
#: exactly these.  Self time is declared as a share of the traced wall
#: time: a boundary a workload never reaches would otherwise declare a time
#: of exactly 0 s on every run.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = tuple(
    [
        (f"{name}.{suffix}", unit)
        for name in SPAN_NAMES
        for suffix, unit in (("calls", "count"), ("self_share", "ratio"))
    ]
    + [
        ("gen2.slots", "count"),
        ("gen2.reads", "count"),
        ("gen2.lost_reads", "count"),
        ("gen2.read_efficiency", "ratio"),
        ("gen2.ns_per_slot", "ns"),
        ("world.observations", "count"),
        ("world.us_per_observation", "us"),
        ("reader.us_per_round", "us"),
        ("core.gmm_readings", "count"),
        ("core.bitmasks", "count"),
        ("core.select_precision", "ratio"),
        ("site.cull_keep_ratio", "ratio"),
        ("site.fusion.rows_in", "count"),
        ("site.fusion.accept_ratio", "ratio"),
        ("parallel.workers", "count"),
        ("parallel.busy_share", "ratio"),
        ("parallel.skew", "ratio"),
        ("runtime.checkpoint_bytes", "bytes"),
        ("bench.traced_wall_s", "s"),
        ("bench.unattributed_s", "s"),
        ("bench.unattributed_share", "ratio"),
        ("bench.trace_overhead", "ratio"),
    ]
)

#: Printed beside :data:`LAYER_METRICS` but not declared: host times that
#: are exactly 0 on the workloads that never reach their boundary.
REPORT_METRICS: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{name}.self_s", "s") for name in SPAN_NAMES]
    + [
        ("parallel.map.wall_s", "s"),
        ("parallel.task_s_sum", "s"),
        ("parallel.task_s_max", "s"),
    ]
)


def layer_metrics(agg: dict, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` and :data:`REPORT_METRICS` value from
    one :func:`aggregate` result."""
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]

    def count(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.self_share"] = _ratio(self_s.get(name, 0.0), traced_wall_s)

    slots = count("gen2.run_round", "slots")
    reads = count("gen2.run_round", "reads")
    observations = count("world.observe_batch", "items")
    targets = count("core.select_bitmasks", "targets")
    rows = count("site.ingest_rows", "rows")
    map_wall = self_s.get("parallel.map", 0.0)
    workers = count("parallel.map", "workers")
    tasks = agg["task_durations"]
    task_sum = sum(tasks)
    unattributed = traced_wall_s - agg["parent_self_s"]
    out.update({
        "gen2.slots": slots,
        "gen2.reads": reads,
        "gen2.lost_reads": count("gen2.run_round", "lost"),
        "gen2.read_efficiency": _ratio(reads, slots),
        "gen2.ns_per_slot": _ratio(self_s.get("gen2.run_round", 0.0), slots) * 1e9,
        "world.observations": observations,
        "world.us_per_observation": _ratio(self_s.get("world.observe_batch", 0.0), observations) * 1e6,
        "reader.us_per_round": _ratio(
            self_s.get("reader.inventory_round", 0.0), calls.get("reader.inventory_round", 0)
        ) * 1e6,
        "core.gmm_readings": count("core.observe_all", "items"),
        "core.bitmasks": count("core.select_bitmasks", "bitmasks"),
        "core.select_precision": _ratio(targets, targets + count("core.select_bitmasks", "collateral")),
        "site.cull_keep_ratio": _ratio(
            count("site.reachable_tag_indices", "kept"), count("site.reachable_tag_indices", "total")
        ),
        "site.fusion.rows_in": rows,
        "site.fusion.accept_ratio": _ratio(count("site.ingest_rows", "accepted"), rows),
        "parallel.map.wall_s": map_wall,
        "parallel.workers": workers,
        "parallel.task_s_sum": task_sum,
        "parallel.task_s_max": max(tasks, default=0.0),
        "parallel.busy_share": _ratio(task_sum, workers * map_wall),
        "parallel.skew": _ratio(max(tasks, default=0.0), _ratio(task_sum, len(tasks))),
        "runtime.checkpoint_bytes": count("runtime.checkpoint_save", "bytes"),
        "bench.traced_wall_s": traced_wall_s,
        "bench.unattributed_s": unattributed,
        "bench.unattributed_share": _ratio(unattributed, traced_wall_s),
        "bench.trace_overhead": _ratio(traced_wall_s, untraced_wall_s),
    })
    return out
