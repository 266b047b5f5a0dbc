"""Deterministic process-pool fan-out for experiment drivers.

The sweep drivers (fig02, fig18, the ablations, the fault sweep, the soak
replicas) all share one shape: a list of *independent* settings, each of
which builds its own seeded lab and reduces it to a result.  This module
runs such task lists either inline (``workers <= 1``, the behavioural
reference) or across a process pool — with the invariant that **both paths
produce identical results in the same order**, because every task carries
its own seed and the merge is by task position, never completion order.

Three rules keep the fan-out deterministic:

1. *Task functions are pure against their arguments.*  Each task derives
   every generator it needs from the seeds in its arguments; nothing leaks
   in from the parent process.
2. *Fresh seeds come from ``SeedSequence.spawn``.*  When a driver needs
   per-task seeds that are not already part of its contract (e.g. soak
   replicas), :func:`spawn_seeds` derives statistically independent child
   seeds that are a pure function of ``(seed, n)``.
3. *Results and traces merge in task order.*  Worker-side trace records
   are shipped back with each result and absorbed into the ambient tracer
   batch by batch (see :meth:`Tracer.absorb`), so one ``--trace-out`` file
   carries the whole parallel run and the existing exporters need no
   changes.

Merged-trace determinism has been audited end to end (and is pinned by
``tests/experiments/test_parallel.py::TestTraceMergeDeterminism`` across
``workers`` 1/2/4): results come back via ``pool.map``, which preserves
submission order regardless of completion order or worker count; record
``args`` dicts are insertion-ordered at the instrumentation site, ride
through pickle unchanged, and every exporter serialises mappings with
sorted keys; and :meth:`Tracer.absorb` remaps ids past the ambient counter
and re-anchors batch roots under the currently open span, so ids, parent
links and depths match the sequential run byte for byte.

Worker processes re-import the task function by qualified name, so tasks
must be module-level functions and their arguments picklable.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Tracer, get_tracer, use_tracer

__all__ = [
    "resolve_workers",
    "spawn_seeds",
    "parallel_map",
]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value.

    ``None``, ``0`` and ``1`` mean sequential; a negative value means one
    worker per available core; anything else is taken literally.
    """
    if workers is None or workers in (0, 1):
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def spawn_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent task seeds derived from ``seed``.

    Uses ``numpy.random.SeedSequence.spawn``, so the children are
    statistically independent of each other and of the parent, yet a pure
    function of ``(seed, n)`` — the same call always yields the same seeds
    no matter how many workers later consume them.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def _run_task(payload: Tuple[Callable, tuple, bool, str]) -> Tuple[Any, list]:
    """Worker-side wrapper: run one task under a private tracer."""
    fn, args, traced, detail = payload
    if not traced:
        return fn(*args), []
    tracer = Tracer(detail=detail)
    with use_tracer(tracer):
        result = fn(*args)
    return result, tracer.records


def parallel_map(
    fn: Callable,
    tasks: Sequence[tuple],
    workers: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(*task)`` for every task; results in task order.

    Sequential (``workers <= 1``) runs inline under the ambient tracer and
    defines the reference behaviour.  With more workers the tasks fan out
    over a process pool; because each task is seeded by its arguments, the
    results are identical to the sequential run, and each task's trace
    records are absorbed into the ambient tracer in task order.
    """
    task_tuples = [t if isinstance(t, tuple) else (t,) for t in tasks]
    n_workers = min(resolve_workers(workers), max(1, len(task_tuples)))
    if n_workers <= 1:
        return [fn(*t) for t in task_tuples]
    ambient = get_tracer()
    traced = bool(ambient.enabled)
    detail = "frame" if getattr(ambient, "frame_detail", False) else "round"
    payloads = [(fn, t, traced, detail) for t in task_tuples]
    # Forked workers inherit the parent's heap.  Frozen, it is outside
    # every collection, so a worker's collections neither scan it nor
    # write its object headers (which would copy each shared page); the
    # parent thaws it once the pool is done.  A heap some caller froze
    # already is left as it is.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outs = list(pool.map(_run_task, payloads))
    finally:
        if freeze:
            gc.unfreeze()
    results: List[Any] = []
    for result, records in outs:
        if records:
            ambient.absorb(records)
        results.append(result)
    return results
