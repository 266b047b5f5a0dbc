"""Shared fixtures: the bench modules on ``sys.path`` and one ``--quick``
run of every workload per session (fresh interpreters, as ``run.py``
starts them)."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Not the default seed, so digests are checked traced against untraced.
QUICK_SEED = 3


@pytest.fixture(scope="session")
def bench_tmp():
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tests-", dir=build)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="session")
def quick_results(bench_tmp):
    import run
    from workloads import WORKLOADS

    return {
        name: run.bench_workload(name, QUICK_SEED, 0.0, True, None, bench_tmp)
        for name in WORKLOADS
    }
