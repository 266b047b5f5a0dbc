"""Differential tests of the columnar motion assessor.

:class:`MotionAssessor` keeps its shards as columnar rows and settles each
reading batch in the compiled kernel of :mod:`repro.gen2._ckernel`, or,
without it, by rebuilding each touched row as a
:class:`GaussianMixtureStack`.  Both must match an oracle that keeps one
``GaussianMixtureStack`` per shard and feeds it reading by reading: the
same per-reading verdicts and byte-identical ``assessor_state`` JSON.  The
seeded streams below are built to reach every branch of the update.
"""

import json

import numpy as np
import pytest

from repro.core import gmm
from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.core.motion import MotionAssessor
from repro.core.persistence import _params_to_dict, assessor_state, restore_assessor
from repro.gen2 import _ckernel, _kernel_probes
from repro.gen2.epc import random_epc_population
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI

BACKENDS = ("compiled", "fallback")


class OracleAssessor:
    """One ``GaussianMixtureStack`` per shard, fed one reading at a time."""

    def __init__(self, params, key_by_channel=True, expire_after_s=60.0):
        self.params = params
        self.key_by_channel = key_by_channel
        self.expire_after_s = expire_after_s
        self.stacks = {}
        self.last_seen = {}
        self.votes = {}
        self.branches = {"top_match": 0, "lower_match": 0, "evict": 0}

    def observe(self, obs):
        channel = obs.channel_index if self.key_by_channel else 0
        key = (obs.epc.value, obs.antenna_index, channel)
        stack = self.stacks.get(key)
        if stack is None:
            stack = self.stacks[key] = GaussianMixtureStack(self.params)
        self._note_branch(stack, obs.phase_rad)
        stationary = stack.update(obs.phase_rad)
        self.last_seen[obs.epc.value] = obs.time_s
        self.votes.setdefault(obs.epc.value, []).append(not stationary)
        return stationary

    def _note_branch(self, stack, value):
        """Count which update branch ``value`` is about to take."""
        before = {id(mode): mode.n_matches for mode in stack.modes}
        top = stack.sorted_modes()[0] if stack.modes else None
        full = len(stack.modes) >= self.params.max_modes
        probe = GaussianMixtureStack.from_state(stack.state_dict(), self.params)
        probe.update(value)
        for mode, copy in zip(stack.modes, probe.modes):
            if copy.n_matches > before[id(mode)]:
                self.branches["top_match" if mode is top else "lower_match"] += 1
                return
        if full:
            self.branches["evict"] += 1

    def assess(self):
        self.votes.clear()

    def expire(self, now_s):
        stale = {
            epc for epc, last in self.last_seen.items()
            if now_s - last > self.expire_after_s
        }
        self.stacks = {
            key: stack for key, stack in self.stacks.items()
            if key[0] not in stale
        }
        for epc in stale:
            del self.last_seen[epc]
            self.votes.pop(epc, None)

    def state(self, vote_rule="any"):
        """What ``assessor_state(..., include_votes=True)`` must return."""
        shards = []
        for (epc, antenna, channel), stack in self.stacks.items():
            shard = stack.state_dict()
            shard.update(epc=f"{epc:x}", antenna=antenna, channel=channel)
            shards.append(shard)
        return {
            "version": 2,
            "params": _params_to_dict(self.params),
            "vote_rule": vote_rule,
            "key_by_channel": self.key_by_channel,
            "expire_after_s": self.expire_after_s,
            "last_seen": {f"{e:x}": t for e, t in self.last_seen.items()},
            "shards": shards,
            "votes": {f"{e:x}": list(f) for e, f in self.votes.items()},
        }


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run the assessor on the compiled kernel, or force its fallback."""
    if request.param == "compiled":
        if _ckernel.load_gmm_kernel() is None:
            pytest.skip("compiled assessor unavailable")
    else:
        monkeypatch.setattr(_ckernel, "_GMM_ATTEMPTED", True)
        monkeypatch.setattr(_ckernel, "_GMM", None)
    return request.param


def make_obs(epc, t, phase, antenna=0, channel=0):
    return TagObservation(
        epc=epc,
        time_s=float(t),
        phase_rad=float(np.mod(phase, TWO_PI)),
        rss_dbm=-50.0,
        antenna_index=antenna,
        channel_index=channel,
    )


def stream(seed, n, n_tags=3, n_antennas=2, n_channels=3, kind="clustered"):
    """A seeded reading stream over a few shards.

    ``clustered``: each shard dwells near one of two phase clusters (one at
    the 0/2pi wrap) and sometimes jumps to the other, so lower-priority
    modes get matched; ``uniform``: phases all over the circle, so a small
    stack keeps evicting.
    """
    rng = np.random.default_rng(seed)
    epcs = random_epc_population(n_tags, rng=seed)
    centres = rng.uniform(0.0, TWO_PI, size=(n_tags, n_antennas, n_channels))
    centres[0] = 0.02  # tag 0 sits on the wrap
    out = []
    for i in range(n):
        tag = int(rng.integers(n_tags))
        antenna = int(rng.integers(n_antennas))
        channel = int(rng.integers(n_channels))
        if kind == "uniform":
            phase = rng.uniform(0.0, TWO_PI)
        else:
            centre = centres[tag, antenna, channel]
            if rng.random() < 0.15:
                centre += 2.5
            phase = centre + rng.normal(0.0, 0.08)
        out.append(make_obs(epcs[tag], 0.01 * i, phase, antenna, channel))
    return out


def run_both(assessor, oracle, observations, batch=28):
    """Feed both in batches; per-reading verdicts must agree."""
    for start in range(0, len(observations), batch):
        chunk = observations[start:start + batch]
        expected = [oracle.observe(obs) for obs in chunk]
        assert assessor.observe_all(chunk) == expected


def assert_same_state(assessor, oracle):
    got = json.dumps(assessor_state(assessor, include_votes=True))
    assert got == json.dumps(oracle.state(assessor.vote_rule))


@pytest.mark.parametrize(
    "params, kind",
    [
        (GmmParams(), "clustered"),
        (GmmParams(learning_rate=0.05), "clustered"),  # the pdf branch
        (GmmParams(max_modes=3), "uniform"),  # eviction at a full stack
        (GmmParams(max_modes=3), "clustered"),
        (GmmParams(max_modes=40), "uniform"),  # no fixed-size mode buffer
    ],
)
def test_matches_per_shard_oracle(backend, params, kind):
    observations = stream(7, 3000, kind=kind)
    assessor = MotionAssessor(params)
    oracle = OracleAssessor(params)
    run_both(assessor, oracle, observations[:1500])
    assert_same_state(assessor, oracle)
    assessor.assess()
    oracle.assess()
    run_both(assessor, oracle, observations[1500:], batch=1)
    assert_same_state(assessor, oracle)
    if kind == "clustered":
        assert oracle.branches["lower_match"] > 0
    if params.max_modes == 3 and kind == "uniform":
        assert oracle.branches["evict"] > 0


def test_streams_reach_every_branch(monkeypatch):
    """The oracle streams above cross the first push, a top and a lower
    match, an eviction, the density (pdf) branch and the phase wrap."""
    pdf_calls = []
    real_pdf = gmm.GaussianMode.pdf

    def counting_pdf(self, value, circular=True):
        pdf_calls.append(value)
        return real_pdf(self, value, circular)

    monkeypatch.setattr(gmm.GaussianMode, "pdf", counting_pdf)
    observations = stream(7, 3000)
    oracle = OracleAssessor(GmmParams(learning_rate=0.05))
    for obs in observations:
        oracle.observe(obs)
    assert oracle.branches["top_match"] and oracle.branches["lower_match"]
    assert pdf_calls
    phases = [obs.phase_rad for obs in observations]
    assert min(phases) < 0.05 and max(phases) > TWO_PI - 0.05

    evicting = OracleAssessor(GmmParams(max_modes=3))
    for obs in stream(7, 3000, kind="uniform"):
        evicting.observe(obs)
    assert evicting.branches["evict"]


def test_channel_merged_shards(backend):
    params = GmmParams()
    observations = stream(11, 2000)
    assessor = MotionAssessor(params, key_by_channel=False)
    oracle = OracleAssessor(params, key_by_channel=False)
    run_both(assessor, oracle, observations)
    assert_same_state(assessor, oracle)


def test_expire_then_reobserve(backend):
    """Expiry compacts the rows; shards seen again are appended, in the
    order a dict of stacks would hold them."""
    params = GmmParams(max_modes=3)
    observations = stream(5, 1200, n_tags=4)
    assessor = MotionAssessor(params, expire_after_s=2.0)
    oracle = OracleAssessor(params, expire_after_s=2.0)
    epc0 = observations[0].epc.value
    late = [obs for obs in observations[600:] if obs.epc.value != epc0]
    run_both(assessor, oracle, observations[:600])
    run_both(assessor, oracle, late[:300])
    now = late[299].time_s
    assert assessor.expire(now) == 1
    oracle.expire(now)
    assert_same_state(assessor, oracle)
    shifted = [obs._replace(time_s=obs.time_s + 1.0) for obs in observations[:300]]
    run_both(assessor, oracle, shifted)
    assert_same_state(assessor, oracle)


def test_checkpoint_round_trip_mid_stream(backend):
    """Restoring a checkpoint mid-stream then continuing lands on the
    uninterrupted run's bytes."""
    params = GmmParams(max_modes=4)
    observations = stream(3, 1600)
    straight = MotionAssessor(params)
    straight.observe_all(observations)
    first = MotionAssessor(params)
    first.observe_all(observations[:800])
    state = json.loads(json.dumps(assessor_state(first, include_votes=True)))
    resumed = restore_assessor(state)
    resumed.observe_all(observations[800:])
    assert json.dumps(assessor_state(resumed, include_votes=True)) == json.dumps(
        assessor_state(straight, include_votes=True)
    )


def test_restore_rejects_more_modes_than_max_modes():
    params = GmmParams(max_modes=2)
    stack = GaussianMixtureStack(GmmParams(max_modes=3))
    for value in (0.5, 2.0, 3.5):
        stack.update(value)
    with pytest.raises(ValueError):
        MotionAssessor(params).load_shard((1, 0, 0), stack)


def _kernel_lib():
    """The shared object, with numpy's loops bound (whether or not the
    load-time probes passed: the tests below are those probes, larger)."""
    lib = _ckernel.load_kernel()
    if lib is None:
        pytest.skip("C kernel unavailable")
    _ckernel.load_gmm_kernel()  # sets the probe signatures
    assert lib.repro_bind_loop(_ckernel.NP_EXP, id(np.exp))
    return lib


def _apply(fn, values):
    x = np.asarray(values, dtype=np.float64)
    y = np.empty_like(x)
    fn(x.ctypes.data, y.ctypes.data, len(x))
    return y.tolist()


def test_kernel_exp_is_numpy_exp():
    """The kernel's exp is numpy's float64 loop, not libm's exp."""
    lib = _kernel_lib()
    values = np.random.default_rng(1).uniform(-5.0, 0.0, 20000).tolist()
    assert _kernel_probes.probe_loop(lib, _ckernel.NP_EXP, values) == [
        float(np.exp(v)) for v in values
    ]


def test_kernel_square_is_python_square():
    """The kernel squares with libm pow, as Python's ``x**2`` does; a
    compiler that folds ``pow(x, 2.0)`` into ``x*x`` fails here."""
    lib = _kernel_lib()
    values = np.random.default_rng(2).uniform(0.0, 7.0, 200000).tolist()
    expected = [v**2 for v in values]
    assert any(e != v * v for e, v in zip(expected, values))
    assert _apply(lib.repro_probe_square, values) == expected


def test_load_time_probe_can_see_a_folded_square():
    """The load-time square sample holds values where ``x*x`` and
    ``x**2`` round apart, so the probe rejects a folded ``pow``."""
    roots = _kernel_probes.square_probe_samples()
    assert any(v * v != v**2 for v in roots)


def test_eviction_returns_a_plain_verdict():
    """A reading that evicts a mode from a full stack is a motion reading."""
    stack = GaussianMixtureStack(GmmParams(max_modes=3))
    for value in (0.5, 2.0, 3.5):
        assert stack.update(value) is False
    assert stack.update(5.5) is False
    assert len(stack.modes) == 3
    assert sorted(mode.mean for mode in stack.modes)[-1] == 5.5
