"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one fixed-size
execution through the program's public API, and reduces the outputs to
per-unit sha256 digests plus the numbers the report needs.  Why each one
exists — which layer it stresses and which optimisations it bypasses — is
recorded in ``bench/README.md``.

Program functions are looked up through their ``repro`` module at call time
(``harness.build_lab``, ``site.simulate_site``), so the traced pass's
wrappers, installed after import, see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import statistics
from typing import Dict, List

#: Paper constants the IRR fit is compared against (Section 2.3).
PAPER_TAU0_S = 19e-3
PAPER_TAU_BAR_S = 0.18e-3


def derive_seed(seed: int, name: str) -> int:
    """A 31-bit seed that depends only on the benchmark seed and ``name``."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def digest(obj) -> str:
    """sha256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _log_record(log) -> list:
    if log is None:
        return []
    return [
        log.n_empty, log.n_single, log.n_collision, log.n_duplicate,
        log.n_lost, log.n_rounds, log.n_adjusts, log.start_time_s,
        log.end_time_s, log.truncated, [list(read) for read in log.reads],
    ]


class IrrSweep:
    """Fig 2: Q-adaptive rounds over 1..40 stationary tags, one antenna."""

    name = "irr_sweep"
    modules = ("repro.experiments.harness", "repro.gen2.aloha", "repro.radio.constants", "repro.core.cost")
    initial_qs = (4, 2, 6)  # fig02 order: the fit uses the first (Q0 = 4)
    tag_counts = (1, 2, 5, 10, 15, 20, 25, 30, 35, 40)

    def inputs(self, seed: int, quick: bool) -> dict:
        base = derive_seed(seed, self.name)
        return {
            "rounds": 40 if quick else 1300,
            "settings": [
                (q, n, base + 1000 * q + n)
                for q in self.initial_qs for n in self.tag_counts
            ],
        }

    def execute(self, inputs: dict, workdir: str) -> list:
        harness = importlib.import_module("repro.experiments.harness")
        aloha = importlib.import_module("repro.gen2.aloha")
        plan = importlib.import_module("repro.radio.constants").china_920_926()
        out = []
        for q, n, seed in inputs["settings"]:
            lab = harness.build_lab(
                n_tags=n, n_mobile=0, seed=seed, n_antennas=1, channel_plan=plan
            )
            lab.reader.engine.strategy_factory = lambda q=q: aloha.QAdaptive(initial_q=q)
            durations = []
            slots = 0
            for _ in range(inputs["rounds"]):
                log = lab.reader.inventory_round(0).log
                durations.append(log.duration_s)
                slots += log.n_slots
            out.append((q, n, durations, slots))
        return out

    def summarize(self, outputs: list) -> dict:
        cost = importlib.import_module("repro.core.cost")
        fit_curve = [
            statistics.fmean(d) for q, _n, d, _s in outputs if q == self.initial_qs[0]
        ]
        fitted = cost.CostModel.fit(list(self.tag_counts), fit_curve)
        return {
            "units": {f"q{q}/n{n}": digest(d) for q, n, d, _s in outputs},
            "exposed_slots": {"total": sum(s for *_rest, s in outputs)},
            "fidelity": {
                "tau0_ms": fitted.tau0_s * 1e3,
                "tau_bar_ms": fitted.tau_bar_s * 1e3,
                "tau0_err_pct": abs(fitted.tau0_s / PAPER_TAU0_S - 1) * 100,
                "tau_bar_err_pct": abs(fitted.tau_bar_s / PAPER_TAU_BAR_S - 1) * 100,
            },
        }


class TagwatchMobility:
    """Fig 18: Tagwatch cycles on partitioned 400-tag deployments, then
    the read-all baseline over the same simulated interval."""

    name = "tagwatch_mobility"
    modules = ("repro.experiments.harness", "repro.core")
    percents = (5, 10, 20)
    warmup_cycles = 2  # excluded from the gain window, as in fig18_gain

    def inputs(self, seed: int, quick: bool) -> dict:
        n_tags = 100 if quick else 400
        cycles = (4, 4, 4) if quick else (34, 24, 12)
        return {
            "n_tags": n_tags,
            "warm_up_s": max(15.0, 0.3 * n_tags),
            "deployments": [
                (pct, max(1, round(n_tags * pct / 100)), n_cycles,
                 derive_seed(seed, f"{self.name}/{pct}"))
                for pct, n_cycles in zip(self.percents, cycles)
            ],
        }

    def execute(self, inputs: dict, workdir: str) -> list:
        harness = importlib.import_module("repro.experiments.harness")
        config = importlib.import_module("repro.core").TagwatchConfig(
            phase2_duration_s=2.0, selection_method="greedy", fallback_fraction=1.0
        )
        out = []
        for pct, n_mobile, n_cycles, seed in inputs["deployments"]:
            lab = harness.build_lab(
                n_tags=inputs["n_tags"], n_mobile=n_mobile, seed=seed, partition=True
            )
            tagwatch = lab.tagwatch(config)
            tagwatch.warm_up(inputs["warm_up_s"])
            cycles = tagwatch.run(n_cycles)
            measured = cycles[self.warmup_cycles:]
            t0, t1 = measured[0].phase1_start_s, measured[-1].phase2_end_s
            mobile = sorted(lab.mobile_epc_values)
            adaptive = {v: tagwatch.history.irr(v, t0, t1).irr_hz for v in mobile}
            baseline = harness.build_lab(
                n_tags=inputs["n_tags"], n_mobile=n_mobile, seed=seed, partition=True
            )
            base_irr, _ = harness.read_all_irr(baseline, duration_s=t1 - t0)
            gains = [adaptive[v] / base_irr[v] for v in mobile if base_irr.get(v, 0.0) > 0]
            out.append((pct, gains, cycles))
        return out

    def summarize(self, outputs: list) -> dict:
        units = {}
        fidelity = {}
        decision_ms: List[float] = []
        cycle_slots = 0
        for pct, gains, cycles in outputs:
            records = []
            for c in cycles:
                records.append([
                    c.index, _log_record(c.phase1_log), _log_record(c.phase2_log),
                    sorted(c.target_epc_values), c.fallback,
                ])
                decision_ms.append((c.assessment_wall_s + c.scheduling_wall_s) * 1e3)
                cycle_slots += c.phase1_log.n_slots
                if c.phase2_log is not None:
                    cycle_slots += c.phase2_log.n_slots
            units[f"mobile{pct}pct"] = digest({"gains": gains, "cycles": records})
            fidelity[f"irr_gain_p50_{pct}pct"] = statistics.median(gains)
        fidelity["irr_gain_p50"] = fidelity[f"irr_gain_p50_{self.percents[0]}pct"]
        return {
            "units": units,
            "exposed_slots": {"cycles": cycle_slots},
            "decision_ms": decision_ms,
            "fidelity": fidelity,
        }


class SiteAisle:
    """A 48-reader aisle over 20k tags, sharded over a 2-worker pool."""

    name = "site_aisle"
    modules = ("repro.site", "repro.site.site", "repro.runtime.invariants")
    workers = 2  # fixed, not taken from the core count

    def inputs(self, seed: int, quick: bool):
        site = importlib.import_module("repro.site")
        n_readers, n_tags, n_mobile, duration_s = (
            (8, 2000, 20, 0.5) if quick else (48, 20_000, 200, 3.0)
        )
        return site.SiteConfig(
            topology=site.line_site(n_readers, n_tags),
            seed=derive_seed(seed, self.name),
            n_mobile=n_mobile,
            mobile_speed_mps=1.0,
            base_read_loss=0.2,
            coordinator=site.ChannelCoordinator(n_channels=16),
            duration_s=duration_s,
        )

    def execute(self, config, workdir: str):
        return importlib.import_module("repro.site.site").simulate_site(config, workers=self.workers)

    def summarize(self, run) -> dict:
        units = {
            f"reader-{s['reader_id']}": digest(s) for s in run.reader_summaries
        }
        units["fusion"] = digest(run.fusion.snapshot())
        suite = importlib.import_module("repro.runtime.invariants").SiteInvariantSuite(run.truth_epc_values)
        return {
            "units": units,
            "violations": {"fusion": 1} if suite.check(run.fusion) else {},
            "exposed_slots": {"total": sum(s["n_slots"] for s in run.reader_summaries)},
            "fidelity": {"missed_rate": run.missed_rate},
        }


class SoakChaos:
    """The chaos soak: supervised cycles under crashes, kills, checkpoint
    corruption, jams, blackouts and churn, checkpointing to disk."""

    name = "soak_chaos"
    modules = ("repro.experiments.soak",)

    def inputs(self, seed: int, quick: bool):
        soak = importlib.import_module("repro.experiments.soak")
        if quick:
            # Short enough for the self-tests, with a kill and a corruption
            # inside the run so every runtime path still executes.
            return soak.SoakConfig(
                seed=derive_seed(seed, self.name), n_cycles=100,
                kill_every=50, corrupt_every=75,
            )
        return soak.SoakConfig(seed=derive_seed(seed, self.name), n_cycles=700)

    def execute(self, config, workdir: str):
        soak = importlib.import_module("repro.experiments.soak")
        return soak.run(dataclasses.replace(config, checkpoint_dir=workdir))

    def summarize(self, report) -> dict:
        payload = report.to_dict()
        del payload["wall_s"]
        return {
            "units": {"report": digest(payload)},
            "weights": {"report": report.n_cycles},
            "violations": (
                {"report": min(report.n_cycles, len(report.violations))}
                if report.violations else {}
            ),
            "exposed_slots": {},
            "fidelity": {},
        }


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (IrrSweep(), TagwatchMobility(), SiteAisle(), SoakChaos())
}
