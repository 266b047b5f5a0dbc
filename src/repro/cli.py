"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    List every reproducible figure with its driver module.
``figure <id> [--scale smoke|paper]``
    Run one figure's experiment and print the paper-style report.
``demo [--tags N --mobile M --cycles K]``
    Run a live Tagwatch deployment and print per-cycle decisions.
``predict [--tags N --phase2 S]``
    Print the analytic gain curve and break-even percentage (Fig 18's
    back-of-envelope).
``rospec [--targets N --population N]``
    Plan a Phase II schedule for a random population and dump the ROSpec
    as LTK-style XML (the paper's Fig 11).
``faults [--loss P --disconnect-at T ... --metrics-out F]``
    Run Tagwatch under an injected fault plan with the resilient client and
    export the structured metrics (retries, backoff, drops, IRR) as JSON;
    ``--sweep`` charts a whole loss-rate degradation curve instead.
``soak [--cycles N --seed S --out F]``
    Chaos soak: run the supervised runtime (checkpointing, watchdog,
    escalation ladder) for thousands of cycles under a seeded fault
    schedule — reader crashes, antenna dropouts, jamming bursts, tag
    churn, middleware kills, checkpoint corruption — with runtime
    invariants checked after every cycle.  Exits non-zero on any
    violation (see ``docs/robustness.md``).
``health [--cycles N --blackout A:S:E --bundle-dir D --watch]``
    Run a supervised deployment with the flight recorder attached and
    print the JSON health report: per-SLO burn-rate verdicts, rolling
    IRR/staleness statistics, client state, and any incident bundles cut
    (each validated before exit).  ``--watch`` streams a one-line status
    per cycle (see ``docs/observability.md``).
``site [--readers N --tags N --mobile M --workers W --check-differential]``
    Simulate a multi-reader warehouse site (overlapping coverage, channel
    coordination, reader-to-reader interference) sharded across the
    process pool, fuse the per-reader reports, and run the site invariant
    suite.  ``--check-differential`` re-runs sequentially with unculled
    shards, re-fuses that run one report at a time, and fails unless the
    result is byte-identical (see ``docs/site.md``).
``site --chaos [--epochs N --outages K --bundle-dir D]``
    Run the site under a :class:`~repro.site.supervisor.SiteSupervisor`
    with a seeded fault plan killing readers mid-run: watchdog detection,
    channel re-planning over survivors, coverage rebalancing, warm rejoin
    from checkpoints, per-outage incident bundles, and the failover
    invariants/SLOs deciding the exit code (see ``docs/site.md``).

Every subcommand accepts ``--trace-out F`` (simulation-time trace; Chrome
trace-event JSON by default, ``--trace-format jsonl`` for the event log),
and ``--metrics-out F`` (telemetry registry; JSON, or Prometheus text when
``F`` ends in ``.prom``/``.txt``).  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import ExitStack, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Set, TypeVar

from repro.core import TagwatchConfig
from repro.core.analysis import breakeven_percent, predicted_gain
from repro.core.cost import PAPER_R420
from repro.core.scheduler import TargetScheduler
from repro.experiments import report as figure_report
from repro.experiments.harness import build_lab
from repro.gen2.epc import EPC, random_epc_population
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_logger,
    get_tracer,
    metrics_to_prometheus,
    use_metrics,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.reader.llrp import rospec_to_xml
from repro.util.tables import format_table

_log = get_logger("repro.cli")

T = TypeVar("T")


class UsageError(Exception):
    """Flag values a config, plan or lab rejected; only :func:`_checked`
    raises it, and :func:`main` reports it through ``parser.error``."""


def _checked(build: Callable[..., T], *args, **kwargs) -> T:
    """Build a config, plan, lab or prediction from flag values, turning
    the ``ValueError`` of its cross-flag rules (mobile <= tags) into a
    :class:`UsageError`.  Never wrap a run: its ``ValueError`` is a bug."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _checked_type(
    convert: Callable[[str], T], accept: Callable[[T], bool], rule: str
) -> Callable[[str], T]:
    """An argparse ``type=``: ``convert`` the flag's text and reject it,
    naming ``rule``, unless it is finite and ``accept`` holds."""

    def parse(text: str) -> T:
        try:
            value = convert(text)
            ok = -math.inf < value < math.inf and accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_positive_int = _checked_type(int, lambda n: n > 0, "a positive integer")
#: Counts and seeds.
_count = _checked_type(int, lambda n: n >= 0, "a non-negative integer")
_positive_float = _checked_type(float, lambda x: x > 0, "a positive number")
_non_negative_float = _checked_type(
    float, lambda x: x >= 0, "a non-negative number"
)
_probability = _checked_type(
    float, lambda p: 0 <= p <= 1, "a probability in [0, 1]"
)


def _comma_list(item: Callable[[str], T]) -> Callable[[str], List[T]]:
    """An argparse ``type=`` for comma-separated ``item`` values."""
    return lambda text: [item(part) for part in text.split(",")]


def _figure_id(text: str) -> str:
    """A key of the figure table."""
    if text not in figure_report.FIGURES:
        raise argparse.ArgumentTypeError(
            f"unknown figure {text!r}; try: python -m repro figures"
        )
    return text


def _parse_blackout(spec: str):
    from repro.faults import AntennaBlackout

    try:
        antenna, start, end = spec.split(":")
        return AntennaBlackout(int(antenna), float(start), float(end))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"blackout must be ANTENNA:START:END, got {spec!r}"
        ) from exc


def _fault_plan_file(path: str):
    """``--plan``: the fault plan a JSON file describes."""
    from repro.faults import FaultPlan

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return FaultPlan.from_dict(json.load(handle))
    except (OSError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot load a fault plan: {exc}"
        ) from None


def cmd_figures(_args: argparse.Namespace) -> int:
    """List every reproducible figure."""
    rows = [
        [fig_id, figure.title]
        for fig_id, figure in figure_report.FIGURES.items()
    ]
    _log.info(format_table(["id", "figure"], rows, title="Reproducible figures"))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Run one figure's experiment and print its report."""
    figure = figure_report.FIGURES[args.id]
    _log.info(figure.render(args.scale, workers=args.workers))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run a live Tagwatch deployment and print cycle decisions."""
    setup = _checked(
        build_lab,
        n_tags=args.tags, n_mobile=args.mobile, seed=args.seed, partition=True,
    )
    config = _checked(TagwatchConfig, phase2_duration_s=args.phase2)
    tagwatch = setup.tagwatch(config)
    _log.info(f"warming up ({args.warmup:.0f} s of read-all inventory)...")
    tagwatch.warm_up(args.warmup)
    rows = []
    for result in tagwatch.run(args.cycles):
        masks = (
            ", ".join(str(b) for b in result.plan.selection.bitmasks)
            if result.plan
            else "-"
        )
        rows.append(
            [
                result.index,
                result.n_tags_seen,
                len(result.target_epc_values),
                "fallback" if result.fallback else "selective",
                masks[:48],
                len(result.phase2_observations),
            ]
        )
    _log.info(
        format_table(
            ["cycle", "seen", "targets", "mode", "bitmasks", "phase2 reads"],
            rows,
            title=f"Tagwatch demo: {args.mobile} mobile of {args.tags} tags",
        )
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Print the analytic gain curve and break-even point."""
    rows = []
    for percent in (2.0, 5.0, 10.0, 15.0, 20.0, 30.0):
        gain = _checked(
            predicted_gain, PAPER_R420, args.tags, percent, args.phase2
        )
        rows.append([percent, gain])
    breakeven = _checked(breakeven_percent, PAPER_R420, args.tags, args.phase2)
    _log.info(
        format_table(
            ["% mobile", "predicted naive gain"],
            rows,
            title=(
                f"Analytic Fig 18 (n={args.tags}, Phase II {args.phase2:.0f}s); "
                f"break-even at {breakeven:.1f}%"
            ),
        )
    )
    return 0


def _lossy_link_config(phase2_s: float) -> TagwatchConfig:
    """Tagwatch on a lossy link (``faults``, ``health``): a Phase I under
    half the known tags falls back to read-all; a missed tag stays 2 cycles."""
    return _checked(
        TagwatchConfig,
        phase2_duration_s=phase2_s,
        min_phase1_fraction=0.5,
        population_grace_cycles=2,
    )


def cmd_faults(args: argparse.Namespace) -> int:
    """Run Tagwatch under a fault plan; print and export degradation data."""
    from repro.core import TagwatchMonitor
    from repro.experiments import fault_sweep
    from repro.faults import FaultPlan

    config = _lossy_link_config(args.phase2)
    if args.sweep is not None:
        # The sweep points build their labs in workers: build one here so
        # that a flag combination build_lab rejects is a usage error.
        _checked(build_lab, args.tags, args.mobile, args.seed)
        result = fault_sweep.run(
            loss_rates=args.sweep,
            n_tags=args.tags,
            n_mobile=args.mobile,
            n_cycles=args.cycles,
            warmup_s=args.warmup,
            phase2_duration_s=args.phase2,
            seed=args.seed,
            disconnect_at_s=tuple(args.disconnect_at),
            workers=args.workers,
        )
        _log.info(fault_sweep.format_report(result))
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            _log.info(f"wrote {args.metrics_out}")
        return 0

    plan = args.plan
    if plan is None:
        plan = _checked(
            FaultPlan,
            report_loss=args.loss,
            burst_enter=args.burst_enter,
            burst_exit=args.burst_exit,
            phase_spike=args.phase_spike,
            duplicate=args.duplicate,
            reorder=args.reorder,
            delay=args.delay,
            disconnect_at_s=tuple(args.disconnect_at),
            blackouts=tuple(args.blackout),
        )
    setup = _checked(
        build_lab,
        n_tags=args.tags,
        n_mobile=args.mobile,
        seed=args.seed,
        partition=True,
        fault_plan=plan,
    )
    tagwatch = setup.tagwatch(config)
    tagwatch.warm_up(args.warmup)
    monitor = TagwatchMonitor(window=args.cycles)
    rows = []
    for result in tagwatch.run(args.cycles):
        monitor.record(result)
        rows.append(
            [
                result.index,
                result.n_tags_seen,
                len(result.target_epc_values),
                "fallback" if result.fallback else "selective",
                "degraded" if result.degraded else "ok",
                len(result.phase1_observations),
                len(result.phase2_observations),
            ]
        )
    _log.info(
        format_table(
            ["cycle", "seen", "targets", "mode", "health", "ph1", "ph2"],
            rows,
            title=(
                f"Tagwatch under faults: loss={plan.report_loss:.0%}, "
                f"{len(plan.disconnect_at_s)} disconnect(s)"
            ),
        )
    )
    metrics = setup.metrics
    assert metrics is not None
    snapshot = monitor.snapshot()
    export = {
        "plan": plan.to_dict(),
        "run": {
            "tags": args.tags,
            "mobile": args.mobile,
            "cycles": args.cycles,
            "seed": args.seed,
        },
        "monitor": {
            "fallback_fraction": round(snapshot.fallback_fraction, 9),
            "degraded_fraction": round(snapshot.degraded_fraction, 9),
            "mean_phase1_reads": round(snapshot.mean_phase1_reads, 9),
            "mean_phase2_reads": round(snapshot.mean_phase2_reads, 9),
        },
        "irr_by_tag": {
            str(k): round(v, 9)
            for k, v in sorted(monitor.irr_by_tag().items())
        },
        "metrics": metrics.to_dict(),
    }
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(export, handle, indent=2, sort_keys=True)
        _log.info(f"wrote {args.metrics_out}")
    else:
        _log.info(json.dumps(export["metrics"], indent=2, sort_keys=True))
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Run the chaos soak harness; non-zero exit on invariant violations."""
    from repro.experiments import soak

    config = _checked(
        soak.SoakConfig,
        n_cycles=args.cycles,
        seed=args.seed,
        n_tags=args.tags,
        n_mobile=args.mobile,
        crash_every=args.crash_every,
        kill_every=args.kill_every,
        corrupt_every=args.corrupt_every,
        jam_every=args.jam_every,
        blackout_every=args.blackout_every,
        checkpoint_dir=args.checkpoint_dir or None,
        bundle_dir=args.bundle_dir or None,
    )
    if args.runs != 1:
        reports = soak.run_many(config, runs=args.runs, workers=args.workers)
        for report in reports:
            _log.info(soak.format_report(report))
        survived = sum(1 for r in reports if r.ok)
        _log.info(f"soak replicas: {survived}/{len(reports)} survived")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(
                    [r.to_dict() for r in reports],
                    handle, indent=2, sort_keys=True,
                )
            _log.info(f"wrote {args.out}")
        return 0 if survived == len(reports) else 1
    report = soak.run(config)
    _log.info(soak.format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        _log.info(f"wrote {args.out}")
    return 0 if report.ok else 1


def _pick(value, default):
    """An explicitly given flag value, else the mode's default.

    The shared ``site`` flags (``--readers``, ``--tags``, ...) default to
    ``None`` in the parser because the plain run and the ``--chaos`` soak
    want different defaults (4 readers / 1000 tags vs the tuned 6-reader /
    96-tag chaos field); each path fills in its own.
    """
    return default if value is None else value


def _bundles_valid(bundle_dir: str) -> bool:
    """Schema-check every incident bundle in ``bundle_dir``: log each
    problem and a one-line count, and return whether all are valid."""
    from repro.obs.health import list_bundles, validate_bundle

    bundles = list_bundles(bundle_dir)
    valid = True
    for path in bundles:
        for problem in validate_bundle(path):
            _log.error(f"{path.name}: {problem}")
            valid = False
    _log.info(
        f"{len(bundles)} incident bundle(s) in {bundle_dir}"
        + ("" if valid else " — validation FAILED")
    )
    return valid


def _cmd_site_chaos(args: argparse.Namespace) -> int:
    """Run the supervised chaos soak behind ``site --chaos``."""
    import tempfile
    from pathlib import Path

    from repro.experiments import site_soak
    from repro.obs.health import FlightRecorder

    config = _checked(
        site_soak.SiteSoakConfig,
        n_readers=_pick(args.readers, 6),
        n_tags=_pick(args.tags, 96),
        n_mobile=_pick(args.mobile, 4),
        layout=_pick(args.layout, "line"),
        seed=args.seed,
        n_epochs=args.epochs,
        epoch_s=args.epoch,
        base_read_loss=_pick(args.loss, 0.15),
        n_channels=_pick(args.channels, 8),
        n_outages=args.outages,
    )
    _checked(site_soak.build_site_config, config)
    outer_tracer = get_tracer()
    differential_ok: Optional[bool] = None
    with tempfile.TemporaryDirectory(prefix="repro-site-chaos-") as tmp:

        def run_leg(name: str, workers: Optional[int], bundle_dir):
            """One chaos run; with a ``bundle_dir``, a flight recorder
            shadows the ambient tracer to feed the incident bundles."""
            recorder = FlightRecorder() if bundle_dir else None
            with use_tracer(recorder) if bundle_dir else nullcontext():
                report = site_soak.run(
                    config,
                    workers=workers,
                    recorder=recorder,
                    bundle_dir=bundle_dir,
                    checkpoint_path=str(Path(tmp) / f"{name}.ckpt"),
                )
            return report, recorder

        report, recorder = run_leg("site", args.workers, args.bundle_dir or None)
        if recorder is not None and outer_tracer.enabled:
            # Replay the recorder's ring so --trace-out still sees the run.
            outer_tracer.absorb(recorder.records)
        if args.check_differential:
            # The sequential reference mirrors the bundle wiring (bundle
            # names land in the canonical payload) into a throwaway dir.
            reference, _ = run_leg(
                "mirror",
                1,
                str(Path(tmp) / "mirror-bundles") if args.bundle_dir else None,
            )
            differential_ok = (
                reference.canonical_bytes() == report.canonical_bytes()
            )
    _log.info(site_soak.format_report(config, report))
    code = 0 if report.ok else 1
    for violation in report.violations:
        _log.error(f"invariant violation: {violation}")
    if differential_ok is False:
        _log.error(
            "differential check FAILED: sharded chaos run diverges from "
            "the sequential reference"
        )
        code = 1
    elif differential_ok:
        _log.info(
            "differential check: sharded chaos run byte-identical to "
            "sequential reference"
        )
    if args.bundle_dir and not _bundles_valid(args.bundle_dir):
        code = 1
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(report.canonical_bytes())
        _log.info(f"wrote {args.out}")
    return code


def cmd_site(args: argparse.Namespace) -> int:
    """Simulate a multi-reader site; check invariants (and the differential)."""
    from repro.runtime.invariants import SiteInvariantSuite
    from repro.site import (
        ChannelCoordinator,
        FusionLayer,
        SiteConfig,
        TagReport,
        line_site,
        ring_site,
        simulate_site,
    )

    if args.chaos:
        return _cmd_site_chaos(args)
    layout = _pick(args.layout, "ring")
    build = ring_site if layout == "ring" else line_site
    config = _checked(
        SiteConfig,
        topology=_checked(
            build, _pick(args.readers, 4), _pick(args.tags, 1000)
        ),
        seed=args.seed,
        duration_s=args.duration,
        base_read_loss=_pick(args.loss, 0.2),
        coordinator=_checked(
            ChannelCoordinator, n_channels=_pick(args.channels, 16)
        ),
        n_mobile=_pick(args.mobile, 0),
    )
    run = simulate_site(config, workers=args.workers)
    per_reader = run.reports_per_reader()
    rows = [
        [
            summary["reader_id"],
            summary["n_rounds"],
            summary["n_slots"],
            per_reader[summary["reader_id"]],
            summary["read_loss_probability"],
        ]
        for summary in run.reader_summaries
    ]
    _log.info(
        format_table(
            ["reader", "rounds", "slots", "fused reads", "read loss"],
            rows,
            title=(
                f"Site: {run.n_readers} reader(s) ({layout}), "
                f"{config.topology.n_tags} tags, {config.duration_s:.2f} s — "
                f"{run.aggregate_reports} fused reads, "
                f"{len(run.missed_epc_values())} missed "
                f"({run.missed_rate:.1%})"
            ),
        )
    )
    code = 0
    suite = SiteInvariantSuite(run.truth_epc_values)
    for violation in suite.check(run.fusion):
        _log.error(f"invariant violation: {violation}")
    if not suite.ok:
        code = 1
    else:
        _log.info("site invariants: ok")
    health = run.health_report()
    _log.info(
        f"site health: {health['status']} — fusion redundancy "
        f"{health['fusion']['redundancy']:.2f}x "
        f"(budget {health['policy']['redundancy_budget']:.0f}x), "
        f"{health['n_slo_alerts']} SLO alert(s)"
    )
    if args.check_differential:
        # The reference leg deliberately crosses every fast path at once:
        # sequential, unculled shards, and its rows re-fused one report at
        # a time through the scalar ``ingest``.  Byte equality against the
        # (default) culled/columnar sharded run pins all three
        # optimisations as behaviour-neutral in one check.
        reference = simulate_site(config, workers=1, cull=False)
        scalar = FusionLayer()
        for summary in reference.reader_summaries:
            for row in summary["reports"]:
                scalar.ingest(TagReport.from_row(row))
        reference = dataclasses.replace(reference, fusion=scalar)
        if reference.canonical_bytes() != run.canonical_bytes():
            _log.error(
                "differential check FAILED: sharded culled/columnar run "
                "diverges from the sequential unculled, per-report-fused run"
            )
            code = 1
        else:
            _log.info(
                "differential check: sharded run byte-identical to the "
                "sequential unculled, per-report-fused run"
            )
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(run.canonical_bytes())
        _log.info(f"wrote {args.out}")
    return code


def cmd_health(args: argparse.Namespace) -> int:
    """Run a supervised deployment scored live against the health SLOs."""
    import tempfile
    from pathlib import Path

    from repro.faults import FaultPlan
    from repro.obs.health import FlightRecorder, HealthMonitor
    from repro.runtime import (
        CheckpointStore,
        Supervisor,
        SupervisorConfig,
        WatchdogPolicy,
    )

    plan = (
        _checked(FaultPlan, report_loss=args.loss, blackouts=tuple(args.blackout))
        if args.blackout or args.loss
        else None
    )
    recorder = _checked(FlightRecorder, capacity_cycles=args.flight_capacity)
    setup = _checked(
        build_lab,
        n_tags=args.tags,
        n_mobile=args.mobile,
        seed=args.seed,
        fault_plan=plan,
    )
    config = _lossy_link_config(args.phase2)
    health = HealthMonitor(
        recorder=recorder,
        incident_dir=args.bundle_dir or None,
        watch_epcs=setup.mobile_epc_values,
        scene=setup.scene,
        metrics=setup.metrics,
    )
    # The checkpoints only serve this run's own restarts.
    with tempfile.TemporaryDirectory(prefix="repro-health-ckpt-") as tmp:
        store = CheckpointStore(Path(tmp) / "health.ckpt")
        supervisor = Supervisor(
            lambda: setup.tagwatch(config),
            config=SupervisorConfig(watchdog=WatchdogPolicy()),
            store=store,
            health=health,
        )
        mode = supervisor.start()
        if mode == "cold" and args.warmup > 0:
            assert supervisor.tagwatch is not None
            supervisor.tagwatch.warm_up(args.warmup)
        with use_tracer(recorder):
            for i in range(args.cycles):
                supervised = supervisor.run_cycle()
                if args.watch:
                    verdicts = health.engine.verdicts()
                    worst = min(
                        (v["compliance"] for v in verdicts.values()),
                        default=1.0,
                    )
                    _log.info(
                        f"cycle {supervised.index:>4}  "
                        f"t={setup.reader.time_s:8.1f}s  "
                        f"status={health.status:<8}  "
                        f"worst-slo={worst:.4f}  "
                        f"alerts={health.engine.n_alerts}  "
                        f"incidents={len(health.incidents)}"
                    )
    report = health.report()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        _log.info(f"wrote {args.out}")
    else:
        _log.info(json.dumps(report, indent=2, sort_keys=True))
    if args.bundle_dir and not _bundles_valid(args.bundle_dir):
        return 1
    return 0


def _first_targets(population: Sequence[EPC], n_targets: int) -> Set[int]:
    """The EPC values of the first ``n_targets`` tags of ``population``."""
    if n_targets > len(population):
        raise ValueError("need targets <= population")
    return {epc.value for epc in population[:n_targets]}


def cmd_rospec(args: argparse.Namespace) -> int:
    """Plan a Phase II schedule and dump its ROSpec XML."""
    population = random_epc_population(args.population, rng=args.seed)
    targets = _checked(_first_targets, population, args.targets)
    scheduler = TargetScheduler(PAPER_R420, rng=args.seed)
    plan = scheduler.plan(population, targets, (0, 1, 2, 3), 5.0)
    assert plan.rospec is not None  # at least one target is in population
    _log.info(
        f"<!-- {len(plan.selection.bitmasks)} bitmask(s), "
        f"{plan.selection.n_collateral} collateral tag(s), "
        f"predicted sweep {plan.selection.total_cost_s * 1e3:.1f} ms -->"
    )
    _log.info(rospec_to_xml(plan.rospec))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every figure driver and write one markdown reproduction report."""
    results = figure_report.run(scale=args.scale, only=args.only)
    document = figure_report.to_markdown(results, args.scale)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        total = sum(r.wall_s for r in results)
        _log.info(
            f"wrote {args.out}: {len(results)} section(s), "
            f"{total:.0f} s total"
        )
    else:
        _log.info(document)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tagwatch (CoNEXT'17) reproduction toolkit",
    )
    # Observability options shared by every subcommand (the faults command
    # keeps its richer, pre-existing --metrics-out export).
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace-out", default="",
        help="write the simulation-time trace here (see docs/observability.md)",
    )
    trace_parent.add_argument(
        "--trace-format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: Perfetto-loadable trace-event JSON; jsonl: event log",
    )
    metrics_parent = argparse.ArgumentParser(add_help=False)
    metrics_parent.add_argument(
        "--metrics-out", default="",
        help="write telemetry metrics here (JSON; .prom/.txt: Prometheus text)",
    )
    obs_parents = [trace_parent, metrics_parent]

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "figures", help="list reproducible figures", parents=obs_parents
    )

    p_figure = sub.add_parser(
        "figure", help="run one figure's experiment", parents=obs_parents
    )
    p_figure.add_argument("id", type=_figure_id, help="figure id, e.g. fig18")
    p_figure.add_argument(
        "--scale", choices=figure_report.SCALES, default="smoke",
        help="smoke: seconds; paper: the run EXPERIMENTS.md records",
    )
    p_figure.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for sweep figures (fig2, fig18, redundancy); "
        "-1: one per core; results are identical to a sequential run",
    )

    p_demo = sub.add_parser(
        "demo", help="run a live Tagwatch deployment", parents=obs_parents
    )
    p_demo.add_argument("--tags", type=_positive_int, default=40)
    p_demo.add_argument("--mobile", type=_count, default=2)
    p_demo.add_argument("--cycles", type=_positive_int, default=5)
    p_demo.add_argument("--phase2", type=_positive_float, default=2.0)
    p_demo.add_argument("--warmup", type=_positive_float, default=15.0)
    p_demo.add_argument("--seed", type=_count, default=7)

    p_predict = sub.add_parser(
        "predict", help="analytic gain curve from the cost model",
        parents=obs_parents,
    )
    p_predict.add_argument("--tags", type=_positive_int, default=100)
    p_predict.add_argument("--phase2", type=_positive_float, default=5.0)

    p_rospec = sub.add_parser(
        "rospec", help="plan a schedule and dump its ROSpec XML",
        parents=obs_parents,
    )
    p_rospec.add_argument("--population", type=_positive_int, default=40)
    p_rospec.add_argument("--targets", type=_positive_int, default=3)
    p_rospec.add_argument("--seed", type=_count, default=1)

    p_faults = sub.add_parser(
        "faults", help="run Tagwatch under injected faults, export metrics",
        parents=[trace_parent],
    )
    p_faults.add_argument("--tags", type=_positive_int, default=20)
    p_faults.add_argument("--mobile", type=_count, default=1)
    p_faults.add_argument("--cycles", type=_positive_int, default=4)
    p_faults.add_argument("--phase2", type=_positive_float, default=1.0)
    p_faults.add_argument("--warmup", type=_positive_float, default=8.0)
    p_faults.add_argument("--seed", type=_count, default=11)
    p_faults.add_argument(
        "--loss", type=_probability, default=0.2,
        help="iid report-loss probability",
    )
    p_faults.add_argument("--burst-enter", type=_probability, default=0.0)
    p_faults.add_argument("--burst-exit", type=_probability, default=0.5)
    p_faults.add_argument("--phase-spike", type=_probability, default=0.0)
    p_faults.add_argument("--duplicate", type=_probability, default=0.0)
    p_faults.add_argument("--reorder", type=_probability, default=0.0)
    p_faults.add_argument("--delay", type=_probability, default=0.0)
    p_faults.add_argument(
        "--disconnect-at", type=_non_negative_float, action="append",
        default=[],
        metavar="T", help="simulated time of a reader disconnect (repeatable)",
    )
    p_faults.add_argument(
        "--blackout", type=_parse_blackout, action="append", default=[],
        metavar="ANT:START:END", help="antenna outage window (repeatable)",
    )
    p_faults.add_argument(
        "--plan", type=_fault_plan_file, default=None,
        help="JSON file with a FaultPlan (overrides the individual knobs)",
    )
    p_faults.add_argument(
        "--metrics-out", default="", help="write the JSON export here"
    )
    p_faults.add_argument(
        "--sweep", type=_comma_list(_probability), default=None,
        help="comma-separated loss rates: run the degradation sweep instead",
    )
    p_faults.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for --sweep points; -1: one per core",
    )

    p_reproduce = sub.add_parser(
        "reproduce", help="run every figure and write one markdown report",
        parents=obs_parents,
    )
    p_reproduce.add_argument(
        "--scale", choices=figure_report.SCALES, default="smoke"
    )
    p_reproduce.add_argument(
        "--out", default="", help="output path (default: stdout)"
    )
    p_reproduce.add_argument(
        "--only", type=_comma_list(_figure_id), default=None,
        help="comma-separated figure ids (e.g. fig2,fig18)",
    )

    p_soak = sub.add_parser(
        "soak",
        help="chaos soak the supervised runtime under seeded faults",
        parents=obs_parents,
    )
    p_soak.add_argument("--cycles", type=_positive_int, default=2000)
    p_soak.add_argument("--seed", type=_count, default=0)
    p_soak.add_argument("--tags", type=_positive_int, default=12)
    p_soak.add_argument("--mobile", type=_count, default=2)
    p_soak.add_argument(
        "--crash-every", type=_count, default=80,
        help="one reader crash per this many cycles (0 disables)",
    )
    p_soak.add_argument(
        "--kill-every", type=_count, default=400,
        help="one middleware kill + warm restart per this many cycles",
    )
    p_soak.add_argument(
        "--corrupt-every", type=_count, default=500,
        help="one checkpoint corruption at rest per this many cycles",
    )
    p_soak.add_argument("--jam-every", type=_count, default=150)
    p_soak.add_argument("--blackout-every", type=_count, default=120)
    p_soak.add_argument(
        "--checkpoint-dir", default="",
        help="checkpoint directory (default: a temporary directory "
        "removed on exit)",
    )
    p_soak.add_argument(
        "--bundle-dir", default="",
        help="cut incident bundles here (enables the flight recorder)",
    )
    p_soak.add_argument(
        "--out", default="", help="write the JSON soak report here"
    )
    p_soak.add_argument(
        "--runs", type=_positive_int, default=1,
        help="independent soak replicas (seeds spawned from --seed)",
    )
    p_soak.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for --runs replicas; -1: one per core",
    )

    p_site = sub.add_parser(
        "site",
        help="simulate a multi-reader site; check fusion invariants",
        parents=obs_parents,
    )
    p_site.add_argument(
        "--readers", type=_positive_int, default=None,
        help="readers in the site (default: 4; --chaos: 6)",
    )
    p_site.add_argument(
        "--tags", type=_positive_int, default=None,
        help="tags in the field (default: 1000; --chaos: 96)",
    )
    p_site.add_argument(
        "--layout", choices=("ring", "line"), default=None,
        help="ring: full overlap (redundancy); line: aisle of partial "
        "overlap (default: ring; --chaos: line)",
    )
    p_site.add_argument("--duration", type=_positive_float, default=0.5)
    p_site.add_argument("--seed", type=_count, default=0)
    p_site.add_argument(
        "--loss", type=_probability, default=None,
        help="per-read loss probability every reader suffers even alone "
        "(default: 0.2; --chaos: 0.15)",
    )
    p_site.add_argument(
        "--channels", type=_positive_int, default=None,
        help="channels in the coordinator's plan (fewer = more "
        "interference; default: 16; --chaos: 8)",
    )
    p_site.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (one task per reader); -1: one per core",
    )
    p_site.add_argument(
        "--check-differential", action="store_true",
        help="also run sequentially with culling off, re-fuse that run "
        "one report at a time, and fail unless byte-identical",
    )
    p_site.add_argument(
        "--out", default="", help="write the canonical site payload here"
    )
    p_site.add_argument(
        "--chaos", action="store_true",
        help="supervised chaos soak: seeded reader outages, watchdog "
        "failover, channel re-planning, warm rejoin (see docs/site.md)",
    )
    p_site.add_argument(
        "--epochs", type=_positive_int, default=48,
        help="supervision epochs to run (--chaos)",
    )
    p_site.add_argument(
        "--epoch", type=_positive_float, default=0.25,
        help="epoch barrier length in seconds (--chaos)",
    )
    p_site.add_argument(
        "--outages", type=_count, default=10,
        help="reader deaths the seeded fault plan injects (--chaos)",
    )
    p_site.add_argument(
        "--mobile", type=_count, default=None,
        help="mobile tags orbiting the field across zones "
        "(default: 0; --chaos: 4)",
    )
    p_site.add_argument(
        "--bundle-dir", default="",
        help="cut one incident bundle per outage episode here (--chaos)",
    )

    p_health = sub.add_parser(
        "health",
        help="run a supervised deployment and print its SLO health report",
        parents=obs_parents,
    )
    p_health.add_argument("--cycles", type=_positive_int, default=60)
    p_health.add_argument("--tags", type=_positive_int, default=12)
    p_health.add_argument("--mobile", type=_count, default=2)
    p_health.add_argument("--seed", type=_count, default=0)
    p_health.add_argument("--phase2", type=_positive_float, default=1.0)
    p_health.add_argument("--warmup", type=_non_negative_float, default=10.0)
    p_health.add_argument(
        "--loss", type=_probability, default=0.0,
        help="iid report-loss probability running in the background",
    )
    p_health.add_argument(
        "--blackout", type=_parse_blackout, action="append", default=[],
        metavar="ANT:START:END", help="antenna outage window (repeatable)",
    )
    p_health.add_argument(
        "--bundle-dir", default="",
        help="cut incident bundles here (validated before exit)",
    )
    p_health.add_argument(
        "--flight-capacity", type=_positive_int, default=32,
        help="cycles of trace history the flight recorder retains",
    )
    p_health.add_argument(
        "--watch", action="store_true",
        help="stream a one-line health status per cycle",
    )
    p_health.add_argument(
        "--out", default="", help="write the JSON health report here"
    )

    return parser


COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "figures": cmd_figures,
    "reproduce": cmd_reproduce,
    "figure": cmd_figure,
    "demo": cmd_demo,
    "faults": cmd_faults,
    "predict": cmd_predict,
    "rospec": cmd_rospec,
    "site": cmd_site,
    "soak": cmd_soak,
    "health": cmd_health,
}


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Serialise the telemetry registry (Prometheus text by extension)."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith((".prom", ".txt")):
            handle.write(metrics_to_prometheus(registry))
        else:
            handle.write(registry.to_json())
            handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Installs the ambient tracer and telemetry registry around whichever
    subcommand runs, then serialises them to ``--trace-out`` /
    ``--metrics-out``.  The ``faults`` command pre-dates the ambient
    registry and keeps its own, richer ``--metrics-out`` export.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", "")
    metrics_out = (
        getattr(args, "metrics_out", "") if args.command != "faults" else ""
    )
    tracer = Tracer() if trace_out else None
    registry = MetricsRegistry() if metrics_out else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if registry is not None:
            stack.enter_context(use_metrics(registry))
        try:
            code = COMMANDS[args.command](args)
        except UsageError as exc:
            parser.error(f"{args.command}: {exc}")
    if tracer is not None:
        if args.trace_format == "jsonl":
            write_jsonl(trace_out, tracer)
        else:
            write_chrome_trace(trace_out, tracer)
        _log.info(f"wrote {trace_out} ({len(tracer.records)} records)")
    if registry is not None:
        _write_metrics(registry, metrics_out)
        _log.info(f"wrote {metrics_out} ({len(registry.names())} metrics)")
    return code


def run() -> None:
    """Process entry point: :func:`main`, exiting quietly when the reader
    of standard output goes away (``python -m repro predict | head -1``)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush cannot
        # raise again, and exit as Python itself does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
