"""Runtime invariant checkers for supervised (chaos-soaked) deployments.

The chaos soak harness (:mod:`repro.experiments.soak`) runs thousands of
cycles under seeded fault schedules and asserts, after *every* cycle, that
recovery machinery never trades correctness for liveness:

- **no phantom EPCs** — every identity in the reading history and the
  Tagwatch registry corresponds to a tag that physically exists in the
  scene (report corruption, checkpoint corruption, or a bad warm restart
  would all surface here first);
- **no duplicate registry entries** — the known-population list holds each
  EPC at most once, whatever order crashes and restores happened in;
- **bounded staleness for mobile tags** — a tag that is present, in
  antenna range, and moving must be read at least once every
  ``staleness_healthy_cycles`` *healthy* cycles (unhealthy cycles are the
  fault's fault, not the scheduler's, and don't count against the bound);
- **recovery convergence** — the escalation ladder must return the system
  to a healthy cycle within ``max_consecutive_unhealthy`` cycles; a
  supervisor stuck bouncing between restarts forever is a liveness bug
  even if every individual cycle "handled" its error.

Multi-reader sites get their own checker, :class:`SiteInvariantSuite`,
holding the fusion layer to the properties that make cross-reader dedup
trustworthy: no phantom EPCs across readers, idempotent fusion, and
internally consistent provenance / staleness-arbitration bookkeeping (a
dedup bug here would silently inflate site-level IRR, which is why the
site experiments run this suite after every simulated interval).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.core.monitor import StalenessClock
from repro.core.tagwatch import Tagwatch
from repro.runtime.supervisor import SupervisedCycle
from repro.world.scene import Scene


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributed to the cycle that exposed it."""

    cycle_index: int
    name: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[cycle {self.cycle_index}] {self.name}: {self.detail}"


class InvariantSuite:
    """Stateful checker run against every supervised cycle.

    Parameters
    ----------
    scene:
        Physical ground truth (tag identities, presence, motion).
    mobile_epc_values:
        The tags whose staleness is bounded — typically every tag with a
        non-stationary trajectory.  Tags absent or out of range during a
        cycle are excused for that cycle.
    staleness_healthy_cycles:
        Maximum consecutive *healthy* cycles a qualifying mobile tag may
        go unread.
    max_consecutive_unhealthy:
        Maximum consecutive unhealthy cycles before recovery is declared
        divergent.
    """

    def __init__(
        self,
        scene: Scene,
        mobile_epc_values: Set[int],
        staleness_healthy_cycles: int = 3,
        max_consecutive_unhealthy: int = 12,
    ) -> None:
        if staleness_healthy_cycles < 1:
            raise ValueError("staleness bound must be at least one cycle")
        if max_consecutive_unhealthy < 1:
            raise ValueError("divergence bound must be at least one cycle")
        self.true_epc_values = {tag.epc.value for tag in scene.tags}
        unknown = set(mobile_epc_values) - self.true_epc_values
        if unknown:
            raise ValueError(f"mobile EPCs not in scene: {sorted(unknown)}")
        self.mobile_epc_values = set(mobile_epc_values)
        self.staleness_healthy_cycles = staleness_healthy_cycles
        self.max_consecutive_unhealthy = max_consecutive_unhealthy
        #: Healthy cycles since each mobile tag was last read.
        self.staleness = StalenessClock(self.mobile_epc_values, scene)
        self._consecutive_unhealthy = 0
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    def _check_phantoms(
        self, cycle_index: int, tagwatch: Tagwatch
    ) -> List[Violation]:
        out = []
        history_epcs = set(tagwatch.history.epc_values())
        for value in sorted(history_epcs - self.true_epc_values):
            out.append(
                Violation(
                    cycle_index,
                    "phantom-epc-history",
                    f"history holds EPC {value:x} which no scene tag carries",
                )
            )
        registry_epcs = {epc.value for epc in tagwatch._known_population}
        for value in sorted(registry_epcs - self.true_epc_values):
            out.append(
                Violation(
                    cycle_index,
                    "phantom-epc-registry",
                    f"registry holds EPC {value:x} which no scene tag carries",
                )
            )
        return out

    def _check_registry_unique(
        self, cycle_index: int, tagwatch: Tagwatch
    ) -> List[Violation]:
        values = [epc.value for epc in tagwatch._known_population]
        if len(values) == len(set(values)):
            return []
        seen: Set[int] = set()
        duplicates = sorted({v for v in values if v in seen or seen.add(v)})
        return [
            Violation(
                cycle_index,
                "duplicate-registry-epc",
                f"registry holds duplicates: {[f'{v:x}' for v in duplicates]}",
            )
        ]

    def _check_staleness(
        self, cycle_index: int, supervised: SupervisedCycle
    ) -> List[Violation]:
        counts = self.staleness.counts
        return [
            Violation(
                cycle_index,
                "stale-mobile-tag",
                f"EPC {value:x} unread for {counts[value]} healthy cycles "
                f"(bound {self.staleness_healthy_cycles})",
            )
            for value in self.staleness.advance(
                supervised.result, supervised.healthy
            )
            if counts[value] > self.staleness_healthy_cycles
        ]

    def _check_convergence(
        self, cycle_index: int, supervised: SupervisedCycle
    ) -> List[Violation]:
        if supervised.healthy:
            self._consecutive_unhealthy = 0
            return []
        self._consecutive_unhealthy += 1
        if self._consecutive_unhealthy <= self.max_consecutive_unhealthy:
            return []
        return [
            Violation(
                cycle_index,
                "recovery-divergence",
                f"{self._consecutive_unhealthy} consecutive unhealthy cycles "
                f"(bound {self.max_consecutive_unhealthy}); "
                f"last reasons: {'; '.join(supervised.reasons)}",
            )
        ]

    # ------------------------------------------------------------------
    def check(
        self, supervised: SupervisedCycle, tagwatch: Tagwatch
    ) -> List[Violation]:
        """Check every invariant after one cycle; returns new violations.

        Violations also accumulate on :attr:`violations` so a soak run can
        assert on the whole history at the end.
        """
        cycle_index = supervised.index
        new = (
            self._check_phantoms(cycle_index, tagwatch)
            + self._check_registry_unique(cycle_index, tagwatch)
            + self._check_staleness(cycle_index, supervised)
            + self._check_convergence(cycle_index, supervised)
        )
        self.violations.extend(new)
        return new

    @property
    def ok(self) -> bool:
        return not self.violations


class SiteInvariantSuite:
    """Correctness checks for cross-reader fusion at a multi-reader site.

    Run against a :class:`~repro.site.fusion.FusionLayer` after each
    simulated interval (the ``site`` CLI command and the site-smoke CI job
    both do).  Checks, per interval:

    - **no phantom EPCs across readers** — every fused identity exists in
      the site's ground-truth population (a corrupt report or a bad merge
      would surface here first);
    - **fusion idempotence** — re-fusing everything the layer already
      holds is a byte-level no-op on its snapshot (at-least-once delivery
      upstream must not inflate site-level counts);
    - **provenance consistency** — each record's report total equals the
      sum of its per-reader tallies, with at least one contributing
      reader;
    - **staleness arbitration** — the authoritative latest sighting of
      each record carries exactly the record's ``last_seen_s`` and matches
      that reader's own last-seen bookkeeping.
    """

    def __init__(self, true_epc_values: Iterable[int]) -> None:
        self.true_epc_values = set(true_epc_values)
        if not self.true_epc_values:
            raise ValueError("a site holds at least one true EPC")
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    def _check_site_phantoms(self, cycle_index: int, fusion) -> List[Violation]:
        return [
            Violation(
                cycle_index,
                "phantom-epc-fused",
                f"fusion holds EPC {value:x} which no site tag carries",
            )
            for value in sorted(
                set(fusion.epc_values()) - self.true_epc_values
            )
        ]

    def _check_idempotence(self, cycle_index: int, fusion) -> List[Violation]:
        before = fusion.snapshot()
        replayed = fusion.copy()
        absorbed = replayed.merge(fusion)
        if absorbed == 0 and replayed.snapshot() == before:
            return []
        return [
            Violation(
                cycle_index,
                "fusion-not-idempotent",
                f"re-merging the fused set absorbed {absorbed} report(s) "
                "or changed the snapshot",
            )
        ]

    def _check_provenance(self, cycle_index: int, fusion) -> List[Violation]:
        out = []
        for record in fusion.records():
            total = sum(record.reports_by_reader.values())
            if not record.reports_by_reader or total != record.n_reports:
                out.append(
                    Violation(
                        cycle_index,
                        "provenance-mismatch",
                        f"EPC {record.epc_value:x}: {record.n_reports} "
                        f"report(s) vs per-reader sum {total}",
                    )
                )
        return out

    def _check_arbitration(self, cycle_index: int, fusion) -> List[Violation]:
        out = []
        for record in fusion.records():
            latest = record.latest
            if latest is None:
                out.append(
                    Violation(
                        cycle_index,
                        "stale-arbitration",
                        f"EPC {record.epc_value:x} has no latest sighting",
                    )
                )
                continue
            t = round(latest.time_s, 9)
            per_reader = record.last_seen_by_reader.get(latest.reader_id)
            if t != round(record.last_seen_s, 9) or per_reader != t:
                out.append(
                    Violation(
                        cycle_index,
                        "stale-arbitration",
                        f"EPC {record.epc_value:x}: latest sighting at "
                        f"{t} disagrees with last_seen_s="
                        f"{record.last_seen_s} / reader {latest.reader_id} "
                        f"last seen {per_reader}",
                    )
                )
        return out

    # ------------------------------------------------------------------
    def check_failover(
        self, fusion, faults, cycle_index: int = 0
    ) -> List[Violation]:
        """No phantom reports during failover: a dead reader stays silent.

        Every fused report attributed to reader *r* must fall outside all
        of *r*'s outage windows in the :class:`~repro.faults.site.
        SiteFaultPlan` — a report timestamped inside one would mean churn
        (re-planning, warm rejoin, checkpoint replay) resurrected data
        that the dead reader can never have produced.
        """
        outages_by_reader: Dict[int, list] = {}
        for outage in faults.outages:
            outages_by_reader.setdefault(outage.reader_id, []).append(outage)
        new = []
        for report in fusion.reports():
            for outage in outages_by_reader.get(report.reader_id, ()):
                if outage.covers(report.time_s):
                    new.append(
                        Violation(
                            cycle_index,
                            "phantom-report-during-outage",
                            f"reader {report.reader_id} reported EPC "
                            f"{report.epc_value:x} at {report.time_s} "
                            f"inside its outage "
                            f"[{outage.at_s}, {outage.up_at_s})",
                        )
                    )
        self.violations.extend(new)
        return new

    def check_lost_zone_staleness(
        self,
        fusion,
        horizon_s: float,
        bound_s: float,
        excused_epc_values: Iterable[int] = (),
        cycle_index: int = 0,
    ) -> List[Violation]:
        """Bounded staleness in lost zones: outages may delay, not orphan.

        For every EPC the site ever fused, the largest gap between
        consecutive sightings — and from the last sighting to the horizon
        — must stay within ``bound_s``.  Callers set the bound from the
        fault plan (longest outage plus detection/re-plan slack), so a
        tag stranded in a dead reader's zone must be picked back up by a
        boosted neighbour or the rejoined reader within the failover
        budget.  Tags never fused at all are coverage holes, not
        staleness breaches (the coverage-floor SLO owns those); pass
        mobile/known-excused EPCs in ``excused_epc_values``.
        """
        excused = set(excused_epc_values)
        sightings: Dict[int, List[float]] = {}
        for report in fusion.reports():
            sightings.setdefault(report.epc_value, []).append(report.time_s)
        new = []
        for value, times in sorted(sightings.items()):
            if value in excused:
                continue
            times.sort()
            worst = 0.0
            previous = times[0]
            for t in times[1:]:
                worst = max(worst, t - previous)
                previous = t
            worst = max(worst, horizon_s - previous)
            if worst > bound_s:
                new.append(
                    Violation(
                        cycle_index,
                        "stale-lost-zone",
                        f"EPC {value:x} unseen for {round(worst, 6)} s "
                        f"(bound {round(bound_s, 6)} s)",
                    )
                )
        self.violations.extend(new)
        return new

    # ------------------------------------------------------------------
    def check(self, fusion, cycle_index: int = 0) -> List[Violation]:
        """Check every site invariant; returns (and accumulates) breaches."""
        new = (
            self._check_site_phantoms(cycle_index, fusion)
            + self._check_idempotence(cycle_index, fusion)
            + self._check_provenance(cycle_index, fusion)
            + self._check_arbitration(cycle_index, fusion)
        )
        self.violations.extend(new)
        return new

    @property
    def ok(self) -> bool:
        return not self.violations
