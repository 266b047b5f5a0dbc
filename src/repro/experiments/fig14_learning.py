"""Fig 14 / Section 7.1: how fast does a stable immobility model form?

A stationary tag is read for one minute while a person walks around.  For a
grid of training-prefix lengths, a fresh GMM stack is trained on the prefix
and evaluated on the readings that immediately follow: the detection
accuracy is the fraction of (genuinely stationary) test readings matching a
reliable learned mode.

Paper findings to reproduce: ~70% accuracy after ~1.5 s of trace (~67
readings at their rate) and ~90% after ~2.9 s (~130 readings), i.e. one
5-second cycle suffices to stabilise a new Gaussian mode — no cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.experiments.harness import build_lab
from repro.util.tables import format_table


@dataclass
class Fig14Result:
    train_reads: List[int]
    train_seconds: List[float]
    accuracy: List[float]

    def reads_needed(self, accuracy_target: float) -> int:
        """Smallest training-read count reaching the target accuracy."""
        for reads, acc in zip(self.train_reads, self.accuracy):
            if acc >= accuracy_target:
                return reads
        raise ValueError(
            f"accuracy {accuracy_target} never reached "
            f"(max {max(self.accuracy):.2f})"
        )


def run(
    duration_s: float = 60.0,
    train_read_grid: Sequence[int] = tuple(range(5, 251, 7)),
    test_reads: int = 40,
    seed: int = 17,
) -> Fig14Result:
    """Train-prefix sweep on one stationary tag's reading stream.

    The single tag is read at ~50 Hz on one antenna (as in the paper's
    single-tag rig), so read counts and seconds are interchangeable via
    that rate; both are reported.
    """
    setup = build_lab(
        n_tags=1,
        n_mobile=0,
        seed=seed,
        n_antennas=1,
        n_people=1,
        people_duration_s=duration_s + 5.0,
    )
    observations, _ = setup.reader.run_duration(duration_s)
    phases = [obs.phase_rad for obs in observations]
    times = [obs.time_s for obs in observations]

    train_counts: List[int] = []
    train_seconds: List[float] = []
    accuracies: List[float] = []
    for n_train in train_read_grid:
        if n_train + test_reads > len(phases):
            break
        stack = GaussianMixtureStack(GmmParams.for_phase(), circular=True)
        for phase in phases[:n_train]:
            stack.update(phase)
        test = phases[n_train : n_train + test_reads]
        correct = sum(1 for phase in test if stack.classify(phase))
        train_counts.append(n_train)
        train_seconds.append(times[n_train - 1] - times[0])
        accuracies.append(correct / len(test))
    if not train_counts:
        raise ValueError("trace too short for the requested grid")
    return Fig14Result(
        train_reads=train_counts,
        train_seconds=train_seconds,
        accuracy=accuracies,
    )


def format_report(result: Fig14Result) -> str:
    """Render the paper-style table for this figure."""
    headers = ["train reads", "train seconds", "accuracy"]
    rows = list(
        zip(result.train_reads, result.train_seconds, result.accuracy)
    )
    try:
        at70 = result.reads_needed(0.7)
        at90 = result.reads_needed(0.9)
        extra = f"70% at {at70} reads, 90% at {at90} reads"
    except ValueError:
        extra = "targets not reached"
    title = (
        "Fig 14 — learning curve "
        f"({extra}; paper: 70% @ ~67 reads / 1.49 s, 90% @ ~130 reads / 2.9 s)"
    )
    return format_table(headers, rows, precision=2, title=title)
