"""Tagwatch core: the paper's contribution.

- :mod:`repro.core.cost` — the inventory-cost / IRR model (Definition 1);
- :mod:`repro.core.gmm` — self-learning Gaussian-mixture immobility models;
- :mod:`repro.core.detectors` — the four motion scorers of Fig 12;
- :mod:`repro.core.motion` — Phase I motion assessment;
- :mod:`repro.core.bitmask` — candidate bitmasks and the indexed table;
- :mod:`repro.core.setcover` — cost-weighted greedy set cover (Eqn 12-13);
- :mod:`repro.core.scheduler` — Phase II schedule -> ROSpec lowering;
- :mod:`repro.core.history` — the reading history database and IRR metric;
- :mod:`repro.core.tagwatch` — the two-phase middleware loop.
"""

from repro.core.bitmask import (
    CandidateRow,
    CandidateTable,
    IndexedBitmaskTable,
    indicator_bitmap,
    pack_bitmap,
    pack_indices,
    unpack_bitmap,
)
from repro.core.config import (
    TagwatchConfig,
    load_concerned_epcs,
    save_concerned_epcs,
)
from repro.core.cost import PAPER_R420, CostModel, irr_drop
from repro.core.detectors import (
    DifferencingScorer,
    MoGScorer,
    MotionScorer,
    make_scorer,
)
from repro.core.gmm import (
    GaussianMixtureStack,
    GaussianMode,
    GmmParams,
)
from repro.core.history import IrrSample, ReadingHistory
from repro.core.analysis import (
    breakeven_percent,
    predict_cycle,
    predicted_gain,
)
from repro.core.monitor import MonitorSnapshot, TagwatchMonitor
from repro.core.persistence import restore_assessor
from repro.core.motion import MotionAssessor, TagAssessment
from repro.core.scheduler import SchedulePlan, TargetScheduler
from repro.core.setcover import (
    CoverSelection,
    exact_cover,
    greedy_cover,
    naive_selection,
    select_bitmasks,
)
from repro.core.tagwatch import CycleResult, Tagwatch

__all__ = [
    "CandidateRow",
    "CandidateTable",
    "CostModel",
    "CoverSelection",
    "CycleResult",
    "DifferencingScorer",
    "GaussianMixtureStack",
    "GaussianMode",
    "GmmParams",
    "IndexedBitmaskTable",
    "IrrSample",
    "MoGScorer",
    "MonitorSnapshot",
    "MotionAssessor",
    "MotionScorer",
    "PAPER_R420",
    "ReadingHistory",
    "SchedulePlan",
    "TagAssessment",
    "Tagwatch",
    "TagwatchConfig",
    "TagwatchMonitor",
    "TargetScheduler",
    "breakeven_percent",
    "exact_cover",
    "greedy_cover",
    "indicator_bitmap",
    "irr_drop",
    "load_concerned_epcs",
    "make_scorer",
    "naive_selection",
    "pack_bitmap",
    "pack_indices",
    "predict_cycle",
    "predicted_gain",
    "restore_assessor",
    "save_concerned_epcs",
    "select_bitmasks",
    "unpack_bitmap",
]
