"""EPC Gen2 air-protocol substrate.

Implements the link-layer pieces Tagwatch relies on:

- :mod:`repro.gen2.epc` — EPC words, memory banks, random EPC populations;
- :mod:`repro.gen2.timing` — slot/command durations derived from link
  parameters (the source of the paper's tau_0 / tau_bar constants);
- :mod:`repro.gen2.commands` — the Select command and the session enum;
- :mod:`repro.gen2.select` — bitmask matching over tag memory;
- :mod:`repro.gen2.aloha` — FSA, ideal DFSA and Q-adaptive frame control;
- :mod:`repro.gen2.inventory` — slot-accurate inventory-round engine.
"""

from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.commands import Select, SelectAction, SelectTarget
from repro.gen2.epc import EPC, MemoryBank, random_epc_population
from repro.gen2.inventory import (
    InventoryEngine,
    InventoryLog,
    SlotOutcome,
    TagRead,
)
from repro.gen2.select import BitMask, apply_selects, matches
from repro.gen2.session import Session, SessionFlagStore
from repro.gen2.sgtin import (
    ProductLine,
    Sgtin96,
    warehouse_population,
)
from repro.gen2.timing import LinkTiming

__all__ = [
    "BitMask",
    "EPC",
    "FixedQ",
    "IdealDFSA",
    "InventoryEngine",
    "InventoryLog",
    "LinkTiming",
    "MemoryBank",
    "QAdaptive",
    "ProductLine",
    "Sgtin96",
    "Select",
    "Session",
    "SessionFlagStore",
    "SelectAction",
    "SelectTarget",
    "SlotOutcome",
    "TagRead",
    "apply_selects",
    "matches",
    "random_epc_population",
    "warehouse_population",
]
