"""Dead-code guard: every public top-level definition in ``src/repro`` has a caller.

A public (no leading underscore) module-level function or class is *live*
when another non-``__init__`` module of the package or an ``examples/``
script names it in code (a name, an attribute or an import; a mention in
prose or a string does not count), or when a live definition or a
module-level statement of its own module references it.  Package
``__init__`` re-exports and tests are not callers: a name only they use
is one that no source path runs.

A definition with no caller either goes or earns its place in
:data:`ALLOWED` with one line saying what it serves: a test oracle, the
inverse of a live function, or library API that a document or a test
drives.  The second test keeps the list current, so a name that gains a
caller or disappears must leave it.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Public definitions no source path runs, each kept for the stated reason.
ALLOWED: Dict[str, str] = {
    "core/bitmask.py:pack_bitmap": "bitmap codec; unpack_bitmap is its inverse",
    "core/bitmask.py:unpack_bitmap": "inverse of pack_bitmap (round-trip test)",
    "core/config.py:load_concerned_epcs": "reads the concerned-tags file (docs/tutorial.md)",
    "core/config.py:save_concerned_epcs": "inverse of load_concerned_epcs",
    "core/cost.py:irr_drop": "the paper's 84% IRR-drop headline from the cost model",
    "core/persistence.py:save_assessor": "assessor snapshot to JSON; load_assessor is its inverse",
    "core/persistence.py:load_assessor": "inverse of save_assessor (round-trip test)",
    "core/setcover.py:exact_cover": "the exact set-cover oracle of the greedy cover",
    "gen2/aloha.py:IdealDFSA": "genie-aided DFSA: closed-form slot-count oracle of the engine",
    "gen2/aloha.py:make_strategy": "frame-strategy factory by name",
    "gen2/epc.py:sequential_epc_population": "deterministic EPC populations for tests",
    "gen2/epc.py:common_prefix_length": "prefix length of an EPC set (SGTIN tests)",
    "gen2/select.py:union_selects": "Select sequence for a union of bitmasks",
    "gen2/session.py:SessionFlagStore": "S1 flag persistence behind SessionedInventory",
    "gen2/session.py:SessionedInventory": "the S1 session model: why Phase II runs S0",
    "gen2/sgtin.py:is_sgtin96": "SGTIN-96 header check of the codec",
    "gen2/sgtin.py:sku_prefix_mask_length": "SKU bitmask length of the SGTIN-96 codec",
    "gen2/tid.py:make_tid": "builds TID banks for tagged_memory",
    "gen2/tid.py:decode_mdid": "inverse of make_tid's mask-designer field",
    "gen2/tid.py:select_manufacturer": "manufacturer-targeted Select over the TID bank",
    "gen2/tid.py:tagged_memory": "full tag memory with a TID (docs/tutorial.md)",
    "obs/exporters.py:validate_chrome_trace": "Chrome-trace schema oracle of to_chrome_trace",
    "obs/logging.py:configure": "logging configuration API (docs/observability.md)",
    "obs/logging.py:reset": "restores configure's defaults (the logging tests' isolation)",
    "radio/measurement.py:measure": "scalar reference that measure_from_bases matches sample for sample",
    "reader/llrp.py:rospec_from_xml": "round-trip oracle of rospec_to_xml",
    "reader/llrp.py:read_all_rospec": "the unfiltered read-all ROSpec of the LLRP API",
    "traces/io.py:observation_to_record": "JSONL record codec; record_to_observation inverts it",
    "traces/io.py:record_to_observation": "inverse of observation_to_record",
    "traces/io.py:save_observations": "JSONL observation logs (docs/tutorial.md)",
    "traces/io.py:load_observations": "inverse of save_observations",
    "traces/io.py:iter_observations": "streaming reader of save_observations logs",
    "tracking/fleet.py:FleetTracker": "the paper's footnote-1 multi-tag tracker",
    "tracking/fleet.py:TrackedTag": "per-tag state of FleetTracker",
    "util/circular.py:circular_mean": "circular-statistics API beside circular_std",
    "util/circular.py:wrap_phase": "the wrap into [0, 2*pi) that core/gmm.py's scalar loop replays",
    "util/stats.py:summarize": "sample summaries of the stats API",
    "util/stats.py:Summary": "the record summarize returns",
    "util/stats.py:empirical_cdf": "CDF points of the stats API",
    "util/stats.py:ratio_of_medians": "median ratio of the stats API",
    "util/tables.py:format_series": "ASCII series rendering beside format_table",
    "world/motion.py:LinearPath": "constant-velocity trajectory of the world model",
    "world/motion.py:RandomWaypointWalk": "random-waypoint trajectory of the world model",
    "world/scene.py:stationary_grid": "grid of stationary tags (the paper's tag walls)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> Set[str]:
    """Every bare name, attribute name and imported name used under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def unreached_definitions() -> List[str]:
    """``module.py:name`` of every public top-level definition with no caller."""
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    trees = {path: ast.parse(path.read_text()) for path in modules}
    named = {path: _references(tree) for path, tree in trees.items()}
    in_examples = set().union(
        *(
            _references(ast.parse(p.read_text()))
            for p in (ROOT / "examples").glob("*.py")
        )
    )

    def named_elsewhere(name: str, home: Path) -> bool:
        return name in in_examples or any(
            name in names for path, names in named.items() if path != home
        )

    unreached = []
    for path, tree in trees.items():
        body = tree.body
        defs = {node.name: node for node in body if isinstance(node, DEFINITIONS)}
        pending = set()
        for node in body:
            if not isinstance(node, DEFINITIONS):
                pending |= _references(node)
        pending |= {name for name in defs if named_elsewhere(name, path)}
        live = set()
        while pending:
            name = pending.pop()
            if name in defs and name not in live:
                live.add(name)
                pending |= _references(defs[name])
        module = path.relative_to(SRC).as_posix()
        unreached += [
            f"{module}:{name}"
            for name in defs
            if not name.startswith("_") and name not in live
        ]
    return unreached


def test_every_public_definition_has_a_caller():
    dead = [name for name in unreached_definitions() if name not in ALLOWED]
    assert not dead, (
        "public definitions no source path runs; delete them or add each "
        f"to ALLOWED with what it serves: {dead}"
    )


def test_allowlist_is_current():
    stale = sorted(set(ALLOWED) - set(unreached_definitions()))
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {stale}"
