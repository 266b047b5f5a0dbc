"""Dead-code guard: every public definition in ``src/repro`` has a caller.

The guard checks public (no leading underscore) module-level functions and
classes, and the public methods and properties of module-level classes.

A module-level definition is *live* when another non-``__init__`` module
of the package or an ``examples/`` script names it in code (a name, an
attribute or an import; a mention in prose or a string does not count), or
when a live definition or a module-level statement of its own module
references it.

The figure table in ``experiments/report.py`` calls drivers by name, so
the ``runner=`` and ``formatter=`` strings of its ``Figure(...)`` entries
count as references too.

A method is live on the same terms, with more callers: the benchmark and
perf-gate scripts drive the program through methods, so non-test code
under ``bench/`` and ``ci/`` counts as a caller too, and so does each
``"module:Class.method"`` wrap target in ``bench/spans.py``.  Names are
matched without types: a method is named wherever an attribute of that
name is.  A class's own references are its bases, decorators, class-level
statements and dunder methods; its other methods count only once live.  A
method of a class that is itself unreached is not reported on its own.

Package ``__init__`` re-exports and tests are never callers: a name only
they use is one that no source path runs.  Such a definition either goes
or earns its place in :data:`ALLOWED` with one line naming what it serves:
a test oracle, the inverse of a live function, a recovery path, or a
paper claim that a test checks.  The second test keeps the list current,
so an entry that gains a caller or disappears must leave it.

A third test keeps ``python -m repro`` the one entry point: no other
module may carry an ``if __name__ == "__main__"`` block, a second way in
that the CLI, the examples and the benchmark never take.

A fourth test fails on an imported name its module never uses.  A name
counts as used when the module's code names it (a bare name, or the base
of an attribute), when a string annotation names it, or when the module
lists it in ``__all__`` (a deliberate re-export).  A re-export without an
``__all__`` earns an entry in :data:`ALLOWED_IMPORTS`.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Public definitions no source path runs, each kept for the stated reason.
ALLOWED: Dict[str, str] = {
    "core/bitmask.py:pack_bitmap": "bitmap codec; unpack_bitmap is its inverse",
    "core/bitmask.py:unpack_bitmap": "inverse of pack_bitmap (round-trip test)",
    "core/bitmask.py:CandidateRow.covered_count": "row size the dense greedy oracle (tests/core/oracles.py) prices",
    "core/config.py:load_concerned_epcs": "reads the Section 5 concerned-tags file",
    "core/config.py:save_concerned_epcs": "inverse of load_concerned_epcs",
    "core/cost.py:irr_drop": "the paper's 84% IRR-drop headline from the cost model",
    "core/setcover.py:exact_cover": "the exact set-cover oracle of the greedy cover",
    "gen2/aloha.py:IdealDFSA": "genie-aided DFSA: closed-form slot-count oracle of the engine",
    "gen2/epc.py:sequential_epc_population": "the sequential-EPC population of tests/paper/test_ablations.py",
    "gen2/select.py:union_selects": "union-cover Selects test_properties checks apply_selects with",
    "gen2/timing.py:LinkTiming.mean_slot_duration": "the profile's tau_bar against the paper's fit (test_timing)",
    "obs/exporters.py:validate_chrome_trace": "Chrome-trace schema oracle of to_chrome_trace",
    "radio/measurement.py:measure": "scalar reference that measure_from_bases matches sample for sample",
    "reader/llrp.py:C1G2Filter.to_bitmask": "inverse of C1G2Filter.from_bitmask (round-trip test)",
    "reader/llrp.py:rospec_from_xml": "round-trip oracle of rospec_to_xml",
    "reader/sessioned.py:SessionedReader": "the S1 session model: why Phase II runs S0 (EXPERIMENTS.md)",
    "site/fusion.py:TagReport.from_observation": "oracle of the worker's observation_rows (tests/site/test_site_setup.py)",
    "site/supervisor.py:SiteSupervisor.restore": "warm start from the site checkpoint (recovery path)",
    "tracking/fleet.py:FleetTracker": "the paper's footnote-1 multi-tag tracker (tests/paper/test_fleet_tracking.py)",
    "tracking/fleet.py:TrackedTag": "per-tag state of FleetTracker",
    "util/circular.py:wrap_phase": "the wrap into [0, 2*pi) that core/gmm.py's scalar loop replays",
    "world/motion.py:LinearPath": "moving tags of the observe_batch and scalar-identity oracle tests",
}

#: Imports no code of their module uses, each kept for the stated reason.
ALLOWED_IMPORTS: Dict[str, str] = {}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _references(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every bare name, attribute name and imported name used under ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rpartition(".")[2])
    return names


def _wrap_targets(tree: ast.AST) -> Set[str]:
    """Names in ``"repro.module:Class.method"`` strings (bench/spans.py)."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            module, colon, qualname = sub.value.partition(":")
            if colon and module.startswith("repro."):
                names.update(qualname.split("."))
    return names


def _figure_table_names() -> Set[str]:
    """The ``runner=``/``formatter=`` strings of the figure table's
    ``Figure(...)`` entries: driver functions it calls by name."""
    tree = ast.parse((SRC / "experiments" / "report.py").read_text())
    return {
        keyword.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Figure"
        for keyword in node.keywords
        if keyword.arg in ("runner", "formatter")
        and isinstance(keyword.value, ast.Constant)
    }


def _method_callers() -> Set[str]:
    """Names the benchmark and perf-gate scripts use (``bench/tests`` excluded)."""
    names = set()
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "ci").glob("*.py")]:
        tree = ast.parse(path.read_text())
        names |= _references([tree]) | _wrap_targets(tree)
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _units(tree: ast.Module) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """Each definition's own references, keyed ``name`` or ``Class.method``,
    plus the references of the module-level statements."""
    units: Dict[str, Set[str]] = {}
    module_refs: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [
                item for item in node.body
                if isinstance(item, FUNCTIONS) and not _is_dunder(item.name)
            ]
            for method in methods:
                units[f"{node.name}.{method.name}"] = _references([method])
            own = [item for item in node.body if item not in methods]
            units[node.name] = _references(
                [*node.bases, *node.keywords, *node.decorator_list, *own]
            )
        elif isinstance(node, DEFINITIONS):
            units[node.name] = _references([node])
        else:
            module_refs |= _references([node])
    return units, module_refs


def unreached_definitions() -> List[str]:
    """``module.py:name`` / ``module.py:Class.method`` of each public
    definition with no caller."""
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    trees = {path: ast.parse(path.read_text()) for path in modules}
    named = {path: _references([tree]) for path, tree in trees.items()}
    in_examples = _references(
        ast.parse(p.read_text()) for p in (ROOT / "examples").glob("*.py")
    ) | _figure_table_names()
    method_callers = _method_callers()

    unreached = []
    for path, tree in trees.items():
        elsewhere = in_examples.union(*(n for p, n in named.items() if p != path))
        method_elsewhere = elsewhere | method_callers
        units, pending = _units(tree)
        live = {
            unit for unit in units
            if unit.rpartition(".")[2]
            in (method_elsewhere if "." in unit else elsewhere)
        }
        for unit in live:
            pending |= units[unit]
        while pending:
            name = pending.pop()
            for unit, refs in units.items():
                if unit not in live and unit.rpartition(".")[2] == name:
                    live.add(unit)
                    pending |= refs
        module = path.relative_to(SRC).as_posix()
        for unit in units:
            owner, dot, name = unit.rpartition(".")
            if unit in live or name.startswith("_") or owner.startswith("_"):
                continue
            if dot and owner not in live:
                continue  # reported with its class
            unreached.append(f"{module}:{unit}")
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


def _is_main_block(node: ast.stmt) -> bool:
    """``if __name__ == "__main__":`` at module level."""
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    operands = [node.test.left, *node.test.comparators]
    return any(
        isinstance(o, ast.Name) and o.id == "__name__" for o in operands
    ) and any(
        isinstance(o, ast.Constant) and o.value == "__main__" for o in operands
    )


def test_only_the_package_runs_as_a_script():
    scripts = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "__main__.py"
        and any(_is_main_block(node) for node in ast.parse(path.read_text()).body)
    ]
    assert not scripts, (
        "`python -m repro` is the one entry point; delete the "
        f"`if __name__ == \"__main__\"` blocks of: {scripts}"
    )


def _annotation_names(tree: ast.AST) -> Set[str]:
    """Names inside string annotations (``x: "Foo"``, ``-> Optional["Foo"]``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, FUNCTIONS):
            annotation = node.returns
        else:
            continue
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expression = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {
                    n.id for n in ast.walk(expression) if isinstance(n, ast.Name)
                }
    return names


def _exported(tree: ast.Module) -> Set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return set()


def unused_imports() -> List[str]:
    """``module.py:name`` of each imported name its module never uses."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [
                    a.asname or a.name.partition(".")[0] for a in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names if a.name != "*"]
        used = (
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | _annotation_names(tree)
            | _exported(tree)
        )
        module = path.relative_to(SRC).as_posix()
        unused += [f"{module}:{name}" for name in imported if name not in used]
    return unused


def test_every_import_is_used():
    unused = [name for name in unused_imports() if name not in ALLOWED_IMPORTS]
    assert not unused, (
        "imported names their module never uses; delete them, or list a "
        f"re-export in __all__ or ALLOWED_IMPORTS: {unused}"
    )


def test_import_allowlist_is_current():
    stale = sorted(set(ALLOWED_IMPORTS) - set(unused_imports()))
    assert not stale, f"ALLOWED_IMPORTS entries now used or gone: {stale}"
