"""Every public definition in ``src/repro`` has a user outside the tests.

The scan walks ``src/repro`` with :mod:`ast` and collects every ``def`` and
``class`` whose name has no leading underscore, methods and properties
included.  A definition is used when its name is referenced from ``src/``,
``examples/``, ``benchmarks/`` or ``perfbench/``: as an ``ast.Name`` id, as
an ``ast.Attribute`` attr or, under ``perfbench/`` only, as a string
constant (``perfbench/layers.py`` wraps library methods by name).  Imports
are not references, so a package ``__init__.py`` re-export is not a caller.
Studies registered with ``@register_study`` are reached through the
registry and count as used.

A definition with no such reference must be deleted, or listed in
:data:`ALLOWED` with the reason it stays: an oracle, a paper observation
tier-1 asserts, or a probe tests need to see internal state.  An
``ALLOWED`` entry that is no longer defined, or that has gained a
reference, fails too, so the list never outlives its reasons.  Two tests
run the scan over a toy repository, so each of these failures is seen to
fire.
"""

from __future__ import annotations

import ast
import importlib
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Directories whose code counts as a user of the library.
CALLERS = ("src", "examples", "benchmarks", "perfbench")

_ORACLE = "oracle tooling: the differential suite checks DramChip against it"
_PROBE = "probe: tests read internal state through it"

#: Public definitions only the tests reference, by qualified name.
ALLOWED: Dict[str, str] = {
    "repro.dram.reference.ReferenceDramChip": _ORACLE,
    "repro.dram.reference.ReferenceDramChip.read_rows_raw": _ORACLE,
    "repro.dram.chip.DramChip.read_rows_raw": _ORACLE,
    "repro.dram.chip.state_digest": _ORACLE,
    "repro.core.hammer.DoubleSidedHammer.hammer_single_sided": (
        "Section 4.3: tier-1 asserts double-sided hammering is the worst case"
    ),
    "repro.core.row_mapping.infer_row_mapping": (
        "Section 4.3: tier-1 asserts it recovers every chip's row mapping"
    ),
    "repro.dram.spec.DramTypeSpec.max_hammers_in_refresh_window": (
        "tier-1 asserts the 150k-hammer test limit fits in a refresh window"
    ),
    "repro.dram.spec.DramTypeSpec.rows_per_refresh_window": (
        "tier-1 asserts the 150k-hammer test limit fits in a refresh window"
    ),
    "repro.sim.workloads.mix_mpki_range": "tier-1 asserts the mixes span 10-740 MPKI",
    "repro.core.scaling.project_future_hcfirst": (
        "tier-1 asserts future generations fall below today's HC_first minimum"
    ),
    "repro.core.scaling.ScalingProjection.generations_until": (
        "tier-1 asserts the HC_first scaling trend reaches low targets"
    ),
    "repro.dram.chip._CalibratedChip.weakest_cell": _PROBE,
    "repro.sim.controller.MemoryController.outstanding_requests": _PROBE,
    "repro.sim.events.EventQueue.cycle_of": _PROBE,
    "repro.mitigations.ideal.IdealRefresh.tracked_rows": _PROBE,
    "repro.mitigations.twice.TWiCe.table_size": _PROBE,
    "repro.mitigations.refresh_rate.IncreasedRefreshRate.refresh_rate_multiplier": _PROBE,
    "repro.experiments.study.unregister_study": (
        "probe: tests remove the studies they register"
    ),
    "repro.dram.vulnerability.available_configurations": (
        "probe: tests enumerate the profiled configurations"
    ),
    "repro.experiments.session.SessionRunResult.by_configuration": (
        "the repro package doctest groups a run's payloads with it"
    ),
}


def _module_name(path: Path, package: Path = PACKAGE) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_registered_study(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "register_study":
            return True
    return False


def _definitions(node: ast.AST, prefix: str) -> Iterator[Tuple[str, str]]:
    """(qualified name, name) of every public def and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            if not child.name.startswith("_") and not _is_registered_study(child):
                yield qualified, child.name
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def public_definitions(package: Path = PACKAGE) -> Dict[str, str]:
    found: Dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_definitions(tree, _module_name(path, package)))
    return found


def referenced_names(root: Path = ROOT) -> Set[str]:
    names: Set[str] = set()
    for caller in CALLERS:
        for path in (root / caller).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    caller == "perfbench"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    names.add(node.value)
    return names


def surface_problems(
    definitions: Mapping[str, str], referenced: Set[str], allowed: Mapping[str, str]
) -> Tuple[List[str], List[str], List[str]]:
    """(unlisted, gone, used): unused definitions missing from ``allowed``,
    ``allowed`` names no longer defined, and ``allowed`` names now referenced."""
    unused = {qualified for qualified, name in definitions.items() if name not in referenced}
    unlisted = sorted(unused - set(allowed))
    gone = sorted(set(allowed) - set(definitions))
    used = sorted(set(allowed) - unused - set(gone))
    return unlisted, gone, used


def test_every_public_definition_has_a_user():
    unlisted, gone, used = surface_problems(public_definitions(), referenced_names(), ALLOWED)
    assert not unlisted, (
        "public definitions that nothing outside the tests references "
        "(delete them, or list them in ALLOWED with a reason): " + ", ".join(unlisted)
    )
    assert not gone, "ALLOWED names that are no longer defined: " + ", ".join(gone)
    assert not used, "ALLOWED names that now have a user: " + ", ".join(used)


def _write(path: Path, source: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def _toy_repository(root: Path) -> Path:
    """A package ``pkg`` whose definitions have every kind of caller and non-caller."""
    package = root / "src" / "pkg"
    _write(package / "__init__.py", "from pkg.mod import Box, only_tested, used\n")
    _write(
        package / "mod.py",
        """
        def used(): ...
        def only_tested(): ...
        def _private(): ...

        @register_study("toy")
        def registered(): ...

        class Box:
            def method(self): ...
            def wrapped_by_name(self): ...
            def named_in_a_benchmark_string(self): ...
        """,
    )
    _write(root / "src" / "pkg" / "other.py", "from pkg.mod import Box\nBox()\n")
    _write(root / "examples" / "demo.py", "from pkg import used\nused()\n")
    _write(root / "benchmarks" / "bench.py", "Box().method()\n'named_in_a_benchmark_string'\n")
    _write(root / "perfbench" / "layers.py", "WRAPS = ['wrapped_by_name']\n")
    _write(root / "tests" / "test_mod.py", "from pkg.mod import only_tested\nonly_tested()\n")
    return package


def test_scan_flags_definitions_only_tests_reference(tmp_path):
    # Imports, tests and string constants outside perfbench/ are no callers;
    # private names and registered studies are not scanned.
    package = _toy_repository(tmp_path)
    definitions = public_definitions(package)
    assert sorted(definitions) == [
        "pkg.mod.Box",
        "pkg.mod.Box.method",
        "pkg.mod.Box.named_in_a_benchmark_string",
        "pkg.mod.Box.wrapped_by_name",
        "pkg.mod.only_tested",
        "pkg.mod.used",
    ]
    unlisted, gone, used = surface_problems(definitions, referenced_names(tmp_path), {})
    assert unlisted == ["pkg.mod.Box.named_in_a_benchmark_string", "pkg.mod.only_tested"]
    assert gone == used == []


def test_allowlist_entries_fail_once_used_or_gone(tmp_path):
    package = _toy_repository(tmp_path)
    allowed = {"pkg.mod.only_tested": "probe", "pkg.mod.used": "probe", "pkg.mod.gone": "probe"}
    unlisted, gone, used = surface_problems(
        public_definitions(package), referenced_names(tmp_path), allowed
    )
    assert unlisted == ["pkg.mod.Box.named_in_a_benchmark_string"]
    assert gone == ["pkg.mod.gone"]
    assert used == ["pkg.mod.used"]


def test_every_package_export_resolves():
    missing = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        module = importlib.import_module(_module_name(init))
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, "__all__ names that do not resolve: " + ", ".join(missing)
