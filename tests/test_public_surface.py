"""Every public definition and option in ``src/repro`` has a user outside the tests.

The definition scan walks ``src/repro`` with :mod:`ast` and collects every
``def`` and ``class`` whose name has no leading underscore, methods and
properties included.  A definition is used when its name is referenced from
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``: as an
``ast.Name`` id, as an ``ast.Attribute`` attr or, under ``perfbench/``
only, as a string constant (``perfbench/layers.py`` wraps library methods
by name).  A member of a class (a def or class in its body) is reached as
an attribute, so a bare name (a same-named local, say) never counts for
it; only an ``ast.Attribute`` or a ``perfbench/`` string does.  A
reference inside a definition's own body (a class's methods naming the
class, a recursive call) never counts for that definition.  Imports are not
references, so a package ``__init__.py`` re-export is not a caller.
Studies registered with ``@register_study`` are reached through the
registry and count as used.

The parameter scan collects every defaulted parameter of the same public
defs, plus every class's ``__init__``; registered studies and defs nested
inside a function (whose ``name=name`` defaults bind a closure) are left
out.  An option is set when some call from the same directories passes it
by keyword, by position, or through ``*`` / ``**``, and the call's callee
names the def: its own name, the class name for ``__init__``, or a base
class for ``super().__init__``.  An option must also be read: a defaulted
parameter whose name its own def's body never mentions fails, whoever
passes it.  A body that only raises or passes (a stub, an abstract hook)
is exempt.

Both scans match names, not types.  A method counts as used when any call
shares its name, even one on an unrelated class (``dict.clear`` keeps every
method called ``clear``), and an option counts as set when any call of that
name passes it.

A definition with no reference must be deleted, or listed in
:data:`ALLOWED` with the reason it stays: an oracle, a paper observation
tier-1 asserts, or a probe tests need to see internal state.  An option no
call sets must be folded into a constant holding its value, or listed in
:data:`ALLOWED_OPTIONS` with its reason; an option no body reads must be
deleted, along with what its callers pass for it.  An entry of either list
that is no longer defined, or that has gained a caller, fails too, so the
lists never outlive their reasons.  Toy-repository tests run each scan, so
each of these failures is seen to fire.
"""

from __future__ import annotations

import ast
import functools
import importlib
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Directories whose code counts as a user of the library.
CALLERS = ("src", "examples", "benchmarks", "perfbench")

_ORACLE = "oracle tooling: the differential suite checks DramChip against it"
_PROBE = "probe: tests read internal state through it"

#: Public definitions only the tests reference, by qualified name.
ALLOWED: Dict[str, str] = {
    "repro.dram.reference.ReferenceDramChip": _ORACLE,
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

_ORACLE_OPTION = (
    "tier-1 compares this function with the registered study at a non-default "
    "value (FIG10_STUDY_DIGESTS, the cycle oracle in test_sharded_units.py)"
)
_ROW_MAPPING = "Section 4.3: tier-1 asserts infer_row_mapping's observations through it"

#: Defaulted parameters no call outside the tests passes, by ``def(name=)``.
ALLOWED_OPTIONS: Dict[str, str] = {
    "repro.analysis.mitigation_study.run_mitigation_study(respect_design_constraints=)": (
        _ORACLE_OPTION
    ),
    "repro.analysis.mitigation_study.run_mitigation_study(step_mode=)": _ORACLE_OPTION,
    "repro.core.row_mapping.infer_row_mapping(probe_rows=)": _ROW_MAPPING,
    "repro.core.row_mapping.infer_row_mapping(hammer_count=)": _ROW_MAPPING,
    "repro.core.row_mapping.infer_row_mapping(bank=)": _ROW_MAPPING,
    "repro.core.row_mapping.infer_row_mapping(window=)": _ROW_MAPPING,
    "repro.dram.spec.DramTypeSpec.max_hammers_in_refresh_window(refresh_window_ms=)": (
        "tier-1 asserts the 150k-hammer test limit fits in a refresh window"
    ),
    "repro.experiments.executors.ParallelExecutor(max_workers=)": (
        "deployment setting: the worker count suits the host, not the study"
    ),
}


# Both scans walk the same files, so each file is parsed once.
@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_name(path: Path, base: Path = PACKAGE.parent) -> str:
    parts = path.relative_to(base).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_registered_study(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "register_study":
            return True
    return False


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Definition:
    """A public def or class, as a reference can reach it."""

    name: str
    member: bool  # in a class body: reached as an attribute, never a bare name


def _definitions(
    node: ast.AST, prefix: str, in_class: bool = False
) -> Iterator[Tuple[str, Definition]]:
    """(qualified name, definition) of every public def and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            qualified = f"{prefix}.{child.name}"
            if not child.name.startswith("_") and not _is_registered_study(child):
                yield qualified, Definition(child.name, in_class)
            yield from _definitions(child, qualified, isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def public_definitions(package: Path = PACKAGE) -> Dict[str, Definition]:
    found: Dict[str, Definition] = {}
    for path in sorted(package.rglob("*.py")):
        found.update(_definitions(_tree(path), _module_name(path, package.parent)))
    return found


#: How a name is referenced: a bare name, an attribute, or a perfbench string.
NAME, ATTRIBUTE, STRING = "name", "attribute", "string"


def references(root: Path = ROOT) -> Dict[str, Set[Tuple[str, str]]]:
    """Name -> every (kind, scope) it is referenced with from the callers.

    The scope is the qualified name of the innermost def or class whose
    body holds the reference, or of the module (named from ``src/`` for
    code there, from the repository root elsewhere).
    """
    found: Dict[str, Set[Tuple[str, str]]] = {}
    for caller in CALLERS:
        base = root / "src" if caller == "src" else root
        for path in (root / caller).rglob("*.py"):
            stack = [(_tree(path), _module_name(path, base))]
            while stack:
                node, scope = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.Name):
                        found.setdefault(child.id, set()).add((NAME, scope))
                    elif isinstance(child, ast.Attribute):
                        found.setdefault(child.attr, set()).add((ATTRIBUTE, scope))
                    elif (
                        caller == "perfbench"
                        and isinstance(child, ast.Constant)
                        and isinstance(child.value, str)
                    ):
                        found.setdefault(child.value, set()).add((STRING, scope))
                    inner = f"{scope}.{child.name}" if isinstance(child, _DEFS) else scope
                    stack.append((child, inner))
    return found


def _is_used(
    qualified: str, definition: Definition, referenced: Mapping[str, Set[Tuple[str, str]]]
) -> bool:
    return any(
        not (definition.member and kind == NAME)
        and scope != qualified
        and not scope.startswith(qualified + ".")
        for kind, scope in referenced.get(definition.name, ())
    )


def _problems(
    defined: Set[str], unused: Set[str], allowed: Mapping[str, str]
) -> Tuple[List[str], List[str], List[str]]:
    """(unlisted, gone, used): unused names missing from ``allowed``,
    ``allowed`` names no longer defined, and ``allowed`` names now used."""
    unlisted = sorted(unused - set(allowed))
    gone = sorted(set(allowed) - defined)
    used = sorted(set(allowed) - unused - set(gone))
    return unlisted, gone, used


def surface_problems(
    definitions: Mapping[str, Definition],
    referenced: Mapping[str, Set[Tuple[str, str]]],
    allowed: Mapping[str, str],
) -> Tuple[List[str], List[str], List[str]]:
    unused = {
        qualified
        for qualified, definition in definitions.items()
        if not _is_used(qualified, definition, referenced)
    }
    return _problems(set(definitions), unused, allowed)


@dataclass(frozen=True)
class Option:
    """A defaulted parameter, as a call can reach it."""

    callee: str  # the name a call uses: the def's, or its class's for ``__init__``
    parameter: str
    position: Optional[int]  # index among a call's positional arguments
    read: bool  # the def's own body names it, or only raises or passes


@dataclass(frozen=True)
class CallShape:
    """What one call passes: positional count, keyword names, ``*`` and ``**``."""

    positional: int
    keywords: FrozenSet[str]
    star: bool
    double_star: bool

    def passes(self, option: Option) -> bool:
        if self.double_star or option.parameter in self.keywords:
            return True
        return option.position is not None and (self.star or option.position < self.positional)


def _is_stub(statement: ast.stmt) -> bool:
    """``pass``, ``raise``, or a bare constant (a docstring, ``...``)."""
    return isinstance(statement, (ast.Pass, ast.Raise)) or (
        isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
    )


def _names_read(function: ast.FunctionDef) -> Optional[Set[str]]:
    """Every name the def's body mentions, or ``None`` for a body that only
    raises or passes, which reads nothing by design."""
    if all(_is_stub(statement) for statement in function.body):
        return None
    return {
        node.id
        for statement in function.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name)
    }


def _defaulted(
    function: ast.FunctionDef, qualified: str, callee: str, method: bool
) -> Iterator[Tuple[str, Option]]:
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    bound = 1 if method and not static else 0
    names = _names_read(function)

    def option(arg: ast.arg, position: Optional[int]) -> Tuple[str, Option]:
        read = names is None or arg.arg in names
        return f"{qualified}({arg.arg}=)", Option(callee, arg.arg, position, read)

    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first_default:], start=first_default):
        yield option(arg, index - bound)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield option(arg, None)


def _options(
    node: ast.AST, prefix: str, cls: Optional[str] = None
) -> Iterator[Tuple[str, Option]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _options(child, f"{prefix}.{child.name}", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Defs nested in a function are not walked: they are no API.
            if child.name == "__init__" and cls is not None:
                yield from _defaulted(child, prefix, cls, method=True)
            elif not child.name.startswith("_") and not _is_registered_study(child):
                qualified = f"{prefix}.{child.name}"
                yield from _defaulted(child, qualified, child.name, cls is not None)
        else:
            yield from _options(child, prefix, cls)


def defaulted_parameters(package: Path = PACKAGE) -> Dict[str, Option]:
    found: Dict[str, Option] = {}
    for path in sorted(package.rglob("*.py")):
        found.update(_options(_tree(path), _module_name(path, package.parent)))
    return found


def _callees(function: ast.expr, bases: Tuple[str, ...]) -> Tuple[str, ...]:
    if isinstance(function, ast.Name):
        return (function.id,)
    if not isinstance(function, ast.Attribute):
        return ()
    target = function.value
    if (
        function.attr == "__init__"
        and isinstance(target, ast.Call)
        and getattr(target.func, "id", None) == "super"
    ):
        return bases
    return (function.attr,)


def _collect_calls(
    node: ast.AST, bases: Tuple[str, ...], calls: Dict[str, List[CallShape]]
) -> None:
    for child in ast.iter_child_nodes(node):
        inner = bases
        if isinstance(child, ast.ClassDef):
            inner = tuple(getattr(base, "id", getattr(base, "attr", "")) for base in child.bases)
        elif isinstance(child, ast.Call):
            shape = CallShape(
                positional=sum(not isinstance(arg, ast.Starred) for arg in child.args),
                keywords=frozenset(k.arg for k in child.keywords if k.arg is not None),
                star=any(isinstance(arg, ast.Starred) for arg in child.args),
                double_star=any(k.arg is None for k in child.keywords),
            )
            for callee in _callees(child.func, bases):
                calls.setdefault(callee, []).append(shape)
        _collect_calls(child, inner, calls)


def calls_by_callee(root: Path = ROOT) -> Dict[str, List[CallShape]]:
    calls: Dict[str, List[CallShape]] = {}
    for caller in CALLERS:
        for path in (root / caller).rglob("*.py"):
            _collect_calls(_tree(path), (), calls)
    return calls


def option_problems(
    options: Mapping[str, Option],
    calls: Mapping[str, List[CallShape]],
    allowed: Mapping[str, str],
) -> Tuple[List[str], List[str], List[str]]:
    unset = {
        qualified
        for qualified, option in options.items()
        if not any(call.passes(option) for call in calls.get(option.callee, ()))
    }
    return _problems(set(options), unset, allowed)


def unread_options(options: Mapping[str, Option]) -> List[str]:
    return sorted(qualified for qualified, option in options.items() if not option.read)


def test_every_public_definition_has_a_user():
    unlisted, gone, used = surface_problems(public_definitions(), references(), ALLOWED)
    assert not unlisted, (
        "public definitions that nothing outside the tests references "
        "(delete them, or list them in ALLOWED with a reason): " + ", ".join(unlisted)
    )
    assert not gone, "ALLOWED names that are no longer defined: " + ", ".join(gone)
    assert not used, "ALLOWED names that now have a user: " + ", ".join(used)


def test_every_option_has_a_caller():
    unlisted, gone, used = option_problems(
        defaulted_parameters(), calls_by_callee(), ALLOWED_OPTIONS
    )
    assert not unlisted, (
        "defaulted parameters that no call outside the tests passes (fold each "
        "into a constant, or list it in ALLOWED_OPTIONS with a reason): " + ", ".join(unlisted)
    )
    assert not gone, "ALLOWED_OPTIONS entries that are no longer defined: " + ", ".join(gone)
    assert not used, "ALLOWED_OPTIONS entries that a caller now sets: " + ", ".join(used)


def test_every_option_is_read():
    unread = unread_options(defaulted_parameters())
    assert not unread, (
        "defaulted parameters their own def never reads (delete each, and what "
        "its callers pass for it): " + ", ".join(unread)
    )


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
    unlisted, gone, used = surface_problems(definitions, references(tmp_path), {})
    assert unlisted == ["pkg.mod.Box.named_in_a_benchmark_string", "pkg.mod.only_tested"]
    assert gone == used == []


def test_allowlist_entries_fail_once_used_or_gone(tmp_path):
    package = _toy_repository(tmp_path)
    allowed = {"pkg.mod.only_tested": "probe", "pkg.mod.used": "probe", "pkg.mod.gone": "probe"}
    unlisted, gone, used = surface_problems(
        public_definitions(package), references(tmp_path), allowed
    )
    assert unlisted == ["pkg.mod.Box.named_in_a_benchmark_string"]
    assert gone == ["pkg.mod.gone"]
    assert used == ["pkg.mod.used"]


def _toy_rules_repository(root: Path) -> Path:
    """A package ``pkg`` whose definitions are referenced only in ways that do not count."""
    package = root / "src" / "pkg"
    _write(
        package / "rules.py",
        """
        def recursive():
            return recursive()

        def called_by_another_def(): ...

        def caller():
            return called_by_another_def()

        class Node:
            def child(self):
                return Node()

            def by_attribute(self): ...
            def by_local_name(self): ...
            def by_perfbench_string(self): ...

            def by_itself(self):
                return self.by_itself()
        """,
    )
    _write(
        root / "examples" / "demo.py",
        """
        caller()
        node.child().by_attribute()
        by_local_name = by_perfbench_string = 1
        """,
    )
    _write(root / "perfbench" / "layers.py", "WRAPS = ['by_perfbench_string']\n")
    return package


def test_scan_counts_members_as_attributes_and_never_a_definitions_own_body(tmp_path):
    # A bare name never reaches a class member (the example's locals share
    # two members' names), and a reference inside a definition's own body
    # (Node's method naming Node, a recursive call, a method calling itself)
    # never counts for it; a reference from another def's body does.
    package = _toy_rules_repository(tmp_path)
    unlisted, gone, used = surface_problems(
        public_definitions(package), references(tmp_path), {}
    )
    assert unlisted == [
        "pkg.rules.Node",
        "pkg.rules.Node.by_itself",
        "pkg.rules.Node.by_local_name",
        "pkg.rules.recursive",
    ]
    assert gone == used == []


def _toy_options_repository(root: Path) -> Path:
    """A package ``pkg`` whose options are set in every way a call can, or not at all."""
    package = root / "src" / "pkg"
    _write(
        package / "options.py",
        """
        def by_keyword(a, b=1): ...
        def by_position(a, b=1): ...
        def by_star(a, b=1, *, c=2): ...
        def unset(a, b=1, *, c=2): ...
        def only_tested(b=1): ...

        @register_study("toy")
        def registered(chip, config=None): ...

        def outer(target=1):
            def nested(target=target): ...
            return nested(target)

        class Base:
            def __init__(self, size=4): ...
            def method(self, first=1, second=2): ...

        class Child(Base):
            def __init__(self, depth=1):
                super().__init__(size=depth)

        class _Private:
            def __init__(self, flag=False): ...
        """,
    )
    _write(
        package / "use.py",
        """
        by_keyword(0, b=2)
        by_position(0, 2)
        by_star(*args, **kwargs)
        outer(target=3)
        Child(depth=2).method(5)
        """,
    )
    _write(root / "examples" / "demo.py", "_Private(True)\n")
    _write(root / "tests" / "test_options.py", "only_tested(b=3)\nunset(0, 1, c=2)\n")
    return package


def test_option_scan_flags_options_only_tests_set(tmp_path):
    # Keyword, position, */** and super().__init__ calls all set an option;
    # registered studies and defs nested in a function are not scanned.
    package = _toy_options_repository(tmp_path)
    options = defaulted_parameters(package)
    assert sorted(options) == [
        "pkg.options.Base(size=)",
        "pkg.options.Base.method(first=)",
        "pkg.options.Base.method(second=)",
        "pkg.options.Child(depth=)",
        "pkg.options._Private(flag=)",
        "pkg.options.by_keyword(b=)",
        "pkg.options.by_position(b=)",
        "pkg.options.by_star(b=)",
        "pkg.options.by_star(c=)",
        "pkg.options.only_tested(b=)",
        "pkg.options.outer(target=)",
        "pkg.options.unset(b=)",
        "pkg.options.unset(c=)",
    ]
    unlisted, gone, used = option_problems(options, calls_by_callee(tmp_path), {})
    assert unlisted == [
        "pkg.options.Base.method(second=)",
        "pkg.options.only_tested(b=)",
        "pkg.options.unset(b=)",
        "pkg.options.unset(c=)",
    ]
    assert gone == used == []


def test_allowed_options_fail_once_set_or_gone(tmp_path):
    package = _toy_options_repository(tmp_path)
    allowed = {
        "pkg.options.unset(b=)": "reason",
        "pkg.options.by_keyword(b=)": "reason",
        "pkg.options.removed(b=)": "reason",
    }
    unlisted, gone, used = option_problems(
        defaulted_parameters(package), calls_by_callee(tmp_path), allowed
    )
    assert unlisted == [
        "pkg.options.Base.method(second=)",
        "pkg.options.only_tested(b=)",
        "pkg.options.unset(c=)",
    ]
    assert gone == ["pkg.options.removed(b=)"]
    assert used == ["pkg.options.by_keyword(b=)"]


def _toy_reads_repository(root: Path) -> Path:
    """A package ``pkg`` whose options are read in every way a body can, or not at all."""
    package = root / "src" / "pkg"
    _write(
        package / "reads.py",
        """
        def reads(a, b=1):
            return a + b

        def reads_in_a_closure(a, b=1):
            return lambda: b

        def forwards(a, b=1):
            return reads(a, b)

        def ignores(a, b=1):
            '''Documented, but ``b`` is never used.'''
            return a

        def raises(a, b=1):
            raise NotImplementedError

        def passes(a, b=1):
            '''A stub.'''
            pass

        def ellipsis(a, b=1): ...

        class Box:
            def __init__(self, size=4, *, label=""):
                self.size = size

            def hook(self, flag=False):
                return None
        """,
    )
    return package


def test_option_scan_flags_options_no_body_reads(tmp_path):
    # A body that reads the name (directly, in a closure, or to forward it)
    # uses the option; one that only raises or passes is exempt.
    options = defaulted_parameters(_toy_reads_repository(tmp_path))
    assert len(options) == 10
    assert unread_options(options) == [
        "pkg.reads.Box(label=)",
        "pkg.reads.Box.hook(flag=)",
        "pkg.reads.ignores(b=)",
    ]


def test_every_package_export_resolves():
    missing = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        module = importlib.import_module(_module_name(init))
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, "__all__ names that do not resolve: " + ", ".join(missing)
