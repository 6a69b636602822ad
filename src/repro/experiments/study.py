"""Study registry: named, config-driven experiment units.

Every analysis in the paper is one instance of the same shape -- run a study
over a population of chips and aggregate -- so the library exposes each one
as a *study*: a named unit with a frozen config dataclass and a uniform
``run(chip, config) -> payload`` contract.  Studies are registered with
:func:`register_study` and discovered by name through :func:`get_study` /
:func:`list_studies`; :class:`~repro.experiments.session.ExperimentSession`
fans registered studies out over chip populations.

Work units
----------
Long grid-shaped studies may additionally declare a *decomposition*: a
``decompose(config) -> [WorkUnit]`` enumerating independent shards of the
grid, a ``unit_runner(chip, config, unit)`` executing one shard
hermetically, and a deterministic ``merge(config, payloads)`` reassembling
the study payload from shard payloads *in decomposition order*.  Sessions
then fan the units -- not the whole study -- through the executor and cache
each unit individually, so a killed sweep resumes from its completed units
and a config edit invalidates only the units it touches.  Studies without a
decomposition run as a single implicit whole-study unit.

The registry deliberately knows nothing about chips or executors, so study
implementations (which live next to the measurement code they wrap, for
example :mod:`repro.core.sweeps`) can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)


class UnknownStudyError(KeyError):
    """Raised when a study name is not present in the registry."""


class DuplicateStudyError(ValueError):
    """Raised when two studies are registered under the same name."""


class DecompositionError(ValueError):
    """Raised when a study's declared decomposition is inconsistent."""


#: ``unit_id`` of the implicit single unit wrapping an undecomposed study.
#: Stores key such units exactly like the pre-unit-layer whole-study
#: results, so existing caches stay valid.
WHOLE_STUDY_UNIT = "whole-study"


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable, independently cacheable shard of a study.

    A unit is pure data (it must pickle into worker processes): the study it
    belongs to, a human-readable ``unit_id`` unique within one decomposition,
    the shard parameters, and its position in decomposition order (``index``,
    which fixes merge order).  ``params`` accepts any mapping or iterable of
    ``(key, value)`` pairs and is normalised to a key-sorted tuple, so two
    units built from differently-ordered dicts compare, hash and digest
    identically.

    **Cache contract:** ``params`` must embed *every* config field the
    unit's payload depends on (embedding a restricted copy of the config is
    the easy way), because stores key unit results by the unit digest alone,
    with no full-config component.  That is what makes the cache surgical:
    dropping one mechanism from a sweep's config leaves every other
    mechanism's units replayable, and two configs sharing a grid cell share
    its cache entry.
    """

    study: str
    unit_id: str
    params: Any = ()
    index: int = 0

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        normalized = tuple(
            sorted(((str(key), value) for key, value in items), key=lambda kv: kv[0])
        )
        object.__setattr__(self, "params", normalized)

    @property
    def param_dict(self) -> Dict[str, Any]:
        """The unit's parameters as a plain dict."""
        return dict(self.params)

    @functools.cached_property
    def digest(self) -> str:
        """Stable hex digest identifying this unit's content.

        Computed over the study name, the unit id and the canonical textual
        form of the parameters (keys sorted), so the digest is invariant
        under parameter-dict key order and across process restarts, and two
        units with different parameters never share a digest.  ``index`` is
        excluded: reordering a decomposition re-orders the merge, not the
        units' cache identities.

        Computed once per unit and cached on the instance (a unit is
        frozen), so a unit's store lookup and its execution share one
        hash.
        """
        text = "\x1f".join((self.study, self.unit_id, _canonical(self.param_dict)))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @property
    def is_whole_study(self) -> bool:
        """Whether this is the implicit unit of an undecomposed study."""
        return self.unit_id == WHOLE_STUDY_UNIT


@runtime_checkable
class Study(Protocol):
    """Protocol every registered study satisfies.

    A study has a unique ``name``, an optional frozen config dataclass
    (``config_cls``) and a ``run(chip, config)`` method returning the
    study's domain-specific payload (for example a
    :class:`~repro.core.results.SweepResult`).  Population-level studies
    (``requires_chip`` false) receive ``chip=None``.
    """

    name: str
    config_cls: Optional[type]
    requires_chip: bool

    def run(self, chip: Any, config: Any = None) -> Any: ...


@dataclass(frozen=True)
class RegisteredStudy:
    """A study registered under a unique name.

    Wraps a plain function ``fn(chip, config) -> payload`` together with the
    metadata the session layer needs: the config dataclass used when no
    config is supplied, whether the study runs per chip or once per
    population, and a human-readable description.

    A study may also declare a work-unit decomposition (``decompose_fn`` /
    ``unit_runner_fn`` / ``merge_fn``, see the module docstring); sessions
    then execute and cache the study shard by shard.  ``fn`` stays callable
    directly: the Figure 4 and Figure 10 studies' ``fn`` runs their units
    one after another in this process, and Algorithm 1's runs its loop.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    config_cls: Optional[type] = None
    requires_chip: bool = True
    description: str = ""
    decompose_fn: Optional[Callable[[Any], Sequence["WorkUnit"]]] = None
    unit_runner_fn: Optional[Callable[[Any, Any, "WorkUnit"], Any]] = None
    merge_fn: Optional[Callable[[Any, List[Any]], Any]] = None

    def default_config(self) -> Any:
        """A default-constructed config, or ``None`` for config-less studies."""
        return self.config_cls() if self.config_cls is not None else None

    def run(self, chip: Any, config: Any = None) -> Any:
        """Execute the study against one chip (or ``None`` for system studies)."""
        if config is None:
            config = self.default_config()
        return self.fn(chip, config)

    # ------------------------------------------------------------------
    # Work-unit decomposition
    # ------------------------------------------------------------------
    @property
    def is_decomposable(self) -> bool:
        """Whether the study declares a work-unit decomposition."""
        return self.decompose_fn is not None

    def units_for(self, config: Any = None) -> List["WorkUnit"]:
        """The study's work units for one config, in merge order.

        Undecomposed studies return a single implicit whole-study unit.
        Unit ids must be unique within a decomposition (they key the cache);
        ``index`` is normalised to the decomposition position (the built-in
        decompositions build each unit at its position, so nothing is
        rebuilt for them).
        """
        if config is None:
            config = self.default_config()
        if not self.is_decomposable:
            return [WorkUnit(study=self.name, unit_id=WHOLE_STUDY_UNIT)]
        units: List[WorkUnit] = []
        seen_ids: set = set()
        for position, unit in enumerate(self.decompose_fn(config)):
            if unit.study != self.name:
                raise DecompositionError(
                    f"study {self.name!r} produced a unit for {unit.study!r}"
                )
            if unit.unit_id in seen_ids:
                raise DecompositionError(
                    f"study {self.name!r} produced duplicate unit id {unit.unit_id!r}"
                )
            seen_ids.add(unit.unit_id)
            if unit.index != position:
                unit = dataclasses.replace(unit, index=position)
            units.append(unit)
        if not units:
            raise DecompositionError(f"study {self.name!r} decomposed into zero units")
        return units

    def run_unit(self, chip: Any, config: Any, unit: "WorkUnit") -> Any:
        """Execute one work unit hermetically, returning the unit payload.

        The implicit whole-study unit falls through to :meth:`run`, so every
        execution path -- decomposed or not -- goes through one method.
        """
        if config is None:
            config = self.default_config()
        if not self.is_decomposable or unit.is_whole_study:
            return self.fn(chip, config)
        return self.unit_runner_fn(chip, config, unit)

    def merge_units(self, config: Any, payloads: Sequence[Any]) -> Any:
        """Merge unit payloads (in decomposition order) into the study payload.

        Merging is pure data assembly -- no chip access, no randomness -- so
        the merged payload is bit-identical regardless of which executor ran
        the units, how many workers it used, or in what order units finished.
        """
        if config is None:
            config = self.default_config()
        if not self.is_decomposable:
            if len(payloads) != 1:
                raise DecompositionError(
                    f"undecomposed study {self.name!r} expects exactly one unit "
                    f"payload, got {len(payloads)}"
                )
            return payloads[0]
        return self.merge_fn(config, list(payloads))


@dataclass
class StudyResult:
    """Uniform envelope around one study execution on one chip.

    ``payload`` is the study's domain result (sweep, HC_first, coverage,
    ...).  The envelope adds the identity needed to aggregate, cache and
    compare results across chips and sessions.  ``elapsed_s`` and
    ``from_cache`` are bookkeeping and excluded from equality so a cached
    result compares equal to the run that produced it.

    The same envelope carries both granularities of the unit layer: a
    *unit-level* result (``unit_id``/``unit_digest`` set, ``payload`` is one
    shard's payload) is what executors produce and stores cache, while a
    *study-level* result (``unit_id`` ``None``, ``payload`` merged) is what
    sessions return.  ``units_total`` / ``units_from_cache`` record, on a
    study-level result, how many units the payload was merged from and how
    many of those were replayed from the store.
    """

    study: str
    config_digest: str
    chip_id: Optional[str]
    type_node: Optional[str]
    manufacturer: Optional[str]
    seed: Optional[int]
    payload: Any
    elapsed_s: float = field(default=0.0, compare=False)
    from_cache: bool = field(default=False, compare=False)
    unit_id: Optional[str] = None
    unit_digest: Optional[str] = None
    units_total: int = field(default=1, compare=False)
    units_from_cache: int = field(default=0, compare=False)
    #: Recovery bookkeeping on a study-level result: extra dispatch attempts
    #: beyond the first across the merged units (``units_retries``) and
    #: leases reclaimed from dead/hung workers (``units_requeued``).  Local
    #: executors leave both at zero; service runs report real recovery.
    units_retries: int = field(default=0, compare=False)
    units_requeued: int = field(default=0, compare=False)

    @property
    def configuration(self) -> Optional[Tuple[str, str]]:
        """(type-node, manufacturer) key used by population aggregations."""
        if self.type_node is None or self.manufacturer is None:
            return None
        return (self.type_node, self.manufacturer)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, RegisteredStudy] = {}

#: Modules whose import registers the library's built-in studies.  Loaded
#: lazily (first registry lookup) to avoid import cycles: these modules
#: import :func:`register_study` from here at their own import time.
_BUILTIN_STUDY_MODULES: Tuple[str, ...] = (
    "repro.core.characterization",
    "repro.core.coverage",
    "repro.core.sweeps",
    "repro.core.spatial",
    "repro.core.word_density",
    "repro.core.first_flip",
    "repro.core.ecc_analysis",
    "repro.core.probability",
    "repro.analysis.mitigation_study",
    "repro.service.selftest",
)
_builtins_loaded = False


def _ensure_builtin_studies() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_STUDY_MODULES:
        importlib.import_module(module)


def register_study(
    name: str,
    config: Optional[type] = None,
    requires_chip: bool = True,
    description: str = "",
    decompose: Optional[Callable[[Any], Sequence[WorkUnit]]] = None,
    unit_runner: Optional[Callable[[Any, Any, WorkUnit], Any]] = None,
    merge: Optional[Callable[[Any, List[Any]], Any]] = None,
) -> Callable[[Callable[[Any, Any], Any]], Callable[[Any, Any], Any]]:
    """Decorator registering ``fn(chip, config) -> payload`` as a named study.

    >>> @register_study("demo-noop")
    ... def run_noop(chip, config):
    ...     return None

    Parameters
    ----------
    name:
        Unique registry name (convention: ``<artefact>-<topic>``, for
        example ``"fig5-hc-sweep"``).
    config:
        Frozen dataclass type describing the study's parameters; default
        constructed when a session runs the study without an explicit
        config.  ``None`` for studies without parameters.
    requires_chip:
        ``False`` for population/system-level studies (for example the
        Figure 10 mitigation study) that are executed once per session
        rather than once per chip; their ``chip`` argument is ``None``.
    description:
        One-line human-readable summary; defaults to the first line of the
        function's docstring.
    decompose, unit_runner, merge:
        Optional work-unit decomposition (see the module docstring): all
        three must be given together.  ``decompose(config)`` enumerates the
        study's :class:`WorkUnit` shards, ``unit_runner(chip, config, unit)``
        executes one shard hermetically, and ``merge(config, payloads)``
        deterministically reassembles the study payload from shard payloads
        in decomposition order.  The decorated ``fn`` stays registered for
        direct calls (see :class:`RegisteredStudy`).
    """
    provided = (decompose is not None, unit_runner is not None, merge is not None)
    if any(provided) and not all(provided):
        raise DecompositionError(
            f"study {name!r}: decompose, unit_runner and merge must be "
            "declared together"
        )

    def decorator(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
        if name in _REGISTRY:
            raise DuplicateStudyError(
                f"study {name!r} is already registered (by "
                f"{_REGISTRY[name].fn.__module__}.{_REGISTRY[name].fn.__qualname__})"
            )
        summary = description
        if not summary and fn.__doc__:
            summary = fn.__doc__.strip().splitlines()[0].strip()
        _REGISTRY[name] = RegisteredStudy(
            name=name,
            fn=fn,
            config_cls=config,
            requires_chip=requires_chip,
            description=summary,
            decompose_fn=decompose,
            unit_runner_fn=unit_runner,
            merge_fn=merge,
        )
        return fn

    return decorator


def unregister_study(name: str) -> None:
    """Remove a study from the registry (primarily for tests and plugins)."""
    _REGISTRY.pop(name, None)


def get_study(name: str) -> RegisteredStudy:
    """Look up a registered study by name.

    Raises :class:`UnknownStudyError` (a ``KeyError``) listing the known
    study names when the name is absent.
    """
    _ensure_builtin_studies()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStudyError(
            f"unknown study {name!r}; registered studies: {sorted(_REGISTRY)}"
        ) from None


def list_studies() -> List[str]:
    """Sorted names of every registered study (built-ins included)."""
    _ensure_builtin_studies()
    return sorted(_REGISTRY)


def describe_studies() -> Dict[str, str]:
    """Mapping of study name to its one-line description."""
    _ensure_builtin_studies()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}


# ----------------------------------------------------------------------
# Config digests
# ----------------------------------------------------------------------
#: Leaf types whose canonical form is their ``repr``, tested first because
#: most values are leaves.  Matched by exact type: a subclass (an enum, a
#: dataclass deriving from ``str``) keeps the general path and its text.
_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))


def _canonical(value: Any) -> str:
    """Deterministic string form of a (possibly nested) config value."""
    if type(value) in _SCALAR_TYPES:
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        inner = ",".join(f"{key}={_canonical(fields[key])}" for key in sorted(fields))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_canonical(key)}:{_canonical(value[key])}" for key in sorted(value, key=repr)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    return repr(value)


def config_digest(config: Any) -> str:
    """Stable hex digest of a study config, used in cache keys.

    The digest is computed over a canonical textual form (dataclass fields
    sorted by name, mappings sorted by key) so two structurally equal
    configs always share a digest, across processes and sessions.
    """
    return hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()[:16]
