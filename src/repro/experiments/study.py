"""Study registry: named, config-driven experiment units.

Every analysis in the paper is one instance of the same shape -- run a study
over a population of chips and aggregate -- so the library exposes each one
as a *study*: a named unit with a frozen config dataclass and a registered
function.  Studies are registered with :func:`register_study` and discovered
by name through :func:`get_study` / :func:`list_studies`;
:class:`~repro.experiments.session.ExperimentSession` fans registered
studies out over chip populations.

Work units
----------
A study's registered function runs one unit of it.  For most studies the
unit is the whole study: ``fn(chip, config) -> payload``, which stays
callable directly, and the study's single implicit unit carries its config,
so the unit's digest covers every field of it.  Long grid-shaped studies
instead declare a *decomposition*: a ``decompose(config) -> [WorkUnit]``
enumerating independent shards of the grid and a deterministic
``merge(config, payloads)`` reassembling the study payload from shard
payloads *in decomposition order*; their registered function is then
``fn(chip, config, unit)`` and runs one shard.  Sessions fan the units --
not the whole study -- through the executor, give each unit a fresh copy
of the chip and cache each unit individually, so a killed sweep resumes
from its completed units and a config edit invalidates only the units it
touches.  A decomposed study runs only through a session.

The registry deliberately knows nothing about chips or executors, so study
implementations (which live next to the measurement code they wrap, for
example :mod:`repro.core.sweeps`) can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


class UnknownStudyError(KeyError):
    """Raised when a study name is not present in the registry."""


class DuplicateStudyError(ValueError):
    """Raised when two studies are registered under the same name."""


class DecompositionError(ValueError):
    """Raised when a study's declared decomposition is inconsistent."""


#: ``unit_id`` of the implicit single unit wrapping an undecomposed study.
#: Its params are ``{"config": config}``, so its digest covers the config.
WHOLE_STUDY_UNIT = "whole-study"

#: A study name is one path component: a result store keeps the study's
#: entries under ``<root>/<name>/``.
_STUDY_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable, independently cacheable shard of a study.

    A unit is pure data (it must pickle into worker processes): the study it
    belongs to, a human-readable ``unit_id`` unique within one decomposition,
    and the shard parameters.  Its position in the decomposition's list
    fixes merge order.  ``params`` accepts any mapping or iterable of
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
    #: Stable hex digest identifying this unit's content.
    #:
    #: Computed over the study name, the unit id and the canonical textual
    #: form of the parameters (keys sorted), so the digest is invariant under
    #: parameter-dict key order and across process restarts, and two units
    #: with different parameters never share a digest.  A unit's position is
    #: not part of it: reordering a decomposition re-orders the merge, not
    #: the units' cache identities.
    #:
    #: Computed once, when the unit is built (a unit is frozen): every unit
    #: a session builds is keyed in the store and checked against its
    #: outcome, so each unit pays for one hash and no lazy-attribute lookup.
    #: It is derived from the other fields, so it takes no part in equality,
    #: hashing or ``repr``.
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = self.params
        if type(params) is dict and set(map(type, params)) == {str}:
            # Distinct str keys: the pairs sort by key, never by value.
            normalized = tuple(sorted(params.items()))
        else:
            items = params.items() if isinstance(params, Mapping) else tuple(params)
            normalized = tuple(
                sorted(((str(key), value) for key, value in items), key=lambda kv: kv[0])
            )
        object.__setattr__(self, "params", normalized)
        text = "\x1f".join((self.study, self.unit_id, _canonical_params(normalized)))
        object.__setattr__(
            self, "digest", hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        )

    @property
    def param_dict(self) -> Dict[str, Any]:
        """The unit's parameters as a plain dict."""
        return dict(self.params)


@dataclass(frozen=True)
class RegisteredStudy:
    """A study registered under a unique name.

    Wraps the study's function together with the metadata the session
    layer needs: the config dataclass used when no config is supplied,
    whether the study runs per chip or once per population, and a
    human-readable description.

    ``fn`` runs one unit of the study.  For an undecomposed study that is
    the whole study, ``fn(chip, config) -> payload``, and calling it
    directly mutates the chip it is given.  A decomposed study
    (``decompose_fn`` / ``merge_fn``, see the module docstring) registers
    ``fn(chip, config, unit) -> unit payload`` instead; sessions execute
    and cache it shard by shard.

    ``model_version`` is the version of what the study computes (see
    :func:`register_study`); a store serves only entries written at the
    registered version.
    """

    name: str
    fn: Callable[..., Any]
    config_cls: Optional[type] = None
    requires_chip: bool = True
    description: str = ""
    decompose_fn: Optional[Callable[[Any], Sequence["WorkUnit"]]] = None
    merge_fn: Optional[Callable[[Any, List[Any]], Any]] = None
    model_version: int = 1

    def default_config(self) -> Any:
        """A default-constructed config, or ``None`` for config-less studies."""
        return self.config_cls() if self.config_cls is not None else None

    # ------------------------------------------------------------------
    # Work-unit decomposition
    # ------------------------------------------------------------------
    @property
    def is_decomposable(self) -> bool:
        """Whether the study declares a work-unit decomposition."""
        return self.decompose_fn is not None

    def units_for(self, config: Any = None) -> List["WorkUnit"]:
        """The study's work units for one config, in merge order.

        Undecomposed studies return a single implicit whole-study unit whose
        params are the config.  Unit ids must be unique within a
        decomposition (they key the cache).
        """
        if config is None:
            config = self.default_config()
        if not self.is_decomposable:
            return [WorkUnit(self.name, WHOLE_STUDY_UNIT, {"config": config})]
        units: List[WorkUnit] = []
        seen_ids: set = set()
        for unit in self.decompose_fn(config):
            if unit.study != self.name:
                raise DecompositionError(
                    f"study {self.name!r} produced a unit for {unit.study!r}"
                )
            if unit.unit_id in seen_ids:
                raise DecompositionError(
                    f"study {self.name!r} produced duplicate unit id {unit.unit_id!r}"
                )
            seen_ids.add(unit.unit_id)
            units.append(unit)
        if not units:
            raise DecompositionError(f"study {self.name!r} decomposed into zero units")
        return units

    def run_unit(self, chip: Any, config: Any, unit: "WorkUnit") -> Any:
        """Execute one work unit hermetically, returning the unit payload.

        ``fn`` gets the unit exactly when the study is decomposed; an
        undecomposed study's implicit whole-study unit runs ``fn(chip,
        config)``.
        """
        if config is None:
            config = self.default_config()
        if self.is_decomposable:
            return self.fn(chip, config, unit)
        return self.fn(chip, config)

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
    """One study's result on one chip, as a session returns it.

    ``payload`` is the study's domain result (sweep, HC_first, coverage,
    ...), merged from its work units' payloads.  The result adds the
    identity needed to aggregate and compare results across chips and
    sessions.  ``elapsed_s`` and ``from_cache`` are bookkeeping and excluded
    from equality so a replayed result compares equal to the run that
    produced it.  ``units_total`` / ``units_from_cache`` record how many
    units the payload was merged from and how many of those were replayed
    from the store.  (Executors and stores deal in single units'
    results, :class:`~repro.experiments.executors.TaskOutcome`.)
    """

    study: str
    config_digest: str
    chip_id: Optional[str]
    type_node: Optional[str]
    manufacturer: Optional[str]
    payload: Any
    elapsed_s: float = field(default=0.0, compare=False)
    from_cache: bool = field(default=False, compare=False)
    units_total: int = field(default=1, compare=False)
    units_from_cache: int = field(default=0, compare=False)
    #: Recovery bookkeeping: extra dispatch attempts beyond the first
    #: across the merged units (``units_retries``) and leases reclaimed from
    #: dead/hung workers (``units_requeued``).  Local executors leave both
    #: at zero; service runs report real recovery.
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
#: lazily (on a registry miss) to avoid import cycles: these modules import
#: :func:`register_study` from here at their own import time.  Importing
#: :mod:`repro` already registers the chip studies, so a process that runs
#: only those never loads the simulator behind Figure 10.
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


def _import_builtin_studies() -> None:
    """Import every module that registers a built-in study."""
    for module in _BUILTIN_STUDY_MODULES:
        importlib.import_module(module)


def register_study(
    name: str,
    config: Optional[type] = None,
    requires_chip: bool = True,
    description: str = "",
    decompose: Optional[Callable[[Any], Sequence[WorkUnit]]] = None,
    merge: Optional[Callable[[Any, List[Any]], Any]] = None,
    model_version: int = 1,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering the function that runs one unit of a named study.

    For a whole study that function is ``fn(chip, config) -> payload``:

    >>> @register_study("demo-noop")
    ... def run_noop(chip, config):
    ...     return None

    For a study declared with ``decompose=`` and ``merge=`` it is
    ``fn(chip, config, unit) -> unit payload``, run once per
    :class:`WorkUnit` by a session.

    Parameters
    ----------
    name:
        Unique registry name (convention: ``<artefact>-<topic>``, for
        example ``"fig5-hc-sweep"``).  It names the study's directory in a
        result store, so it must be one path component: a letter or digit,
        then letters, digits, ``.``, ``_`` or ``-``.
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
    decompose, merge:
        Optional work-unit decomposition (see the module docstring): both
        or neither.  ``decompose(config)`` enumerates the study's
        :class:`WorkUnit` shards and ``merge(config, payloads)``
        deterministically reassembles the study payload from shard payloads
        in decomposition order.
    model_version:
        Version of what the study computes, a positive integer.  Bump it
        with any change that moves the study's payloads: every
        :class:`~repro.experiments.store.ResultStore` entry records the
        version it was written at and reads as a stale miss at any other,
        so the study's results are recomputed once rather than replayed.
        (A change of the chip model itself bumps
        :data:`repro.dram.columnar.CHIP_MODEL_VERSION` instead, which every
        chip study's entries record as well.)  It is not part of any cache
        key.
    """
    if not isinstance(name, str) or _STUDY_NAME.fullmatch(name) is None:
        raise ValueError(
            f"study name {name!r} must be one path component: a letter or digit, "
            "then letters, digits, '.', '_' or '-'"
        )
    if (decompose is None) != (merge is None):
        raise DecompositionError(
            f"study {name!r}: decompose and merge must be declared together"
        )
    if type(model_version) is not int or not 0 < model_version < 2**32:
        raise ValueError(
            f"study {name!r}: model_version must be an int in [1, 2**32), "
            f"got {model_version!r}"
        )

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
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
            merge_fn=merge,
            model_version=model_version,
        )
        return fn

    return decorator


def unregister_study(name: str) -> None:
    """Remove a study from the registry (primarily for tests and plugins)."""
    _REGISTRY.pop(name, None)


def get_study(name: str) -> RegisteredStudy:
    """Look up a registered study by name.

    A name not registered yet loads every built-in study before the second
    look.  Raises :class:`UnknownStudyError` (a ``KeyError``) listing every
    known study name, built-ins included, when the name is absent.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        _import_builtin_studies()
        spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownStudyError(
            f"unknown study {name!r}; registered studies: {sorted(_REGISTRY)}"
        )
    return spec


def list_studies() -> List[str]:
    """Sorted names of every registered study (built-ins included)."""
    _import_builtin_studies()
    return sorted(_REGISTRY)


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


def _canonical_params(params: Tuple[Tuple[str, Any], ...]) -> str:
    """``_canonical(dict(params))`` for a unit's key-sorted parameter pairs.

    When the keys are distinct ASCII identifiers, as every built-in study's
    are, each key's repr is the key in single quotes and repr order is sort
    order (every identifier character sorts after the quote), so the text is
    one join over the pairs as they stand.  Any other params take the
    general path.
    """
    previous = ""
    for key, _ in params:
        if type(key) is not str or key <= previous or not (key.isascii() and key.isidentifier()):
            return _canonical(dict(params))
        previous = key
    items = [
        f"'{key}':{repr(value) if type(value) in _SCALAR_TYPES else _canonical(value)}"
        for key, value in params
    ]
    return "{" + ",".join(items) + "}"


def config_digest(config: Any) -> str:
    """Stable hex digest of a study config, used in cache keys.

    The digest is computed over a canonical textual form (dataclass fields
    sorted by name, mappings sorted by key) so two structurally equal
    configs always share a digest, across processes and sessions.
    """
    return hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()[:16]
