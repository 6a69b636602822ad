"""Disk-backed cache of study results keyed by everything that determines them.

For a pristine chip (one never written to or hammered outside a session --
see :attr:`repro.dram.chip.DramChip.is_pristine`), a study result is a pure
function of (study name, config, chip construction parameters), because
sessions execute studies hermetically against a copy of the chip (see
:mod:`repro.experiments.executors`) and the copies of a pristine chip are
themselves pristine.  Sessions bypass the store for non-pristine chips.  The
:class:`ResultStore` exploits that: results are pickled on disk keyed by a
digest of (study name, config digest, profile, geometry, seed, HC_first
target, remapper), so benchmarks that share a chip population -- for
example Table 4 and Figure 8, or Table 2's DDR3 subset -- stop recomputing
each other's work, across processes and across runs.

Decomposed studies are cached at *work-unit* granularity: every shard of
the grid gets its own entry (the key gains the unit's digest), so a sweep
killed halfway resumes from its completed units, and editing one axis of a
config invalidates only the entries whose unit parameters changed.  An
entry that cannot be read back, or that is not the result its key names,
is renamed out of the way and recomputed, never a crash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Set, Union

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.dram.chip import DramChip
from repro.experiments.study import StudyResult, WorkUnit


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached study result.

    ``unit_digest`` distinguishes the shards of a decomposed study; the
    empty string means a whole-study result, whose filename matches the
    pre-unit-layer layout so existing caches stay valid.  Unit entries
    carry no config digest: a work unit's parameters must embed every
    config field its payload depends on (see
    :class:`~repro.experiments.study.WorkUnit`), so its digest *is* its
    config scope -- which is what lets an edited config replay every unit
    it did not touch.

    ``chip_id`` is the id of the chip the result belongs to (``None`` for
    population-level studies).  It is not part of :attr:`filename`, which
    ``chip_digest`` already pins; :meth:`ResultStore.get` checks it against
    the entry it reads.
    """

    study: str
    config_digest: str
    chip_digest: str
    unit_digest: str = ""
    chip_id: Optional[str] = None

    @property
    def filename(self) -> str:
        if self.unit_digest:
            return f"{self.chip_digest}-u{self.unit_digest}.pkl"
        return f"{self.config_digest}-{self.chip_digest}.pkl"


def chip_digest(chip: Optional[DramChip]) -> str:
    """Digest of everything that determines a chip's initial state.

    A :class:`~repro.dram.chip.DramChip` is rebuilt deterministically from
    its profile, geometry, seed and HC_first target, so those (plus the
    chip id, which seeds nothing but keeps reports unambiguous) fully
    identify the state a hermetic study observes.  ``None`` (system-level
    studies with no chip) digests to a fixed marker.
    """
    if chip is None:
        return "population"
    geometry = chip.geometry
    parts = (
        chip.chip_id,
        chip.profile.type_node.value,
        chip.profile.manufacturer,
        chip.seed,
        chip.hcfirst_target,
        geometry.banks,
        geometry.rows_per_bank,
        geometry.row_bytes,
        chip.remapper.name,
    )
    text = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cache_key(
    study: str,
    config_digest: str,
    chip: Optional[DramChip],
    unit: Optional[WorkUnit] = None,
) -> CacheKey:
    """Cache key for one study result (optionally one work unit of it).

    The one keying rule of every store, used through
    :meth:`ResultStore.key_for`.  The implicit whole-study unit maps to the
    unit-less key, so undecomposed studies hit the same cache entries they
    always did.  Real units drop the config digest from the key (their own
    digest embeds the unit-relevant config scope), so two configs sharing a
    grid cell share its cache entry.
    """
    chip_id = chip.chip_id if chip is not None else None
    if unit is None or unit.is_whole_study:
        return CacheKey(
            study=study,
            config_digest=config_digest,
            chip_digest=chip_digest(chip),
            chip_id=chip_id,
        )
    return CacheKey(
        study=study,
        config_digest="",
        chip_digest=chip_digest(chip),
        unit_digest=unit.digest,
        chip_id=chip_id,
    )


def _is_entry_for(key: CacheKey, result: Any) -> bool:
    """Whether an unpickled entry is the result ``key`` names.

    Whole-study envelopes written before the unit layer lack its fields,
    hence the ``getattr`` defaults.
    """
    if not isinstance(result, StudyResult) or getattr(result, "study", None) != key.study:
        return False
    if getattr(result, "chip_id", None) != key.chip_id:
        return False
    if key.unit_digest:
        return getattr(result, "unit_digest", None) == key.unit_digest
    return getattr(result, "config_digest", None) == key.config_digest


def _read_file(path: str) -> Optional[bytes]:
    """The bytes of the file at ``path``, or ``None`` if there is none.

    One ``read`` of the size ``fstat`` reports (an entry file is published
    whole and never rewritten in place, see :meth:`ResultStore.put`); the
    descriptor is closed on every path.  A read that came back short would
    fail to unpickle, so its entry would be recomputed, never served torn.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    except FileNotFoundError:
        return None
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


@dataclass
class StoreStats:
    """Hit/miss counters of one :class:`ResultStore`.

    ``corrupt`` counts the entries that :meth:`ResultStore.get`
    quarantined, unreadable or not the result their key names; each of
    them was also counted as a miss.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0


class ResultStore:
    """Caches :class:`~repro.experiments.study.StudyResult` objects.

    Parameters
    ----------
    root:
        Directory for the on-disk pickle cache (created on first write).
        ``None`` keeps the cache purely in memory -- useful for sharing
        results between studies of one process without touching disk.

    The store keeps one copy of each entry, the bytes :meth:`put` pickled:
    in its file under ``root``, or in memory for a memory-only store.
    Results served from the store are marked ``from_cache=True`` so callers
    (and the zero-activation acceptance check) can tell replays from fresh
    executions.
    """

    #: Name of the advisory lock file kept at the store root.
    LOCK_FILENAME = ".lock"
    #: Suffix appended to an unreadable entry's filename to quarantine it
    #: (the renamed file no longer matches the ``*.pkl`` entry glob).
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.stats = StoreStats()
        #: A memory-only store's entries: key -> the pickled bytes put made.
        self._memory: Dict[CacheKey, bytes] = {}
        #: Study name -> its entry directory as a string ending in a path
        #: separator, for :meth:`_entry_path`.
        self._study_dirs: Dict[str, str] = {}
        #: Studies whose entry directory this store has created; the root
        #: is created with the first of them.
        self._made_dirs: Set[str] = set()

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over the store root for mutating operations.

        Individual entry writes are already crash-safe (unique temp file +
        atomic rename), but several sessions (say, two ``python -m
        repro.service submit --store`` runs) can share one store directory;
        the ``flock`` on ``<root>/.lock`` serializes their mutations.  On
        platforms without ``fcntl`` the store falls back to the (still
        atomic-rename-safe) unlocked behaviour.
        """
        if self.root is None or fcntl is None:
            yield
            return
        with (self.root / self.LOCK_FILENAME).open("a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------
    def key_for(
        self,
        study: str,
        config_digest: str,
        chip: Optional[DramChip],
        unit: Optional[WorkUnit] = None,
    ) -> CacheKey:
        """Cache key for one study result (see :func:`cache_key`)."""
        return cache_key(study, config_digest, chip, unit)

    def _entry_path(self, key: CacheKey) -> str:
        """The file of ``key``'s entry under ``root``."""
        directory = self._study_dirs.get(key.study)
        if directory is None:
            directory = self._study_dirs[key.study] = os.path.join(self.root, key.study, "")
        return directory + key.filename

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[StudyResult]:
        """Fetch a cached result, or ``None`` on a miss.

        An entry is served only if it is the result its key names: a
        :class:`~repro.experiments.study.StudyResult` of the key's study and
        chip with the key's unit digest (unit entries) or config digest
        (whole-study entries).  An entry that fails that check, or cannot be
        unpickled at all -- a torn write, an empty file, damaged bytes, a
        pickle of a class the code no longer has, another unit's or another
        chip's entry, a foreign file -- is quarantined (a memory entry is
        dropped), counted in ``stats.corrupt`` and reported as a miss, so
        the caller recomputes the result and :meth:`put` rewrites it.

        Every hit is unpickled afresh from the entry's bytes, so it shares
        nothing with any other hit or with the result that was put: editing
        a hit, or a result after putting it, never changes what the next
        get of its key returns.
        """
        result = self._load(key)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        result.from_cache = True
        return result

    def _load(self, key: CacheKey) -> Optional[StudyResult]:
        """Read and verify one entry; ``None`` if absent or bad."""
        if self.root is None:
            path = None
            data = self._memory.get(key)
        else:
            path = self._entry_path(key)
            data = _read_file(path)
        if data is None:
            return None
        try:
            result = pickle.loads(data)
            valid = _is_entry_for(key, result)
        except Exception:
            # pickle on damaged bytes can raise almost anything
            # (UnicodeDecodeError, ValueError, TypeError, OverflowError,
            # MemoryError, ... besides UnpicklingError and EOFError), and
            # each of them means a corrupt entry, never a crash.
            valid = False
        if not valid:
            self._quarantine(key, path)
            return None
        return result

    def _quarantine(self, key: CacheKey, path: Optional[str]) -> None:
        """Take a bad entry out of service: rename its file out of the
        store's ``*.pkl`` namespace, or drop it from memory."""
        if path is None:
            del self._memory[key]
        else:
            with self._write_lock():
                # Another reader may have quarantined it first.
                with contextlib.suppress(FileNotFoundError):
                    os.replace(path, path + self.QUARANTINE_SUFFIX)
        self.stats.corrupt += 1

    def put(self, key: CacheKey, result: StudyResult) -> None:
        """Store a freshly executed result: its pickled bytes, on disk if
        rooted, else in memory."""
        data = pickle.dumps(dataclasses.replace(result, from_cache=False))
        if self.root is None:
            self._memory[key] = data
        else:
            path = Path(self._entry_path(key))
            if key.study not in self._made_dirs:
                if not self._made_dirs:
                    self.root.mkdir(parents=True, exist_ok=True)
                path.parent.mkdir(exist_ok=True)
                self._made_dirs.add(key.study)
            with self._write_lock():
                # Per-writer unique temp name: concurrent processes sharing
                # one store root each publish their own complete pickle
                # atomically even if the advisory lock is unavailable.
                tmp = path.with_name(
                    f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
                )
                try:
                    tmp.write_bytes(data)
                    tmp.replace(path)
                except BaseException:
                    # Cleanup must never mask the original exception: the
                    # temp file may never have been created, or be
                    # undeletable.
                    with contextlib.suppress(OSError):
                        tmp.unlink(missing_ok=True)
                    raise
        self.stats.puts += 1

    def entry_paths(self, study: Optional[str] = None, units_only: bool = False) -> list:
        """Sorted on-disk cache files, optionally restricted to one study.

        ``units_only`` keeps only per-unit entries (shards of decomposed
        studies), whose filenames carry a unit-digest suffix.  Memory-only
        stores have no entry paths.
        """
        if self.root is None or not self.root.exists():
            return []
        pattern = f"{study}/*.pkl" if study is not None else "*/*.pkl"
        paths = sorted(self.root.glob(pattern))
        if units_only:
            # Unit entries are "<chip>-u<unit>.pkl"; digests are hex, so a
            # final dash-separated segment starting with "u" is unambiguous.
            paths = [
                path for path in paths if path.stem.rsplit("-", 1)[-1].startswith("u")
            ]
        return paths

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        where = str(self.root) if self.root is not None else "memory"
        return f"ResultStore({where!r}, hits={self.stats.hits}, misses={self.stats.misses})"
