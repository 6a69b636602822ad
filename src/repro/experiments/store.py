"""Disk-backed cache of study results keyed by everything that determines them.

For a pristine chip (one never written to or hammered outside a session --
see :attr:`repro.dram.chip.DramChip.is_pristine`), a study result is a pure
function of (study name, config, chip construction parameters), because
sessions execute studies hermetically against a copy of the chip (see
:mod:`repro.experiments.executors`) and the copies of a pristine chip are
themselves pristine.  Sessions bypass the store for non-pristine chips.  The
:class:`ResultStore` exploits that: results are stored on disk keyed by a
digest of (study name, config digest, profile, geometry, seed, HC_first
target, remapper), so benchmarks that share a chip population -- for
example Table 4 and Figure 8, or Table 2's DDR3 subset -- stop recomputing
each other's work, across processes and across runs.

Decomposed studies are cached at *work-unit* granularity: every shard of
the grid gets its own entry (the key gains the unit's digest), so a sweep
killed halfway resumes from its completed units, and editing one axis of a
config invalidates only the entries whose unit parameters changed.

Entry format
------------
Each entry is one file, ``<root>/<study>/<CacheKey.filename>`` (a
memory-only store keeps the same bytes in a dict).  Format 2 lays it out as
a fixed 18-byte header, little-endian, then a body:

======  =====  ==========================================================
offset  bytes  field
======  =====  ==========================================================
0       4      magic ``b"RHSE"``
4       4      CRC32 of every byte of the entry except these four
8       2      format version, :data:`FORMAT_VERSION`
10      4      the study's model version (``register_study(model_version=)``)
14      4      the chip model's version,
               :data:`repro.dram.columnar.CHIP_MODEL_VERSION`, for a study
               that runs per chip; 0 for a population-level study
18      ...    body: a pickle (protocol 5) of the tuple of the
               :class:`~repro.experiments.study.StudyResult`'s fields in
               declaration order, all but ``from_cache``
======  =====  ==========================================================

The magic, the CRC and the format version keep their offsets in every
format, so any later format can tell an intact entry of another format
from a damaged one.  The versions a lookup expects come from the study
registry as it stands: a lookup imports nothing, and a key of a study that
is not registered expects (and :meth:`ResultStore.put` writes) version 0
for both.  Neither version is part of the key, so keys and filenames do not
move when one does.

Read rules
----------
:meth:`ResultStore.get` serves an entry only when every check passes, in
this order, and anything else is a miss:

* **Stale** (counted in :attr:`StoreStats.stale`, left in place for the
  recompute's :meth:`~ResultStore.put` to overwrite): an entry whose first
  byte is pickle's ``PROTO`` opcode (0x80), which opens every entry written
  before format 2, and an intact entry -- magic and CRC good -- of another
  format version or model version.
* **Corrupt** (renamed to ``*.corrupt``, or dropped from memory, and counted
  in :attr:`StoreStats.corrupt`): any other magic, a file shorter than the
  header (an empty or torn file), a CRC mismatch, a body that fails to
  unpickle, and a body that is not the result its key names (another
  study's, chip's or unit's entry, or another config's whole-study entry).

Either way the caller recomputes the result and ``put`` rewrites the entry.

Upgrading
---------
A store written before format 2 holds only stale entries: its first session
recomputes and rewrites every entry it reads, once, and reports no corrupt
ones.  An older checkout that shares a store with this one reads each
format-2 entry as a foreign file and quarantines it (then rewrites it in
its own format), so share a store only between checkouts of one format.
Bump :data:`FORMAT_VERSION` with any change to this layout or to the body's
fields.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import operator
import os
import pickle
import struct
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple, Union

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.dram import columnar
from repro.dram.chip import DramChip
from repro.experiments.study import _REGISTRY, StudyResult, WorkUnit

#: Version of the entry layout described in the module docstring.
FORMAT_VERSION = 2
#: First four bytes of every entry; its first byte is not pickle's 0x80.
_MAGIC = b"RHSE"
#: The header: magic, CRC32, format version, study and chip model versions.
_HEADER = struct.Struct("<4sIHII")
#: The header after its CRC, from ``_CRC_END`` on: the CRC covers the
#: magic, then every byte from there to the end of the entry.
_VERSIONS = struct.Struct("<HII")
_CRC_END = 8
#: Every entry's CRC starts from its magic's, which is always the same.
_MAGIC_CRC = zlib.crc32(_MAGIC)
#: Pinned so every supported interpreter writes the same bytes.
_PICKLE_PROTOCOL = 5

_FIELDS = [field.name for field in dataclasses.fields(StudyResult)]
#: Where a hit's ``from_cache=True`` goes back among the body's fields,
#: which are all of a result's fields but that one, in declaration order.
_FROM_CACHE = _FIELDS.index("from_cache")
_body_of = operator.attrgetter(*_FIELDS[:_FROM_CACHE], *_FIELDS[_FROM_CACHE + 1 :])
_BODY_LENGTH = len(_FIELDS) - 1


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached study result.

    ``unit_digest`` distinguishes the shards of a decomposed study; the
    empty string means a whole-study result, whose filename matches the
    pre-unit-layer layout.  Unit entries carry no config digest: a work
    unit's parameters must embed every config field its payload depends on
    (see :class:`~repro.experiments.study.WorkUnit`), so its digest *is* its
    config scope -- which is what lets an edited config replay every unit
    it did not touch.

    ``chip_id`` is the id of the chip the result belongs to (``None`` for
    population-level studies).  It is not part of :attr:`filename`, which
    ``chip_digest`` already pins; :meth:`ResultStore.get` checks it against
    the entry it reads.

    The study's and the chip model's versions are not part of the key
    either: an entry's header records them and :meth:`ResultStore.get`
    checks them, so a version bump leaves every key and filename (and the
    key pins) where they were and turns the study's entries stale instead.
    A key may name a study that is not registered (tests build such keys
    directly); its entries record version 0 for both.
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


def _model_versions(study: str) -> Tuple[int, int]:
    """The (study, chip model) versions an entry of ``study`` must record.

    Read from the registry as it stands, so a lookup imports nothing; a
    study not registered in this process gets (0, 0).
    """
    spec = _REGISTRY.get(study)
    if spec is None:
        return 0, 0
    return spec.model_version, columnar.CHIP_MODEL_VERSION if spec.requires_chip else 0


def _encode(key: CacheKey, result: StudyResult) -> bytes:
    """The bytes of ``result``'s entry under ``key`` (see the module docstring)."""
    versions = _model_versions(key.study)
    body = pickle.dumps(_body_of(result), protocol=_PICKLE_PROTOCOL)
    crc = zlib.crc32(body, zlib.crc32(_VERSIONS.pack(FORMAT_VERSION, *versions), _MAGIC_CRC))
    return _HEADER.pack(_MAGIC, crc, FORMAT_VERSION, *versions) + body


def _decode(key: CacheKey, data: bytes) -> Optional[StudyResult]:
    """The result an entry holds, if it is the result ``key`` names.

    Returns ``None`` for a stale entry and raises for a corrupt one (see the
    module docstring's read rules).
    """
    if data[:4] != _MAGIC:
        if data[:1] == b"\x80":
            return None  # written before format 2
        raise ValueError("not a result store entry")
    # A file shorter than the header raises struct.error here.
    _, crc, *versions = _HEADER.unpack_from(data)
    if zlib.crc32(data[_CRC_END:], _MAGIC_CRC) != crc:
        raise ValueError("CRC mismatch")
    if versions != [FORMAT_VERSION, *_model_versions(key.study)]:
        return None
    body = pickle.loads(data[_HEADER.size :])
    if type(body) is not tuple or len(body) != _BODY_LENGTH:
        raise ValueError("the body is not a result's fields")
    result = StudyResult(*body[:_FROM_CACHE], True, *body[_FROM_CACHE:])
    if result.study != key.study or result.chip_id != key.chip_id:
        raise ValueError("another study's or chip's result")
    if key.unit_digest:
        if result.unit_digest != key.unit_digest:
            raise ValueError("another unit's result")
    elif result.config_digest != key.config_digest:
        raise ValueError("another config's result")
    return result


def _read_file(path: str) -> Optional[bytes]:
    """The bytes of the file at ``path``, or ``None`` if there is none.

    One ``read`` of the size ``fstat`` reports (an entry file is published
    whole and never rewritten in place, see :meth:`ResultStore.put`); the
    descriptor is closed on every path.  A read that came back short would
    fail its CRC, so its entry would be recomputed, never served torn.
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
    quarantined, damaged or not the result their key names; ``stale``
    counts the entries it left for a rewrite, written before format 2 or at
    another format or model version (see the module docstring's read
    rules).  Each of them was also counted as a miss.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    stale: int = 0


class ResultStore:
    """Caches :class:`~repro.experiments.study.StudyResult` objects.

    Parameters
    ----------
    root:
        Directory for the on-disk cache (created on first write).
        ``None`` keeps the cache purely in memory -- useful for sharing
        results between studies of one process without touching disk.

    The store keeps one copy of each entry, the format-2 bytes :meth:`put`
    encoded (see the module docstring): in its file under ``root``, or in
    memory for a memory-only store.  Results served from the store are
    marked ``from_cache=True`` so callers (and the zero-activation
    acceptance check) can tell replays from fresh executions.
    """

    #: Name of the advisory lock file kept at the store root.
    LOCK_FILENAME = ".lock"
    #: Suffix appended to an unreadable entry's filename to quarantine it
    #: (the renamed file no longer matches the ``*.pkl`` entry glob).
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.stats = StoreStats()
        #: A memory-only store's entries: key -> the entry bytes put made.
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

        An entry is served only when every check of the module docstring's
        read rules passes: its magic, its CRC, its format version, the
        study's and the chip model's versions, and its identity -- a
        :class:`~repro.experiments.study.StudyResult` of the key's study
        and chip with the key's unit digest (unit entries) or config digest
        (whole-study entries).  A stale entry (written before format 2, or
        intact at another format or model version) is counted in
        ``stats.stale`` and left for :meth:`put` to overwrite.  Any other
        failing entry -- a torn write, an empty file, damaged bytes, a
        pickle of a class the code no longer has, another unit's or another
        chip's entry, a foreign file -- is quarantined (a memory entry is
        dropped) and counted in ``stats.corrupt``.  Either is reported as a
        miss, so the caller recomputes the result and :meth:`put` rewrites
        it.

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
            result = _decode(key, data)
        except Exception:
            # pickle on damaged bytes can raise almost anything
            # (UnicodeDecodeError, ValueError, TypeError, OverflowError,
            # MemoryError, ... besides UnpicklingError and EOFError), and
            # each of them means a corrupt entry, never a crash.
            self._quarantine(key, path)
            return None
        if result is None:
            self.stats.stale += 1
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
        """Store a freshly executed result: its entry bytes (see the module
        docstring), on disk if rooted, else in memory.  The entry replaces
        any stale or missing one at the key's path."""
        data = _encode(key, result)
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
                # one store root each publish their own complete entry
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
        stats = self.stats
        return (
            f"ResultStore({where!r}, hits={stats.hits}, misses={stats.misses}, "
            f"stale={stats.stale}, corrupt={stats.corrupt})"
        )
