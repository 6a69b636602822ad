"""Disk-backed cache of work-unit results keyed by everything that determines them.

For a pristine chip (one never written to or hammered outside a session --
see :attr:`repro.dram.chip.DramChip.is_pristine`), a study result is a pure
function of (study name, config, chip construction parameters), because
sessions execute studies hermetically against a copy of the chip (see
:mod:`repro.experiments.executors`) and the copies of a pristine chip are
themselves pristine.  Sessions bypass the store for non-pristine chips.  The
:class:`ResultStore` exploits that: results are stored on disk keyed by a
digest of (profile, geometry, seed, HC_first target, remapper) and the work
unit's digest, so benchmarks that share a chip population -- for example
Table 4 and Figure 8, or Table 2's DDR3 subset -- stop recomputing each
other's work, across processes and across runs.

Every entry is one work unit's result on one chip: a
:class:`~repro.experiments.executors.TaskOutcome`.  An undecomposed study
runs as one implicit unit that carries its config, so its unit digest
covers every config field; a decomposed study's units each embed the config
fields they depend on.  So a sweep killed halfway resumes from its
completed units, and editing one axis of a config invalidates only the
entries whose unit parameters changed.

Entry format
------------
Each entry is one file, ``<root>/<study>/<CacheKey.filename>``, and every
key has one shape: ``<chip digest>-u<unit digest>.pkl``.  Format 3 lays an
entry out as a fixed 18-byte header, little-endian, then a body:

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
18      ...    body: a pickle (protocol 5) of the tuple ``(study, chip id,
               unit digest, payload)``
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
* **Corrupt** (renamed to ``*.corrupt`` and counted in
  :attr:`StoreStats.corrupt`): any other magic, a file shorter than the
  header (an empty or torn file), a CRC mismatch, a body that fails to
  unpickle, and a body that is not the result its key names (another
  study's, chip's or unit's entry).

Either way the caller recomputes the result and ``put`` rewrites the entry.

Upgrading
---------
A store written before format 3 holds only stale entries under the keys it
still uses: the unit entries of decomposed studies keep their filenames,
and its first session recomputes and rewrites every one it reads, once,
and reports no corrupt ones.  An undecomposed study's entries were named
``<config digest>-<chip digest>.pkl`` before format 3; no key names such a
file any more, so the study recomputes under its new key and the old file
sits unread until the directory is cleaned.  An older checkout that shares
a store with this one reads each format-3 entry as an entry of another
format, a stale miss, and rewrites it in its own format (before format 2,
a checkout quarantines it), so share a store only between checkouts of one
format.  Bump :data:`FORMAT_VERSION` with any change to this layout or to
the body's fields.
"""

from __future__ import annotations

import contextlib
import hashlib
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
from repro.experiments.executors import TaskOutcome
from repro.experiments.study import _REGISTRY, WorkUnit

#: Version of the entry layout described in the module docstring.
FORMAT_VERSION = 3
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


@dataclass(frozen=True)
class CacheKey:
    """Identity of one work unit's cached result on one chip.

    Keys carry no config digest: a work unit's parameters embed every config
    field its payload depends on (see
    :class:`~repro.experiments.study.WorkUnit`; an undecomposed study's
    implicit unit embeds the whole config), so ``unit_digest`` *is* the
    unit's config scope -- which is what lets an edited config replay every
    unit it did not touch.

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
    chip_digest: str
    unit_digest: str
    chip_id: Optional[str] = None

    @property
    def filename(self) -> str:
        return f"{self.chip_digest}-u{self.unit_digest}.pkl"


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


def cache_key(study: str, chip: Optional[DramChip], unit: WorkUnit) -> CacheKey:
    """Cache key for one work unit's result on ``chip`` (``None`` for a
    population-level study).

    The one keying rule of every store, used through
    :meth:`ResultStore.key_for`.  The unit's digest embeds its config scope,
    so two configs sharing a grid cell share its cache entry.
    """
    return CacheKey(
        study=study,
        chip_digest=chip_digest(chip),
        unit_digest=unit.digest,
        chip_id=chip.chip_id if chip is not None else None,
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


def _encode(key: CacheKey, outcome: TaskOutcome) -> bytes:
    """The bytes of ``outcome``'s entry under ``key`` (see the module docstring)."""
    versions = _model_versions(key.study)
    body = pickle.dumps(
        (outcome.study, outcome.chip_id, outcome.unit_digest, outcome.payload),
        protocol=_PICKLE_PROTOCOL,
    )
    crc = zlib.crc32(body, zlib.crc32(_VERSIONS.pack(FORMAT_VERSION, *versions), _MAGIC_CRC))
    return _HEADER.pack(_MAGIC, crc, FORMAT_VERSION, *versions) + body


def _decode(key: CacheKey, data: bytes) -> Optional[TaskOutcome]:
    """The outcome an entry holds, if it is the outcome ``key`` names.

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
    identity = (key.study, key.chip_id, key.unit_digest)
    if type(body) is not tuple or len(body) != 4 or body[:3] != identity:
        raise ValueError("not the result of the unit and chip its key names")
    return TaskOutcome(key.study, key.unit_digest, key.chip_id, body[3])


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
    """Caches work units' results, :class:`~repro.experiments.executors.TaskOutcome`
    objects, in files under ``root``.

    Parameters
    ----------
    root:
        Directory for the on-disk cache (created on first write).  A
        temporary directory suits results shared only within one process.

    The store keeps one copy of each entry, the format-3 bytes :meth:`put`
    encoded in its file under ``root`` (see the module docstring).
    """

    #: Name of the advisory lock file kept at the store root.
    LOCK_FILENAME = ".lock"
    #: Suffix appended to an unreadable entry's filename to quarantine it
    #: (the renamed file no longer matches the ``*.pkl`` entry glob).
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
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
        if fcntl is None:
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
    def key_for(self, study: str, chip: Optional[DramChip], unit: WorkUnit) -> CacheKey:
        """Cache key for one work unit's result (see :func:`cache_key`)."""
        return cache_key(study, chip, unit)

    def _entry_path(self, key: CacheKey) -> str:
        """The file of ``key``'s entry under ``root``."""
        directory = self._study_dirs.get(key.study)
        if directory is None:
            directory = self._study_dirs[key.study] = os.path.join(self.root, key.study, "")
        return directory + key.filename

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[TaskOutcome]:
        """Fetch a cached outcome, or ``None`` on a miss.

        An entry is served only when every check of the module docstring's
        read rules passes: its magic, its CRC, its format version, the
        study's and the chip model's versions, and its identity -- the
        result of the key's study, chip and unit.  A stale entry (written
        before format 2, or intact at another format or model version) is
        counted in ``stats.stale`` and left for :meth:`put` to overwrite.
        Any other failing entry -- a torn write, an empty file, damaged
        bytes, a pickle of a class the code no longer has, another unit's or
        another chip's entry, a foreign file -- is quarantined and counted
        in ``stats.corrupt``.  Either is reported as a miss, so the caller
        recomputes the result and :meth:`put` rewrites it.

        A hit carries the entry's identity and payload; it has no execution
        behind it, so it reports zero seconds and no chip stats.  Every hit
        is unpickled afresh from the entry's bytes, so it shares nothing
        with any other hit or with the outcome that was put: editing a hit,
        or an outcome after putting it, never changes what the next get of
        its key returns.
        """
        outcome = self._load(key)
        if outcome is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return outcome

    def _load(self, key: CacheKey) -> Optional[TaskOutcome]:
        """Read and verify one entry; ``None`` if absent or bad."""
        path = self._entry_path(key)
        data = _read_file(path)
        if data is None:
            return None
        try:
            outcome = _decode(key, data)
        except Exception:
            # pickle on damaged bytes can raise almost anything
            # (UnicodeDecodeError, ValueError, TypeError, OverflowError,
            # MemoryError, ... besides UnpicklingError and EOFError), and
            # each of them means a corrupt entry, never a crash.
            self._quarantine(path)
            return None
        if outcome is None:
            self.stats.stale += 1
        return outcome

    def _quarantine(self, path: str) -> None:
        """Take a bad entry out of service: rename its file out of the
        store's ``*.pkl`` namespace."""
        with self._write_lock():
            # Another reader may have quarantined it first.
            with contextlib.suppress(FileNotFoundError):
                os.replace(path, path + self.QUARANTINE_SUFFIX)
        self.stats.corrupt += 1

    def put(self, key: CacheKey, outcome: TaskOutcome) -> None:
        """Store a freshly executed outcome: its entry bytes (see the module
        docstring) in the key's file, replacing any stale or missing entry
        there."""
        data = _encode(key, outcome)
        path = Path(self._entry_path(key))
        if key.study not in self._made_dirs:
            if not self._made_dirs:
                self.root.mkdir(parents=True, exist_ok=True)
            path.parent.mkdir(exist_ok=True)
            self._made_dirs.add(key.study)
        with self._write_lock():
            # Per-writer unique temp name: concurrent processes sharing one
            # store root each publish their own complete entry atomically
            # even if the advisory lock is unavailable.
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
            try:
                tmp.write_bytes(data)
                tmp.replace(path)
            except BaseException:
                # Cleanup must never mask the original exception: the temp
                # file may never have been created, or be undeletable.
                with contextlib.suppress(OSError):
                    tmp.unlink(missing_ok=True)
                raise
        self.stats.puts += 1

    def entry_paths(self, study: Optional[str] = None) -> list:
        """Sorted on-disk cache files, optionally restricted to one study."""
        if not self.root.exists():
            return []
        pattern = f"{study}/*.pkl" if study is not None else "*/*.pkl"
        return sorted(self.root.glob(pattern))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats
        return (
            f"ResultStore({str(self.root)!r}, hits={stats.hits}, misses={stats.misses}, "
            f"stale={stats.stale}, corrupt={stats.corrupt})"
        )
