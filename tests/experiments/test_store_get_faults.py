"""ResultStore.get fault paths: a corrupt entry becomes a recomputed miss.

Each kind of damage to one unit entry of a complete Figure 10 cache -- a
torn write, a zero-byte file, bytes that are no pickle, a pickle of a
class or module that no longer exists, a pickle that is no study result,
damaged bytes whose unpickling raises any other exception, and another
unit's or another chip's entry under this entry's filename -- must
re-execute exactly that unit, merge to the payload of the clean run,
quarantine the damaged file out of the ``*.pkl`` namespace and count it in
``StoreStats.corrupt``.  ``put`` then rewrites the entry, so the next run
replays every unit.  A property test damages random bytes of a real entry
and checks that ``get`` never raises.  A caller that mutates a hit does not
damage the next get of its key either, and a memory-only store checks its
entries the same way.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
import pickletools
import shutil
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.core.first_flip import HCFirstStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import flatten_population, make_population
from repro.experiments import CacheKey, ExperimentSession, ResultStore, StudyResult, get_study
from repro.experiments.study import config_digest

TINY_FIG10 = MitigationStudyConfig(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)


class Vanished:
    """Payload class deleted before the entry holding it is read back."""


def torn_write(path, _monkeypatch):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def zero_bytes(path, _monkeypatch):
    path.write_bytes(b"")


def removed_class(path, monkeypatch):
    result = pickle.loads(path.read_bytes())
    path.write_bytes(pickle.dumps(dataclasses.replace(result, payload=Vanished())))
    monkeypatch.delattr(sys.modules[__name__], "Vanished")


def removed_module(path, monkeypatch):
    """A pickle whose payload class lives in a module that is gone."""
    module = types.ModuleType("repro_removed_payload_module")

    class Payload:
        pass

    Payload.__module__ = module.__name__
    Payload.__qualname__ = "Payload"
    module.Payload = Payload
    monkeypatch.setitem(sys.modules, module.__name__, module)
    result = pickle.loads(path.read_bytes())
    path.write_bytes(pickle.dumps(dataclasses.replace(result, payload=Payload())))
    monkeypatch.delitem(sys.modules, module.__name__)


def not_a_pickle(path, _monkeypatch):
    path.write_bytes(b"not a pickle at all")


def not_a_study_result(path, _monkeypatch):
    """A stale or foreign pickle in the ``*.pkl`` namespace."""
    path.write_bytes(pickle.dumps({"study": "fig10-mitigations", "payload": None}))


def opcode_position(path, name):
    """Byte offset of the first ``name`` opcode of the pickle in ``path``."""
    return next(
        pos
        for op, arg, pos in pickletools.genops(path.read_bytes())
        if op.name == name and arg != ""
    )


def damage_bytes(path, position, replacement, raised):
    """Overwrite bytes of an entry, checking that unpickling now raises ``raised``."""
    data = bytearray(path.read_bytes())
    data[position : position + len(replacement)] = replacement
    path.write_bytes(bytes(data))
    with open(path, "rb") as handle, pytest.raises(raised):
        pickle.load(handle)


def invalid_utf8(path, _monkeypatch):
    """A string's first byte is no UTF-8 start byte."""
    position = opcode_position(path, "SHORT_BINUNICODE") + 2
    damage_bytes(path, position, b"\xff", UnicodeDecodeError)


def unsupported_protocol(path, _monkeypatch):
    """The PROTO opcode names protocol 252."""
    damage_bytes(path, opcode_position(path, "PROTO") + 1, bytes([252]), ValueError)


def dict_turned_list(path, _monkeypatch):
    """An EMPTY_DICT opcode turned EMPTY_LIST, which then gets string keys."""
    damage_bytes(path, opcode_position(path, "EMPTY_DICT"), b"]", TypeError)


def frame_length_overflow(path, _monkeypatch):
    """A FRAME length beyond ``sys.maxsize``."""
    position = opcode_position(path, "FRAME") + 1
    damage_bytes(path, position, b"\xff" * 8, OverflowError)


def frame_length_unallocatable(path, _monkeypatch):
    """A FRAME length of 2**62 bytes, which reading the frame cannot allocate.

    An unpickler that reads large frames in chunks reports the truncated
    data instead of allocating, so either error counts.
    """
    position = opcode_position(path, "FRAME") + 1
    length = (2**62).to_bytes(8, "little")
    damage_bytes(path, position, length, (MemoryError, pickle.UnpicklingError))


def run(store, config=TINY_FIG10):
    return ExperimentSession(store=store).run("fig10-mitigations", config)


def points_of(outcome):
    return outcome.single().points


@pytest.mark.parametrize(
    "damage",
    [
        torn_write,
        zero_bytes,
        removed_class,
        removed_module,
        not_a_pickle,
        not_a_study_result,
        invalid_utf8,
        unsupported_protocol,
        dict_turned_list,
        frame_length_overflow,
        frame_length_unallocatable,
    ],
)
def test_corrupt_entry_is_quarantined_and_recomputed(tmp_path, monkeypatch, damage):
    root = tmp_path / "store"
    clean = run(ResultStore(root))
    store = ResultStore(root)
    victim = store.entry_paths("fig10-mitigations", units_only=True)[1]
    damage(victim, monkeypatch)

    rerun = run(store)
    assert rerun.executed == 1
    assert rerun.cache_hits == clean.units_total - 1
    assert points_of(rerun) == points_of(clean)
    assert store.stats.corrupt == 1
    assert store.stats.misses == 1
    assert victim.with_name(victim.name + ResultStore.QUARANTINE_SUFFIX).exists()

    healthy = ResultStore(root)
    replay = run(healthy)
    assert replay.executed == 0
    assert healthy.stats.hits == clean.units_total
    assert healthy.stats.corrupt == 0
    assert points_of(replay) == points_of(clean)


def test_entry_of_another_unit_is_quarantined_and_recomputed(tmp_path):
    """A unit entry is served only under its own unit's key."""
    config = dataclasses.replace(TINY_FIG10, hcfirst_values=(2_000, 64), num_mixes=2)
    root = tmp_path / "store"
    clean = run(ResultStore(root), config)
    assert clean.units_total == 10
    store = ResultStore(root)
    units = {unit.unit_id: unit for unit in get_study("fig10-mitigations").units_for(config)}

    def entry(unit_id):
        key = store.key_for("fig10-mitigations", config_digest(config), None, units[unit_id])
        return root / key.study / key.filename

    victim = entry("cell/PARA/hc2000/mix00")
    shutil.copyfile(entry("cell/PARA/hc64/mix01"), victim)

    rerun = run(store, config)
    assert rerun.executed == 1
    assert points_of(rerun) == points_of(clean)
    assert store.stats.corrupt == 1
    assert victim.with_name(victim.name + ResultStore.QUARANTINE_SUFFIX).exists()
    healthy = ResultStore(root)
    assert run(healthy, config).executed == 0
    assert healthy.stats.corrupt == 0


def test_entry_of_another_chip_is_quarantined_and_recomputed(tmp_path):
    """A chip's entry is served only under its own chip's key."""

    def chips():
        """DDR4-new-A-1 and DDR4-new-A-2."""
        population = make_population(
            chips_per_config=3,
            seed=1,
            geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16),
            configurations=[("DDR4-new", "A")],
        )
        return flatten_population(population)[1:]

    config = HCFirstStudyConfig()
    root = tmp_path / "store"
    clean = ExperimentSession(chips(), store=ResultStore(root)).run("fig8-hcfirst", config)
    assert clean.results[0].payload != clean.results[1].payload
    store = ResultStore(root)

    def entry(chip):
        key = store.key_for("fig8-hcfirst", config_digest(config), chip, None)
        return root / key.study / key.filename

    first, second = chips()
    shutil.copyfile(entry(second), entry(first))

    rerun = ExperimentSession(chips(), store=store).run("fig8-hcfirst", config)
    assert (rerun.executed, rerun.cache_hits) == (1, 1)
    assert (store.stats.corrupt, store.stats.misses) == (1, 1)
    assert rerun.results == clean.results
    assert entry(first).with_name(entry(first).name + ResultStore.QUARANTINE_SUFFIX).exists()


def envelope(key, payload="clean"):
    return StudyResult(
        study=key.study,
        config_digest=key.config_digest,
        chip_id=None,
        type_node=None,
        manufacturer=None,
        payload=payload,
    )


def test_whole_study_entry_is_served_only_under_its_config_digest(tmp_path):
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    edited = dataclasses.replace(key, config_digest="c1")
    ResultStore(tmp_path).put(key, envelope(key))
    shutil.copyfile(tmp_path / key.study / key.filename, tmp_path / key.study / edited.filename)
    store = ResultStore(tmp_path)
    assert store.get(edited) is None
    assert (store.stats.misses, store.stats.corrupt) == (1, 1)
    assert store.get(key).payload == "clean"


def test_whole_study_envelope_without_unit_fields_still_hits(tmp_path):
    """Envelopes written before the unit layer lack its fields entirely."""
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    old = envelope(key, payload="old")
    for name in ("unit_id", "unit_digest", "units_total", "units_from_cache"):
        del old.__dict__[name]
    (tmp_path / key.study).mkdir()
    (tmp_path / key.study / key.filename).write_bytes(pickle.dumps(old))
    cached = ResultStore(tmp_path).get(key)
    assert cached is not None and cached.payload == "old" and cached.from_cache


def test_memory_only_store_drops_an_entry_that_is_not_its_keys_result():
    """A memory entry gets the same identity check as a file: one put under
    another config's key is dropped, counted once as corrupt, then missed."""
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    edited = dataclasses.replace(key, config_digest="c1")
    store = ResultStore()
    store.put(edited, envelope(key))
    assert store.get(edited) is None
    assert store.get(edited) is None
    assert (store.stats.misses, store.stats.corrupt) == (2, 1)


def test_second_reader_of_a_quarantined_entry_sees_a_plain_miss(tmp_path):
    """Readers sharing a store: only the first one counts the damage."""
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    ResultStore(tmp_path).put(key, envelope(key))
    (tmp_path / key.study / key.filename).write_bytes(b"")
    first, second = ResultStore(tmp_path), ResultStore(tmp_path)
    assert first.get(key) is None
    assert second.get(key) is None
    assert (first.stats.misses, first.stats.corrupt) == (1, 1)
    assert (second.stats.misses, second.stats.corrupt) == (1, 0)


def test_mutating_a_hit_leaves_the_next_get_unchanged(tmp_path):
    """Every get hands out the caller's own envelope, unpickled afresh from
    the entry's bytes, whether this store or another one put it."""
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    clean = envelope(key, payload=["clean"])
    writer = ResultStore(tmp_path)
    writer.put(key, clean)
    for store in (ResultStore(tmp_path), writer):
        hit = store.get(key)
        hit.payload, hit.config_digest, hit.from_cache = "mutated", "c1", False
        again = store.get(key)
        assert again == clean and again.from_cache
    reader = ResultStore(tmp_path)
    reader.get(key).payload.append("mutated")
    assert reader.get(key).payload == ["clean"]
    assert (reader.stats.hits, reader.stats.misses, reader.stats.corrupt) == (2, 0, 0)


@functools.lru_cache(maxsize=None)
def real_entry():
    """The key and the bytes of one unit entry of a tiny Figure 10 run."""
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        run(store)
        unit = get_study("fig10-mitigations").units_for(TINY_FIG10)[0]
        key = store.key_for("fig10-mitigations", config_digest(TINY_FIG10), None, unit)
        return key, Path(root, key.study, key.filename).read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    changes=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        min_size=1,
        max_size=4,
    )
)
def test_damaged_entry_never_raises(changes):
    """XOR-damaging 1 to 4 bytes of a real entry yields a hit or a quarantined miss."""
    key, data = real_entry()
    damaged = bytearray(data)
    for position, mask in changes:
        damaged[position % len(damaged)] ^= mask
    with tempfile.TemporaryDirectory() as root:
        path = Path(root, key.study, key.filename)
        path.parent.mkdir()
        path.write_bytes(bytes(damaged))
        store = ResultStore(root)
        hit = store.get(key)
        quarantined = path.with_name(path.name + ResultStore.QUARANTINE_SUFFIX).exists()
        assert (hit is None) == quarantined == (store.stats.corrupt == 1)
