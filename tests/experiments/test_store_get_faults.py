"""ResultStore.get fault paths: a corrupt entry becomes a recomputed miss.

Each kind of damage to one unit entry of a complete Figure 10 cache -- a
torn write, a zero-byte file, bytes that are no pickle, a pickle of a
class or module that no longer exists, a pickle that is no study result,
and another unit's entry under this unit's filename -- must re-execute
exactly that unit, merge to the payload of the clean run, quarantine the
damaged file out of the ``*.pkl`` namespace and count it in
``StoreStats.corrupt``.  ``put`` then rewrites the entry, so the next run
replays every unit.
"""

from __future__ import annotations

import dataclasses
import pickle
import shutil
import sys
import types

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig
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


def run(store, config=TINY_FIG10):
    return ExperimentSession(store=store).run("fig10-mitigations", config)


def points_of(outcome):
    return outcome.single().points


@pytest.mark.parametrize(
    "damage",
    [torn_write, zero_bytes, removed_class, removed_module, not_a_pickle, not_a_study_result],
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
    store.stats.reset()
    assert store.stats.corrupt == 0

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
