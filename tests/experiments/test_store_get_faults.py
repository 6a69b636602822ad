"""ResultStore.get fault paths: a corrupt entry becomes a recomputed miss.

Each kind of damage to one unit entry of a complete Figure 10 cache -- a
torn write, a zero-byte file, bytes that are no pickle, and a pickle of a
class or module that no longer exists -- must re-execute exactly that
unit, merge to the payload of the clean run, quarantine the damaged file
out of the ``*.pkl`` namespace and count it in ``StoreStats.corrupt``.
``put`` then rewrites the entry, so the next run replays every unit.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import types

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.experiments import CacheKey, ExperimentSession, ResultStore, StudyResult

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


def run(store):
    return ExperimentSession(store=store, seed=3).run("fig10-mitigations", TINY_FIG10)


def points_of(outcome):
    return [point.to_dict() for point in outcome.single().points]


@pytest.mark.parametrize(
    "damage", [torn_write, zero_bytes, removed_class, removed_module, not_a_pickle]
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


def test_second_reader_of_a_quarantined_entry_sees_a_plain_miss(tmp_path):
    """Readers sharing a store: only the first one counts the damage."""
    key = CacheKey(study="store-faults", config_digest="c0", chip_digest="population")
    ResultStore(tmp_path).put(
        key,
        StudyResult(
            study=key.study,
            config_digest=key.config_digest,
            chip_id=None,
            type_node=None,
            manufacturer=None,
            seed=None,
            payload="clean",
        ),
    )
    (tmp_path / key.study / key.filename).write_bytes(b"")
    first, second = ResultStore(tmp_path), ResultStore(tmp_path)
    assert first.get(key) is None
    assert second.get(key) is None
    assert (first.stats.misses, first.stats.corrupt) == (1, 1)
    assert (second.stats.misses, second.stats.corrupt) == (1, 0)
