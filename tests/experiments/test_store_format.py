"""Store format 2: the exact bytes of an entry, and the versions it records.

:data:`STORE_ENTRY_DIGEST` hashes the bytes :meth:`ResultStore.put` writes
for one fixed result, so every interpreter the suite runs on must write the
same format (header, pinned pickle protocol, field order of the body).  A
moved pin means every existing store refills: bump
:data:`repro.experiments.store.FORMAT_VERSION` with the change that moves
it, and never re-record it to make a change pass.

The version tests fill a tiny Figure 10 store and a Figure 8 store under
one root, then bump one version: the Figure 10 study's re-executes exactly
its units, the chip model's exactly the chip study's, each as stale misses
with no corrupt entry, and the other study replays every unit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
import zlib

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.core.first_flip import HCFirstStudyConfig
from repro.dram import columnar
from repro.dram.geometry import ChipGeometry
from repro.dram.population import flatten_population, make_population
from repro.experiments import CacheKey, ExperimentSession, ResultStore, StudyResult, get_study
from repro.experiments.store import FORMAT_VERSION
from repro.experiments.study import _REGISTRY, register_study, unregister_study

#: First 16 hex digits of the sha256 of the entry :func:`pinned_entry` puts.
STORE_ENTRY_DIGEST = "a585fcd746a90260"

PIN_STUDY = "store-format-pin"
PIN_KEY = CacheKey(
    study=PIN_STUDY,
    config_digest="",
    chip_digest="0f1e2d3c4b5a6978",
    unit_digest="0123456789abcdef",
    chip_id="DDR4-new-A-0",
)
PIN_RESULT = StudyResult(
    study=PIN_STUDY,
    config_digest="c0ffee0123456789",
    chip_id="DDR4-new-A-0",
    type_node="DDR4-new",
    manufacturer="A",
    payload={
        "hcfirst": (2_000, 256),
        "ipcs": [1.25, 0.5, 1 / 3, -0.0],
        "mechanism": "PARA",
        "acted": True,
        "none": None,
        "big": 2**70,
        "text": "é漢",
    },
    elapsed_s=0.125,
    from_cache=True,
    unit_id="cell/PARA/hc2000/mix00",
    unit_digest="0123456789abcdef",
    units_total=3,
    units_from_cache=2,
    units_retries=1,
    units_requeued=4,
)

TINY_FIG10 = MitigationStudyConfig(
    hcfirst_values=(2_000,),
    mechanisms=("PARA", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)


@pytest.fixture
def pin_study(monkeypatch):
    """A chip study registered at model version 3, the chip model at 5."""
    register_study(PIN_STUDY, model_version=3)(lambda chip, config: None)
    monkeypatch.setattr(columnar, "CHIP_MODEL_VERSION", 5)
    yield
    unregister_study(PIN_STUDY)


def pinned_entry(root):
    ResultStore(root).put(PIN_KEY, PIN_RESULT)
    return (root / PIN_KEY.study / PIN_KEY.filename).read_bytes()


def test_entry_bytes_are_pinned(tmp_path, pin_study):
    data = pinned_entry(tmp_path)
    assert hashlib.sha256(data).hexdigest()[:16] == STORE_ENTRY_DIGEST


def test_entry_layout(tmp_path, pin_study):
    """The header and body the store module's docstring lays out."""
    data = pinned_entry(tmp_path)
    magic, crc, version, study_version, chip_version = struct.unpack_from("<4sIHII", data)
    assert (magic, version, study_version, chip_version) == (b"RHSE", FORMAT_VERSION, 3, 5)
    assert FORMAT_VERSION == 2
    assert crc == zlib.crc32(data[:4] + data[8:])
    body = data[18:]
    assert body[:2] == b"\x80\x05"  # pickle protocol 5
    fields = dataclasses.fields(StudyResult)
    assert pickle.loads(body) == tuple(
        getattr(PIN_RESULT, field.name) for field in fields if field.name != "from_cache"
    )
    assert ResultStore(tmp_path).get(PIN_KEY) == PIN_RESULT


def test_unregistered_study_entries_record_version_zero(tmp_path):
    """A key may name a study no module registers; it still round-trips."""
    key = dataclasses.replace(PIN_KEY, study="store-format-unregistered")
    result = dataclasses.replace(PIN_RESULT, study=key.study)
    store = ResultStore(tmp_path)
    store.put(key, result)
    data = (tmp_path / key.study / key.filename).read_bytes()
    assert struct.unpack_from("<HII", data, 8) == (FORMAT_VERSION, 0, 0)
    hit = store.get(key)
    assert hit == result and hit.from_cache


# ----------------------------------------------------------------------
# Model versions
# ----------------------------------------------------------------------
def fig8_chips():
    population = make_population(
        chips_per_config=2,
        seed=1,
        geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16),
        configurations=[("DDR4-new", "A")],
    )
    return flatten_population(population)


def run_both(root, chips):
    """Run both studies over one store root, each through its own store."""
    runs = {}
    for name, session_chips, config in (
        ("fig10-mitigations", None, TINY_FIG10),
        ("fig8-hcfirst", chips, HCFirstStudyConfig()),
    ):
        store = ResultStore(root)
        outcome = ExperimentSession(session_chips, store=store).run(name, config)
        runs[name] = (outcome, store.stats)
    return runs


@pytest.mark.parametrize("bumped", ["fig10-mitigations", "chip model"])
def test_a_version_bump_re_executes_exactly_the_entries_it_covers(tmp_path, monkeypatch, bumped):
    root = tmp_path / "store"
    chips = fig8_chips()
    clean = run_both(root, chips)
    if bumped == "chip model":
        monkeypatch.setattr(columnar, "CHIP_MODEL_VERSION", columnar.CHIP_MODEL_VERSION + 1)
        stale_study = "fig8-hcfirst"
    else:
        spec = get_study(bumped)
        monkeypatch.setitem(
            _REGISTRY, bumped, dataclasses.replace(spec, model_version=spec.model_version + 1)
        )
        stale_study = bumped

    after_bump = run_both(root, chips)
    for name, (outcome, stats) in after_bump.items():
        units = clean[name][0].executed
        assert units == clean[name][1].puts > 0
        assert outcome.results == clean[name][0].results
        if name == stale_study:
            assert (outcome.executed, outcome.cache_hits) == (units, 0)
            assert (stats.hits, stats.misses, stats.stale, stats.corrupt, stats.puts) == (
                0,
                units,
                units,
                0,
                units,
            )
        else:
            assert (outcome.executed, outcome.cache_hits) == (0, units)
            assert (stats.hits, stats.misses, stats.stale, stats.corrupt) == (units, 0, 0, 0)
    assert not list(root.rglob("*" + ResultStore.QUARANTINE_SUFFIX))

    refilled = run_both(root, chips)
    for name, (outcome, stats) in refilled.items():
        assert outcome.executed == 0
        assert (stats.misses, stats.stale, stats.corrupt) == (0, 0, 0)
