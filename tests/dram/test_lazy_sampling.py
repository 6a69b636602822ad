"""Lazy sampling: a chip draws each of its row streams at most once.

A :class:`~repro.dram.columnar.BankColumns` fills a row's thresholds and
coupling classes from the chip's cell law the first time a hammer reaches
the row, and its threshold noise once per refresh epoch, then keeps them.
These tests wrap the module-level samplers that ``BankColumns`` calls and
run three characterization studies directly on one chip each (charz-mix's
geometry), failing if any (bank, row) threshold or class stream, or any
(bank, row, epoch) noise stream, is drawn twice.
"""

import collections

import pytest

from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis
from repro.core.first_flip import HCFirstStudyConfig, run_hcfirst_search
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.dram import columnar
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=64)

#: Sampler name -> how many positional arguments after the law key a stream.
STREAM_KEYS = {
    "sample_threshold_row": 2,  # bank, row
    "sample_class_row": 2,  # bank, row
    "sample_noise_row": 3,  # bank, row, epoch
}


@pytest.mark.parametrize(
    "study,config",
    [
        pytest.param(run_hcfirst_search, HCFirstStudyConfig(), id="fig8"),
        pytest.param(run_ecc_word_analysis, EccWordStudyConfig(), id="fig9"),
        pytest.param(
            run_flip_probability_study, ProbabilityStudyConfig(iterations=4), id="table5"
        ),
    ],
)
@pytest.mark.parametrize("type_node,manufacturer", [("DDR4-new", "A"), ("LPDDR4-1x", "A")])
def test_a_chip_draws_each_row_stream_once(monkeypatch, type_node, manufacturer, study, config):
    draws = {name: collections.Counter() for name in STREAM_KEYS}
    for name, counter in draws.items():

        def counting(*args, _sampler=getattr(columnar, name), _draws=counter, _key=STREAM_KEYS[name]):
            _draws[args[1 : 1 + _key]] += 1
            return _sampler(*args)

        monkeypatch.setattr(columnar, name, counting)
    study(make_chip(type_node, manufacturer, seed=1, geometry=GEOMETRY), config)
    for name, counter in draws.items():
        assert counter, f"{name} drew no stream, so this test checks nothing"
        repeated = sorted(key for key, count in counter.items() if count > 1)
        assert not repeated, f"{name} drew these streams more than once: {repeated}"
