"""Absolute payload pins for every per-chip characterization study.

Each study runs through an :class:`~repro.experiments.ExperimentSession`
over four small chips: DDR3 and DDR4 without on-die ECC, an LPDDR4-1x chip
with the paired-wordline remapper and on-die ECC, and the flip-heaviest
LPDDR4-1y configuration.  :data:`CHIP_STUDY_DIGESTS` holds the
:func:`~repro.experiments.study.config_digest` of each run's merged
payloads.  Merged payloads hold no sets, so their digests do not depend on
set iteration order.

Besides the default configs, the pins cover a word size that does not
divide the 128-bit row (Figures 7 and 9) and Table 5 with its hammer
counts given out of order.  A change that moves a digest changes a study's
results: never re-record these to make a refactor pass.
"""

import pytest

from repro.core.ecc_analysis import EccWordStudyConfig
from repro.core.probability import ProbabilityStudyConfig
from repro.core.word_density import WordDensityStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.experiments import ExperimentSession
from repro.experiments.study import config_digest

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
CONFIGURATIONS = (("DDR3-new", "C"), ("DDR4-new", "A"), ("LPDDR4-1x", "B"), ("LPDDR4-1y", "A"))

#: Pinned run name -> (registered study, config; ``None`` is the default).
CASES = {
    "fig4-coverage": ("fig4-coverage", None),
    "fig5-hc-sweep": ("fig5-hc-sweep", None),
    "fig6-spatial": ("fig6-spatial", None),
    "fig7-word-density": ("fig7-word-density", None),
    "fig7-word-density/word_bits=48": (
        "fig7-word-density", WordDensityStudyConfig(word_bits=48)
    ),
    "fig8-hcfirst": ("fig8-hcfirst", None),
    "fig9-ecc-words": ("fig9-ecc-words", None),
    "fig9-ecc-words/word_bits=48": ("fig9-ecc-words", EccWordStudyConfig(word_bits=48)),
    "table5-flip-probability": ("table5-flip-probability", None),
    "table5-flip-probability/unsorted": (
        "table5-flip-probability",
        ProbabilityStudyConfig(hammer_counts=(100_000, 25_000, 150_000, 50_000), iterations=3),
    ),
    "alg1-characterization": ("alg1-characterization", None),
}

#: Digest of each case's merged session payloads, in chip order.
CHIP_STUDY_DIGESTS = {
    "fig4-coverage": "fee59167f2a86a8c",
    "fig5-hc-sweep": "c32a27f999c85278",
    "fig6-spatial": "d5a83b4fb74c7586",
    "fig7-word-density": "7a0dc032010a51a2",
    "fig7-word-density/word_bits=48": "ef602414620e8ca7",
    "fig8-hcfirst": "4b1e24390de00f1c",
    "fig9-ecc-words": "ea0ad44cad482148",
    "fig9-ecc-words/word_bits=48": "c29e263049ec83d8",
    "table5-flip-probability": "20c97f8340e70034",
    "table5-flip-probability/unsorted": "c870fdc9b1474b34",
    "alg1-characterization": "87c0c978c2800af6",
}


@pytest.fixture(scope="module")
def session():
    # Executors run every study on a copy of each chip, so the cases do not
    # depend on the order in which they run.
    return ExperimentSession.from_table1(
        chips_per_config=1, seed=3, geometry=GEOMETRY, configurations=CONFIGURATIONS
    )


def test_cases_and_digests_agree():
    assert set(CASES) == set(CHIP_STUDY_DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_chip_study_payload_digest(session, case):
    study, config = CASES[case]
    payloads = session.run(study, config).payloads()
    assert len(payloads) == len(CONFIGURATIONS)
    assert config_digest(payloads) == CHIP_STUDY_DIGESTS[case]
