"""Tests for the study registry (names, duplicates, decompositions, configs,
digests)."""

import contextlib
from dataclasses import dataclass

import pytest

from repro.experiments.study import (
    DecompositionError,
    DuplicateStudyError,
    RegisteredStudy,
    UnknownStudyError,
    WorkUnit,
    config_digest,
    get_study,
    list_studies,
    register_study,
    unregister_study,
)

BUILTIN_STUDIES = (
    "alg1-characterization",
    "fig4-coverage",
    "fig5-hc-sweep",
    "fig6-spatial",
    "fig7-word-density",
    "fig8-hcfirst",
    "fig9-ecc-words",
    "fig10-mitigations",
    "fig10-mitigations-full",
    "table5-flip-probability",
)


class TestRegistry:
    def test_builtin_studies_registered(self):
        names = list_studies()
        for name in BUILTIN_STUDIES:
            assert name in names

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownStudyError) as excinfo:
            get_study("no-such-study")
        message = str(excinfo.value)
        assert "no-such-study" in message
        # A miss loads every built-in study, so the error lists them all.
        for name in BUILTIN_STUDIES:
            assert repr(name) in message

    def test_unknown_study_error_is_key_error(self):
        with pytest.raises(KeyError):
            get_study("also-not-a-study")

    def test_duplicate_registration_rejected(self):
        @register_study("test-duplicate-probe")
        def first(chip, config):
            return 1

        try:
            with pytest.raises(DuplicateStudyError):

                @register_study("test-duplicate-probe")
                def second(chip, config):
                    return 2

            # The original registration survives the failed attempt.
            assert get_study("test-duplicate-probe").fn is first
        finally:
            unregister_study("test-duplicate-probe")

    @pytest.mark.parametrize("version", [0, -1, 2**32, True, 1.0, "1"])
    def test_model_version_must_fit_an_entry_header(self, version):
        """Store entries record the version as an unsigned 32-bit field."""
        with pytest.raises(ValueError, match="model_version"):
            register_study("test-version-probe", model_version=version)
        assert "test-version-probe" not in list_studies()

    def test_unregister_removes_study(self):
        @register_study("test-unregister-probe")
        def probe(chip, config):
            return None

        unregister_study("test-unregister-probe")
        assert "test-unregister-probe" not in list_studies()

    def test_registered_study_runs_per_chip(self):
        spec = get_study("fig8-hcfirst")
        assert isinstance(spec, RegisteredStudy)
        assert spec.requires_chip

    def test_description_defaults_to_docstring(self):
        assert "Figure 5" in get_study("fig5-hc-sweep").description

    def test_population_study_flagged(self):
        assert not get_study("fig10-mitigations").requires_chip

    def test_full_fig10_preset_is_paper_scale(self):
        """The paper-scale preset defaults to the full 48-mix evaluation."""
        spec = get_study("fig10-mitigations-full")
        assert not spec.requires_chip
        config = spec.default_config()
        assert isinstance(config, spec.config_cls)
        assert config.num_mixes == 48
        assert config.rows_per_bank == 16384
        assert config.dram_cycles > 20_000
        # A distinct config type means a distinct cache identity, so the
        # full study never collides with the quick preset in a store.
        from repro.analysis.mitigation_study import MitigationStudyConfig
        from repro.experiments.study import config_digest

        assert config_digest(config) != config_digest(MitigationStudyConfig())

    def test_default_config_is_config_cls_instance(self):
        spec = get_study("fig5-hc-sweep")
        config = spec.default_config()
        assert isinstance(config, spec.config_cls)


PROBE = "test-decomposition-probe"


def merge_unit_ids(config, payloads):
    return tuple(payloads)


@contextlib.contextmanager
def decomposed_probe(decompose):
    """Register a decomposed study whose units return their ids."""

    @register_study(PROBE, decompose=decompose, merge=merge_unit_ids)
    def run_probe_unit(chip, config, unit):
        return unit.unit_id

    try:
        yield get_study(PROBE)
    finally:
        unregister_study(PROBE)


class TestDecompositionErrors:
    """Each rule of a study's decomposition raises DecompositionError."""

    @pytest.mark.parametrize(
        "declared",
        [{"decompose": lambda config: []}, {"merge": merge_unit_ids}],
        ids=["decompose-without-merge", "merge-without-decompose"],
    )
    def test_decompose_and_merge_come_together(self, declared):
        with pytest.raises(DecompositionError, match="together"):
            register_study(PROBE, **declared)
        assert PROBE not in list_studies()

    def test_unit_of_another_study(self):
        with decomposed_probe(lambda config: [WorkUnit("fig5-hc-sweep", "u0")]) as spec:
            with pytest.raises(DecompositionError, match="'fig5-hc-sweep'"):
                spec.units_for(None)

    def test_repeated_unit_id(self):
        units = [WorkUnit(PROBE, "u0", {"x": 1}), WorkUnit(PROBE, "u0", {"x": 2})]
        with decomposed_probe(lambda config: units) as spec:
            with pytest.raises(DecompositionError, match="duplicate unit id 'u0'"):
                spec.units_for(None)

    def test_zero_units(self):
        with decomposed_probe(lambda config: []) as spec:
            with pytest.raises(DecompositionError, match="zero units"):
                spec.units_for(None)

    def test_undecomposed_study_merges_one_payload(self):
        spec = get_study("fig5-hc-sweep")
        with pytest.raises(DecompositionError, match="exactly one"):
            spec.merge_units(spec.default_config(), ["first", "second"])

    def test_decomposed_study_runs_one_unit_per_call(self):
        units = [WorkUnit(PROBE, "u0"), WorkUnit(PROBE, "u1")]
        with decomposed_probe(lambda config: units) as spec:
            payloads = [spec.run_unit(None, None, unit) for unit in spec.units_for(None)]
            assert spec.merge_units(None, payloads) == ("u0", "u1")


class TestConfigDigest:
    def test_equal_configs_share_digest(self):
        from repro.core.sweeps import SweepStudyConfig

        a = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        b = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        assert config_digest(a) == config_digest(b)

    def test_different_configs_differ(self):
        from repro.core.sweeps import SweepStudyConfig

        a = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        b = SweepStudyConfig(hammer_counts=(10_000, 30_000))
        assert config_digest(a) != config_digest(b)

    def test_nested_dataclasses_and_mappings_digest(self):
        @dataclass(frozen=True)
        class Inner:
            value: int

        @dataclass(frozen=True)
        class Outer:
            inner: Inner
            table: tuple

        a = Outer(inner=Inner(1), table=(("x", 1), ("y", 2)))
        b = Outer(inner=Inner(1), table=(("x", 1), ("y", 2)))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(Outer(inner=Inner(2), table=()))

    def test_none_config_digests(self):
        assert config_digest(None) == config_digest(None)
