"""WorkUnit digest stability: property-based and cross-process tests.

The unit digest keys the unit-level result cache, so it must be a pure
function of the unit's content: invariant under parameter-dict key order,
stable across process restarts (no per-process hash salting), and
collision-free across the cells of a study grid.
"""

from __future__ import annotations

import hashlib
import os
import random
import string
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.analysis.mitigation_study import (
    DEFAULT_MECHANISMS,
    FullMitigationStudyConfig,
    MitigationStudyConfig,
)
from repro.experiments import WorkUnit, get_study
from repro.experiments.study import _canonical

param_keys = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=10)
param_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(alphabet=string.printable, max_size=16),
    st.booleans(),
    st.tuples(st.integers(min_value=0, max_value=999)),
)
param_dicts = st.dictionaries(param_keys, param_values, max_size=8)


class TestDigestProperties:
    @given(params=param_dicts, shuffle_seed=st.integers(0, 2**16))
    def test_digest_invariant_under_key_order(self, params, shuffle_seed):
        """A unit built from a shuffled item list equals (and digests
        identically to) one built from the dict."""
        items = list(params.items())
        random.Random(shuffle_seed).shuffle(items)
        from_dict = WorkUnit(study="probe", unit_id="u", params=params)
        from_items = WorkUnit(study="probe", unit_id="u", params=items)
        assert from_dict == from_items
        assert from_dict.digest == from_items.digest

    @given(params=param_dicts)
    def test_digest_is_documented_pure_function(self, params):
        """The digest is exactly the sha256 of (study, unit_id, canonical
        params) -- no process-dependent state -- which is what makes it
        stable across restarts."""
        unit = WorkUnit(study="probe", unit_id="u", params=params)
        text = "\x1f".join(("probe", "u", _canonical(unit.param_dict)))
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert unit.digest == expected

    @given(
        mechanisms=st.lists(
            st.sampled_from(DEFAULT_MECHANISMS), unique=True, min_size=1
        ),
        hcfirsts=st.lists(
            st.integers(min_value=1, max_value=10**6), unique=True, min_size=1, max_size=6
        ),
        num_mixes=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50)
    def test_grid_cells_never_collide(self, mechanisms, hcfirsts, num_mixes):
        """Distinct (mechanism, HC_first, mix) cells of a random grid get
        distinct digests."""
        units = [
            WorkUnit(
                study="probe",
                unit_id=f"cell/{mechanism}/hc{hcfirst}/mix{mix:02d}",
                params={
                    "kind": "cell",
                    "mechanism": mechanism,
                    "hcfirst": hcfirst,
                    "mix": mix,
                },
            )
            for mechanism in mechanisms
            for hcfirst in hcfirsts
            for mix in range(num_mixes)
        ]
        digests = [unit.digest for unit in units]
        assert len(set(digests)) == len(digests)


class TestRegisteredGridDigests:
    def test_fig10_full_grid_digests_unique(self):
        """The paper-scale decomposition (>= 47x48 cells + 48 baselines)
        has no digest collisions."""
        units = get_study("fig10-mitigations-full").units_for(FullMitigationStudyConfig())
        digests = {unit.digest for unit in units}
        assert len(digests) == len(units) >= 47 * 48

    def test_quick_and_full_fig10_digests_disjoint(self):
        """The quick and paper-scale presets never share cache entries:
        their units differ in study name and simulation parameters."""
        quick = get_study("fig10-mitigations").units_for(MitigationStudyConfig())
        full = get_study("fig10-mitigations-full").units_for(FullMitigationStudyConfig())
        assert not {u.digest for u in quick} & {u.digest for u in full}


class TestProcessRestartStability:
    def test_digest_stable_across_process_restarts(self):
        """A fresh interpreter recomputes the same digests for the tiny
        fig10 decomposition (guards against relying on salted hashing)."""
        spec = get_study("fig10-mitigations")
        config = MitigationStudyConfig(
            hcfirst_values=(2_000,), mechanisms=("PARA",), num_mixes=1
        )
        expected = ",".join(unit.digest for unit in spec.units_for(config))

        script = (
            "from repro.experiments import get_study\n"
            "from repro.analysis.mitigation_study import MitigationStudyConfig\n"
            "config = MitigationStudyConfig(hcfirst_values=(2_000,), "
            "mechanisms=('PARA',), num_mixes=1)\n"
            "units = get_study('fig10-mitigations').units_for(config)\n"
            "print(','.join(unit.digest for unit in units))\n"
        )
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == expected
