"""The paper's primary contribution: the RowHammer characterization pipeline.

Modules map to the paper's experimental sections:

* :mod:`repro.core.data_patterns` -- the data patterns of Section 4.3.
* :mod:`repro.core.hammer` -- worst-case double-sided hammering of one victim.
* :mod:`repro.core.characterization` -- Algorithm 1, the general test routine.
* :mod:`repro.core.coverage` -- data-pattern coverage (Figure 4, Table 3).
* :mod:`repro.core.sweeps` -- hammer-count sweeps (Figure 5).
* :mod:`repro.core.spatial` -- spatial distribution of bit flips (Figure 6).
* :mod:`repro.core.word_density` -- bit flips per 64-bit word (Figure 7).
* :mod:`repro.core.first_flip` -- ``HC_first`` search (Figure 8, Table 4).
* :mod:`repro.core.ecc_analysis` -- ``HC_first/second/third`` (Figure 9).
* :mod:`repro.core.probability` -- single-cell flip probability (Table 5).
* :mod:`repro.core.scaling` -- projection of ``HC_first`` for future nodes.
* :mod:`repro.core.row_mapping` -- inference of the DRAM-internal row
  remapping (Section 4.3).

Each study module registers itself with the :mod:`repro.experiments`
registry (``fig4-coverage``, ``fig5-hc-sweep``, ``fig6-spatial``,
``fig7-word-density``, ``fig8-hcfirst``, ``fig9-ecc-words``,
``table5-flip-probability``, ``alg1-characterization``) so a whole
population can be driven through one
:class:`~repro.experiments.session.ExperimentSession`.  The undecomposed
studies' ``run_*(chip, config)`` functions are also callable directly;
``fig4-coverage`` and ``alg1-characterization`` are registered by the
function that runs one of their work units, so they run through a session.
"""

from repro.core.data_patterns import DataPattern, STANDARD_PATTERNS, pattern_by_name
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult
from repro.core.characterization import RowHammerCharacterizer, CharacterizationConfig
from repro.core.coverage import CoverageStudyConfig
from repro.core.sweeps import SweepStudyConfig, run_hammer_count_sweep
from repro.core.spatial import SpatialStudyConfig, run_spatial_distribution
from repro.core.word_density import WordDensityStudyConfig, run_word_density
from repro.core.first_flip import HCFirstResult, HCFirstStudyConfig, run_hcfirst_search
from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.core.row_mapping import MappingInference, infer_row_mapping

__all__ = [
    "DataPattern",
    "STANDARD_PATTERNS",
    "pattern_by_name",
    "BitFlip",
    "DoubleSidedHammer",
    "HammerResult",
    "RowHammerCharacterizer",
    "CharacterizationConfig",
    "CoverageStudyConfig",
    "SweepStudyConfig",
    "run_hammer_count_sweep",
    "SpatialStudyConfig",
    "run_spatial_distribution",
    "WordDensityStudyConfig",
    "run_word_density",
    "HCFirstResult",
    "HCFirstStudyConfig",
    "run_hcfirst_search",
    "EccWordStudyConfig",
    "run_ecc_word_analysis",
    "ProbabilityStudyConfig",
    "run_flip_probability_study",
    "MappingInference",
    "infer_row_mapping",
]
