"""Registry of mitigation mechanisms for the evaluation harness.

The Figure 10 benchmark sweeps mechanisms by name; this module maps names to
factories so the harness, examples and tests construct them uniformly.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.mitigations.ideal import IdealRefresh
from repro.mitigations.mrloc import MRLoc
from repro.mitigations.para import PARA
from repro.mitigations.prohit import ProHIT
from repro.mitigations.refresh_rate import IncreasedRefreshRate
from repro.mitigations.twice import TWiCe

MechanismFactory = Callable[[MitigationConfig], MitigationMechanism]

#: Factories for every evaluated mechanism, keyed by the name used in reports.
MECHANISM_FACTORIES: Dict[str, MechanismFactory] = {
    "IncreasedRefresh": IncreasedRefreshRate,
    "PARA": PARA,
    "ProHIT": ProHIT,
    "MRLoc": MRLoc,
    "TWiCe": lambda config: TWiCe(config, ideal=False),
    "TWiCe-ideal": lambda config: TWiCe(config, ideal=True),
    "Ideal": IdealRefresh,
}

#: The increased refresh rate and the published (non-ideal) TWiCe design do
#: not scale below this HC_first (Section 6.1).
SCALING_LIMIT_HCFIRST = 32_000
#: The only HC_first ProHIT and MRLoc are tuned for (Section 6.1).
TUNED_HCFIRST = 2_000

#: HC_first ranges over which each mechanism can be meaningfully evaluated
#: (Section 6.1); the Figure 10 harness skips a mechanism outside its range.
EVALUATION_CONSTRAINTS: Dict[str, Callable[[int], bool]] = {
    "IncreasedRefresh": lambda hcfirst: hcfirst >= SCALING_LIMIT_HCFIRST,
    "PARA": lambda hcfirst: True,
    "ProHIT": lambda hcfirst: hcfirst == TUNED_HCFIRST,
    "MRLoc": lambda hcfirst: hcfirst == TUNED_HCFIRST,
    "TWiCe": lambda hcfirst: hcfirst >= SCALING_LIMIT_HCFIRST,
    "TWiCe-ideal": lambda hcfirst: True,
    "Ideal": lambda hcfirst: True,
}


def available_mechanisms() -> List[str]:
    """Names of all registered mechanisms."""
    return list(MECHANISM_FACTORIES)


def build_mechanism(name: str, config: MitigationConfig) -> MitigationMechanism:
    """Construct a mechanism by registry name.

    >>> from repro.mitigations.base import MitigationConfig
    >>> build_mechanism("PARA", MitigationConfig(hcfirst=4800)).name
    'PARA'
    """
    try:
        factory = MECHANISM_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {name!r}; available: {available_mechanisms()}"
        ) from None
    return factory(config)


def is_evaluable(name: str, hcfirst: int) -> bool:
    """Whether the paper evaluates mechanism ``name`` at this HC_first value."""
    constraint = EVALUATION_CONSTRAINTS.get(name)
    if constraint is None:
        return True
    return constraint(hcfirst)
