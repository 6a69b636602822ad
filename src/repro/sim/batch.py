"""A group of independent simulations of one system configuration.

A :class:`SimulationBatch` runs several simulations that share one
:class:`~repro.sim.config.SystemConfig` -- the per-core alone-IPC runs of a
Figure 10 workload mix, for example -- one after another through
:class:`~repro.sim.system.Simulation`.  Its ``backend`` is the step mode
every simulation uses: ``"event"`` (the default) or the ``"cycle"`` oracle,
which produce bit-identical results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.system import STEP_MODES, Simulation, SimulationResult
from repro.sim.trace import TraceRecord

__all__ = ["SimulationBatch"]


class SimulationBatch:
    """Independent simulations sharing one system configuration.

    Parameters
    ----------
    config:
        The shared :class:`~repro.sim.config.SystemConfig`.
    trace_sets:
        One trace set per simulation; each trace set holds one trace per
        core (core counts may differ between simulations).
    mitigations:
        Optional list of per-simulation mitigation mechanism instances
        (``None`` entries run unmitigated).  Each simulation needs its own
        instance -- mechanisms carry per-run state.
    backend:
        Step mode of every simulation: ``"event"`` (default) or ``"cycle"``.
    """

    def __init__(
        self,
        config: SystemConfig,
        trace_sets: Sequence[Sequence[Sequence[TraceRecord]]],
        mitigations: Optional[Sequence] = None,
        backend: str = "event",
    ) -> None:
        if backend not in STEP_MODES:
            raise ValueError(f"backend must be one of {STEP_MODES}, got {backend!r}")
        if mitigations is None:
            mitigations = [None] * len(trace_sets)
        if len(mitigations) != len(trace_sets):
            raise ValueError("one mitigation entry per simulation (or None)")
        self.config = config
        self.trace_sets = list(trace_sets)
        self.mitigations = list(mitigations)
        self.backend = backend

    def run(self, dram_cycles: int) -> List[SimulationResult]:
        """Run every simulation for ``dram_cycles`` DRAM cycles, in order."""
        return [
            Simulation(
                self.config, traces, mitigation=mitigation, step_mode=self.backend
            ).run(dram_cycles)
            for traces, mitigation in zip(self.trace_sets, self.mitigations)
        ]
