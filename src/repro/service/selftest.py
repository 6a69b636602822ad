"""A deterministic diagnostic study for exercising the experiment service.

``service-selftest`` is a registered, decomposable study whose units do
pure, seeded hash work -- no chips, no simulator -- with two knobs real
studies lack: a per-unit sleep (so fault injection can reliably catch a
worker mid-unit) and a poison list (units that always raise, driving the
retry/quarantine machinery).  Because the payloads are pure functions of
the config, any executor -- serial, process pool, or a multi-host worker
fleet with workers dying mid-sweep -- must produce bit-identical results,
which makes this study the canonical end-to-end probe for
:mod:`repro.service` (the loopback end-to-end and fault-injection tests
are built on it).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.study import WorkUnit, register_study


@dataclass(frozen=True)
class ServiceSelfTestConfig:
    """Parameters of the ``service-selftest`` study.

    ``rounds`` sets per-unit CPU work (sha256 chain length); ``unit_sleep_s``
    adds wall-clock per unit; ``fail_units`` lists unit indexes that raise
    on every attempt (poison units).
    """

    units: int = 6
    rounds: int = 2_000
    unit_sleep_s: float = 0.0
    fail_units: Tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValueError("units must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if any(i < 0 or i >= self.units for i in self.fail_units):
            raise ValueError("fail_units indexes must fall inside the unit range")


@dataclass(frozen=True)
class ServiceSelfTestResult:
    """Merged selftest payload: per-unit digests plus their combined digest."""

    unit_digests: Tuple[str, ...]
    combined_digest: str


def _unit_digest_value(seed: int, index: int, rounds: int) -> str:
    digest = hashlib.sha256(f"selftest:{seed}:{index}".encode("ascii")).digest()
    for _ in range(rounds):
        digest = hashlib.sha256(digest).digest()
    return digest.hex()


def _decompose(config: ServiceSelfTestConfig) -> List[WorkUnit]:
    return [
        WorkUnit(
            study="service-selftest",
            unit_id=f"unit-{index:04d}",
            params={
                "index": index,
                "rounds": config.rounds,
                "sleep_s": config.unit_sleep_s,
                "fail": index in config.fail_units,
                "seed": config.seed,
            },
            index=index,
        )
        for index in range(config.units)
    ]


def _run_unit(_chip: None, config: ServiceSelfTestConfig, unit: WorkUnit) -> str:
    params = unit.param_dict
    if params["fail"]:
        raise RuntimeError(f"selftest unit {params['index']} is poisoned")
    if params["sleep_s"]:
        time.sleep(float(params["sleep_s"]))
    return _unit_digest_value(params["seed"], params["index"], params["rounds"])


def _merge(
    config: ServiceSelfTestConfig, payloads: Sequence[str]
) -> ServiceSelfTestResult:
    combined = hashlib.sha256("\x1f".join(payloads).encode("ascii")).hexdigest()
    return ServiceSelfTestResult(
        unit_digests=tuple(payloads), combined_digest=combined
    )


@register_study(
    "service-selftest",
    config=ServiceSelfTestConfig,
    requires_chip=False,
    description="Deterministic hash-work study for service fault injection",
    decompose=_decompose,
    unit_runner=_run_unit,
    merge=_merge,
)
def run_service_selftest(
    _chip: None, config: ServiceSelfTestConfig
) -> ServiceSelfTestResult:
    """Deterministic hash-work study for service fault injection."""
    payloads = [_run_unit(_chip, config, unit) for unit in _decompose(config)]
    return _merge(config, payloads)
