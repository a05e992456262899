"""Functional facade: one call, one simulation result."""

from __future__ import annotations

from typing import Optional, Union

from repro.core.results import SimulationResult
from repro.core.system import CMPSystem
from repro.params import SystemConfig
from repro.workloads.base import WorkloadSpec


def simulate(
    workload: Union[str, WorkloadSpec],
    config: Optional[SystemConfig] = None,
    *,
    events_per_core: int = 20_000,
    warmup_events: Optional[int] = None,
    seed: int = 0,
    config_name: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``workload`` on ``config`` (Table 1 defaults if omitted).

    Observation layers (auditing, tracing, metrics, attribution) are
    switched on the config, e.g. ``replace(config, audit=True)``; reach
    the data they collect through :class:`CMPSystem` directly
    (``system.auditor`` / ``system.tracer`` / ``system.sampler``).
    """
    cfg = config if config is not None else SystemConfig()
    system = CMPSystem(cfg, workload, seed=seed)
    return system.run(events_per_core, warmup_events=warmup_events, config_name=config_name)
