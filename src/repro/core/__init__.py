"""The paper's primary contribution: system assembly, experiments, analysis."""

from repro.core.system import CMPSystem
from repro.core.simulator import simulate
from repro.core.results import SimulationResult, PrefetcherReport
from repro.core.interaction import (
    InteractionBreakdown,
    interaction_coefficient,
    speedup,
)
from repro.core.missclass import MissClassification, classify_misses
from repro.core.experiment import (
    CONFIG_FEATURES,
    clear_cache,
    make_config,
    run_point,
)
from repro.core.diskcache import DiskCache
from repro.core.runner import ParallelRunner, PointError
from repro.core.sweep import Sweep, SweepResults
from repro.core.bottleneck import CycleBreakdown, analyze
from repro.obs.audit import audit_hierarchy

__all__ = [
    "CMPSystem",
    "simulate",
    "SimulationResult",
    "PrefetcherReport",
    "InteractionBreakdown",
    "interaction_coefficient",
    "speedup",
    "MissClassification",
    "classify_misses",
    "CONFIG_FEATURES",
    "clear_cache",
    "make_config",
    "run_point",
    "DiskCache",
    "ParallelRunner",
    "PointError",
    "Sweep",
    "SweepResults",
    "CycleBreakdown",
    "analyze",
    "audit_hierarchy",
]
