"""repro: a reproduction of "Interactions Between Compression and
Prefetching in Chip Multiprocessors" (Alameldeen & Wood, HPCA 2007).

A trace-driven CMP memory-system simulator with:

* Frequent Pattern Compression and a decoupled variable-segment L2;
* link (pin) compression with flit-level message sizing;
* Power4-style L1I/L1D/L2 stride prefetchers;
* the paper's adaptive prefetch throttle built on compression's spare
  address tags;
* MSI coherence, a shared banked L2, a bandwidth-limited pin link, and
  synthetic workload models of the paper's eight benchmarks.

Quickstart::

    from repro import CMPSystem, SystemConfig

    config = SystemConfig().scaled(4).with_features(
        cache_compression=True, link_compression=True, prefetching=True)
    result = CMPSystem(config, "zeus", seed=0).run(events_per_core=20_000)
    print(result.summary())
"""

from repro.params import (
    CacheConfig,
    L2Config,
    LinkConfig,
    MemoryConfig,
    PrefetchConfig,
    SystemConfig,
)
from repro.core import (
    CMPSystem,
    CONFIG_FEATURES,
    DiskCache,
    InteractionBreakdown,
    MissClassification,
    ParallelRunner,
    PointError,
    PrefetcherReport,
    SimulationResult,
    classify_misses,
    clear_cache,
    interaction_coefficient,
    make_config,
    run_point,
    simulate,
    speedup,
)
from repro.workloads import WORKLOADS, WorkloadSpec, get_spec
from repro.stats import ConfidenceInterval, mean_ci
from repro.trace import TracePack, record_trace
from repro.report import Table, bar_chart, results_to_csv, results_to_json
from repro.obs import AuditViolation, Auditor, Violation, audit_hierarchy
from repro.core.bottleneck import CycleBreakdown, analyze
from repro.core.sweep import Sweep, SweepResults
from repro.workloads.custom import WorkloadBuilder, derive, register

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "L2Config",
    "LinkConfig",
    "MemoryConfig",
    "PrefetchConfig",
    "SystemConfig",
    "CMPSystem",
    "CONFIG_FEATURES",
    "InteractionBreakdown",
    "MissClassification",
    "PrefetcherReport",
    "SimulationResult",
    "classify_misses",
    "clear_cache",
    "DiskCache",
    "ParallelRunner",
    "PointError",
    "interaction_coefficient",
    "make_config",
    "run_point",
    "simulate",
    "speedup",
    "WORKLOADS",
    "WorkloadSpec",
    "get_spec",
    "ConfidenceInterval",
    "mean_ci",
    "TracePack",
    "record_trace",
    "Table",
    "bar_chart",
    "results_to_csv",
    "results_to_json",
    "AuditViolation",
    "Auditor",
    "Violation",
    "audit_hierarchy",
    "CycleBreakdown",
    "analyze",
    "Sweep",
    "SweepResults",
    "WorkloadBuilder",
    "derive",
    "register",
    "__version__",
]
