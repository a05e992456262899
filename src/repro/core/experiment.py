"""Experiment harness: the paper's feature matrix, env knobs, run caching.

The paper's evaluation sweeps eight workloads across feature
combinations; every bench in ``benchmarks/`` builds on the helpers here.
Runs are cached at two levels: a bounded in-process memo (most figures
share configurations — Figure 9 and Table 5, for example, reuse the
same four runs) backed by the persistent disk cache
(:mod:`repro.core.diskcache`), which survives across processes.

Environment knobs (all optional):

* ``REPRO_EVENTS``   — measured trace events per core (default 20000)
* ``REPRO_WARMUP``   — warmup events per core (default = REPRO_EVENTS)
* ``REPRO_SEEDS``    — seeds per data point (default 1; >1 adds 95% CIs)
* ``REPRO_SCALE``    — capacity scale divisor (default 4; 1 = full scale)
* ``REPRO_MEMO_CAP`` — max in-process memoised results (default 512)
* ``REPRO_CACHE``    — ``0`` disables the on-disk cache
* ``REPRO_CACHE_DIR``— on-disk cache root (default ``.repro_cache/``)
* ``REPRO_JOBS``     — default worker count for parallel sweeps

Long-run durability knobs (``REPRO_SNAPSHOT_INTERVAL``,
``REPRO_SNAPSHOT_DIR``, ``REPRO_RESUME_SNAPSHOT``, ``REPRO_DEADLINE``,
``REPRO_MEM_LIMIT``) live in :mod:`repro.core.snapshot`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro import knobs
from repro.core import diskcache
from repro.core.results import SimulationResult
from repro.core.system import CMPSystem
from repro.obs import telemetry as _telemetry
from repro.params import SystemConfig

#: The paper's feature combinations, by short name.
CONFIG_FEATURES: Dict[str, Dict[str, bool]] = {
    "base": dict(cache_compression=False, link_compression=False, prefetching=False, adaptive=False),
    "pref": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=False),
    "adaptive": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=True),
    "cache_compr": dict(cache_compression=True, link_compression=False, prefetching=False, adaptive=False),
    "link_compr": dict(cache_compression=False, link_compression=True, prefetching=False, adaptive=False),
    "compr": dict(cache_compression=True, link_compression=True, prefetching=False, adaptive=False),
    "pref_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=False),
    "adaptive_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=True),
}


def default_events() -> int:
    return knobs.integer("REPRO_EVENTS", 20_000, minimum=1)


def default_warmup() -> int:
    return knobs.integer("REPRO_WARMUP", default_events(), minimum=0)


def default_seeds() -> int:
    return knobs.integer("REPRO_SEEDS", 1, minimum=1)


def default_scale() -> int:
    return knobs.integer("REPRO_SCALE", 4, minimum=1)


def make_config(
    key: str,
    *,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
) -> SystemConfig:
    """Build the Table 1 system with one of the paper's feature combos.

    ``infinite_bandwidth`` selects the paper's bandwidth-*demand*
    measurement configuration (Figures 4 and 7).
    """
    if key not in CONFIG_FEATURES:
        raise KeyError(f"unknown config {key!r}; choose from {', '.join(CONFIG_FEATURES)}")
    from dataclasses import replace

    cfg = SystemConfig(n_cores=n_cores)
    cfg = cfg.scaled(scale if scale is not None else default_scale())
    bw = None if infinite_bandwidth else bandwidth_gbs
    cfg = replace(cfg, link=replace(cfg.link, bandwidth_gbs=bw))
    return cfg.with_features(**CONFIG_FEATURES[key])


# In-process memo: a bounded LRU (plain dict in recency order) so long
# sweep sessions cannot grow it without limit.  The disk cache below it
# has no bound; ``repro cache clear`` manages that one.
_CACHE: Dict[Tuple, SimulationResult] = {}


def default_memo_cap() -> int:
    return knobs.integer("REPRO_MEMO_CAP", 512, minimum=0)


def _memo_get(key: Tuple) -> Optional[SimulationResult]:
    result = _CACHE.get(key)
    if result is not None:
        del _CACHE[key]  # refresh recency
        _CACHE[key] = result
    return result


def _memo_put(key: Tuple, result: SimulationResult) -> None:
    if key in _CACHE:
        del _CACHE[key]
    else:
        cap = default_memo_cap()
        while len(_CACHE) >= cap > 0:
            del _CACHE[next(iter(_CACHE))]  # evict LRU
    _CACHE[key] = result


def point_cache_key(
    workload: str,
    key: str,
    *,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
) -> Tuple:
    """The in-process memo key for one run_point argument set."""
    return (
        workload,
        key,
        seed,
        events if events is not None else default_events(),
        warmup if warmup is not None else default_warmup(),
        n_cores,
        scale if scale is not None else default_scale(),
        bandwidth_gbs,
        infinite_bandwidth,
    )


def remember_point(result: SimulationResult, **coords) -> None:
    """Seed the in-process memo with an externally computed result
    (e.g. one returned by a :class:`repro.core.runner.ParallelRunner`
    worker), so later serial lookups reuse it."""
    _memo_put(point_cache_key(**coords), result)


def run_point(
    workload: str,
    key: str,
    *,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
    use_cache: bool = True,
    resume_snapshot: Optional[bool] = None,
) -> SimulationResult:
    """Run one (workload, config) data point.

    Lookup order: in-process memo, then the persistent disk cache, then
    simulate.  ``use_cache`` only decides whether a stored result may be
    served: ``use_cache=False`` always simulates.  Either way a complete
    result is stored in the memo and, unless ``REPRO_CACHE=0``, on disk
    the moment it is computed, which is what ``repro sweep --resume``
    reads back.

    ``resume_snapshot`` forwards to :meth:`CMPSystem.run`: ``True``
    resumes from a matching mid-run snapshot if one exists, ``False``
    never does, ``None`` (default) follows ``REPRO_SNAPSHOT_INTERVAL`` /
    ``REPRO_RESUME_SNAPSHOT``.  A run truncated by a resource guard
    (``result.extra["truncated"]``) is returned but never stored — a
    partial result must not shadow the eventual complete one.
    """
    events = events if events is not None else default_events()
    warmup = warmup if warmup is not None else default_warmup()
    t0 = time.perf_counter()
    cache_key = point_cache_key(
        workload, key, seed=seed, events=events, warmup=warmup, n_cores=n_cores,
        scale=scale, bandwidth_gbs=bandwidth_gbs, infinite_bandwidth=infinite_bandwidth,
    )
    if use_cache:
        result = _memo_get(cache_key)
        if result is not None:
            _emit_point(workload, key, seed, "memo", None, t0)
            return result
    config = make_config(
        key,
        n_cores=n_cores,
        scale=scale,
        bandwidth_gbs=bandwidth_gbs,
        infinite_bandwidth=infinite_bandwidth,
    )
    store = diskcache.DiskCache() if diskcache.cache_enabled() else None
    disk_key = None
    if store is not None:
        disk_key = diskcache.point_key(config, workload, seed, events, warmup)
        result = store.get(disk_key) if use_cache else None
        if result is not None:
            _memo_put(cache_key, result)
            _emit_point(workload, key, seed, "disk", disk_key, t0)
            return result
    system = CMPSystem(config, workload, seed=seed)
    result = system.run(
        events, warmup_events=warmup, config_name=key,
        resume_snapshot=resume_snapshot,
    )
    if not result.extra.get("truncated"):
        _memo_put(cache_key, result)
        if store is not None:
            store.put(disk_key, result)
    source = "snapshot" if system.resumed_from_phase is not None else "sim"
    _emit_point(workload, key, seed, source, disk_key, t0)
    return result


#: Where the most recent run_point result came from (``memo`` / ``disk``
#: / ``sim`` / ``snapshot`` for a simulation resumed from a mid-run
#: snapshot) — per process; the parallel runner reads it right after
#: each point to feed the live progress renderer.
_LAST_SOURCE = "sim"


def last_point_source() -> str:
    """Source of the most recent :func:`run_point` in this process."""
    return _LAST_SOURCE


def _emit_point(
    workload: str, key: str, seed: int, source: str, disk_key: Optional[str], t0: float
) -> None:
    """Record where the point came from; telemetry is free when off."""
    global _LAST_SOURCE
    _LAST_SOURCE = source
    if _telemetry.enabled():
        _telemetry.emit(
            "point",
            workload=workload,
            config_key=key,
            seed=seed,
            source=source,
            point_key=disk_key,
            wall_s=time.perf_counter() - t0,
        )


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo; with ``disk=True`` also empty the
    persistent on-disk cache."""
    _CACHE.clear()
    if disk:
        diskcache.DiskCache().clear()
