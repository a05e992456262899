"""Workloads, measurement and correctness checks for ``perfbench/run.py``.

Every layer is measured from outside the package: the benchmark times
its own calls into ``CMPSystem``, ``Sweep`` (which drives
``ParallelRunner`` and ``run_point``) and reads ``DiskCache`` timings off
an outside profiler.  Nothing here reaches into ``repro`` internals.

``repro`` must already be importable when this module is imported;
``run.py`` puts the checkout's ``src/`` on ``sys.path`` and times that
import first.
"""

from __future__ import annotations

import cProfile
import gc
import json
import multiprocessing
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    CMPSystem, CONFIG_FEATURES, InteractionBreakdown, PointError, Sweep, clear_cache,
    make_config, record_trace,
)
from repro.obs import telemetry
from repro.obs.profile import component_of
from repro.report.export import result_fingerprint

N_CORES = 8
SCALE = 4
BANDWIDTH_GBS = 20.0

#: Workload mix of the in-process workloads: coherence-heavy oltp,
#: link-saturating mgrid, chase's linked-heap generator and zeus, the
#: paper's headline prefetch+compression winner.
INPROC_WORKLOADS = ("zeus", "oltp", "mgrid", "chase")
#: benchmark workload -> (config key, causal attribution on)
INPROC = {
    "base": ("base", False),
    "explain": ("pref_compr", True),
}
TABLE5_WORKLOADS = ("apache", "zeus", "oltp", "jbb", "art", "apsi", "fma3d", "mgrid")
TABLE5_CONFIGS = ("base", "pref", "compr", "pref_compr")

#: The paper's Table 5 (HPCA 2007), in percent: pref, compr, both,
#: interaction — the "paper" column of EXPERIMENTS.md.  The error
#: against it is error against the paper's simulator, not hardware.
PAPER_TABLE5 = {
    "apache": (-0.9, 20.5, 37.3, 15.0),
    "zeus": (21.3, 9.7, 50.7, 13.2),
    "oltp": (0.3, 5.6, 9.9, 3.8),
    "jbb": (-24.5, 5.9, -6.5, 16.9),
    "art": (6.4, 3.1, 10.6, 0.9),
    "apsi": (13.6, 4.2, 15.5, -2.5),
    "fma3d": (-3.4, 22.6, 18.6, 0.2),
    "mgrid": (18.9, 2.9, 48.7, 21.5),
}

#: Expected digests are recorded for simulation seeds 0..SEED_RANGE-1;
#: ``--seed n`` simulates seed ``n % SEED_RANGE``.
SEED_RANGE = 16
#: Digest prefix length (hex characters) kept in expected.json.
DIGEST_CHARS = 16


@dataclass(frozen=True)
class Size:
    """Events per core: in-process points, table5 sweep points, and the
    warmup-free prefetch-ledger probe."""

    events: int
    warmup: int
    t5_events: int
    t5_warmup: int
    probe_events: int


SIZES = {
    "full": Size(events=3000, warmup=3000, t5_events=1000, t5_warmup=1000, probe_events=500),
    "tiny": Size(events=100, warmup=100, t5_events=50, t5_warmup=50, probe_events=50),
}

#: Host-time layers, named after ``src/repro`` modules.  The L1 hit
#: path is inlined into ``core.hierarchy``, so L1 array time shows
#: there, not under ``cache``.
LAYERS = (
    "workloads", "cache", "compression", "prefetch", "interconnect", "memory",
    "coherence", "stats", "obs", "core.hierarchy", "core.system", "core.runner",
    "core.diskcache", "core.experiment", "core.sweep",
)

#: Simulated per-layer counters (name, unit); exact for a given seed.
SIM_METRICS = (
    ("sim.l1i.demand_misses", "count"),
    ("sim.l1d.demand_misses", "count"),
    ("sim.l2.demand_accesses", "count"),
    ("sim.l2.demand_misses", "count"),
    ("sim.l2.evictions", "count"),
    ("sim.l2.writebacks", "count"),
    ("sim.l2.compressed_hits", "count"),
    ("sim.compr.ratio", "ratio"),
    *(
        (f"sim.pf.{lvl}.{what}", "ratio" if what == "accuracy" else "count")
        for lvl in ("l1i", "l1d", "l2")
        for what in ("issued", "useful", "accuracy")
    ),
    ("sim.pf.l2.dropped", "count"),
    ("sim.pf.l2.throttled", "count"),
    ("sim.link.messages", "count"),
    ("sim.link.bytes_total", "B"),
    ("sim.link.queue_cycles", "cycles"),
    ("sim.link.occupancy", "ratio"),
    ("sim.dram.demand", "count"),
    ("sim.dram.prefetch", "count"),
    ("sim.l1d.upgrades", "count"),
    ("sim.l1d.coherence_invalidations", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "cycles"),
    ("sim.ipc", "ratio"),
    ("sim.memory_stall_cycles", "cycles"),
    *((f"sim.attr.{cls}", "count")
      for cls in ("compulsory", "capacity", "pollution", "expansion")),
)

SWEEP_METRICS = (
    ("runner.points_simulated", "count"),
    ("runner.retries", "count"),
    ("runner.worker_busy_share", "ratio"),
    ("diskcache.put_s", "s"),
    ("diskcache.put_calls", "count"),
    ("runner.points_disk", "count"),
    ("runner.points_memo", "count"),
    ("diskcache.get_s", "s"),
    ("diskcache.get_calls", "count"),
)

TABLE5_METRICS = (
    *((f"sim.table5.{wl}.interaction_pct", "%") for wl in TABLE5_WORKLOADS),
    ("sim.table5.mean_abs_err_pp", "pp"),
)


def end_to_end_metrics() -> List[Tuple[str, str]]:
    return [
        ("events_per_s", "1/s"),
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ]


#: Printed for people with --trace 0 but not bounded in BENCHMARK.json:
#: the bounded host-time metrics before scaling to reference seconds,
#: the reference loop's median time, and table5's warm pass, which lasts
#: a few tens of milliseconds, mostly worker start-up, and spreads too
#: widely between runs to carry a bound.
UNBOUNDED_METRICS = {
    "raw.events_per_s": "1/s",
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "reference_s": "s",
    "warm_wall_s": "s",
}

#: Seconds of one reference-loop run (``reference.py``) that make one
#: reference second: about its median on the machine in README "Noise".
REFERENCE_NOMINAL_S = 0.2


class Reference:
    """The host-speed reference loop, in a child process of its own so
    its memory stays out of ``peak_rss_mb``.

    The shared host's speed drifts by tens of percent within minutes.
    ``slowdown()`` is called right before each timed pass, and the pass's
    host times are divided by ``slowdown`` (the loop's time over
    ``REFERENCE_NOMINAL_S``), which cancels most of that drift.  The loop
    runs no repository code, so a change to the simulator moves the
    scaled metrics as much as the raw ones.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: List[float] = []

    def slowdown(self) -> float:
        """Run the loop once; its time over the nominal one."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference loop exited with {self.proc.wait()}")
        self.samples.append(float(line))
        return self.samples[-1] / REFERENCE_NOMINAL_S

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scaled(raw: Dict[str, List[float]], slowdowns: List[float], import_s: float,
           reference: Reference) -> Dict[str, float]:
    """Bounded metrics in reference seconds, from per-pass raw values and
    the slowdown measured right before each pass, plus the raw medians.
    The import happened before any pass and is scaled by the median
    slowdown."""
    mid = median(slowdowns)
    return {
        "events_per_s": median([v * k for v, k in zip(raw["events_per_s"], slowdowns)]),
        "wall_s": median([v / k for v, k in zip(raw["wall_s"], slowdowns)]),
        "setup_s": import_s / mid + median([v / k for v, k in zip(raw["setup_s"], slowdowns)]),
        "raw.events_per_s": median(raw["events_per_s"]),
        "raw.wall_s": median(raw["wall_s"]),
        "raw.setup_s": import_s + median(raw["setup_s"]),
        "reference_s": median(reference.samples),
        "_passes": len(slowdowns),
    }


def per_layer_metrics() -> List[Tuple[str, str]]:
    host = [(f"host.{layer}.{what}", unit)
            for layer in LAYERS
            for what, unit in (("self_s", "s"), ("calls", "count"))]
    return [
        *host,
        ("host.rest.self_s", "s"),
        ("host.other.self_s", "s"),
        ("host.trace_overhead", "ratio"),
        *SWEEP_METRICS,
        *SIM_METRICS,
        *TABLE5_METRICS,
    ]


# -- outcome bookkeeping ------------------------------------------------------


@dataclass
class Outcome:
    """Points attempted and the problems found; a point with any problem
    counts once as failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def point(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def digest(result) -> str:
    return result_fingerprint(result)[:DIGEST_CHARS]


def point_config(key: str, attribution: bool):
    config = make_config(key, n_cores=N_CORES, scale=SCALE, bandwidth_gbs=BANDWIDTH_GBS)
    return replace(config, attribution=True) if attribution else config


def trace_expectation(workload: str, seed: int, events: int, warmup: int) -> Tuple[int, int, int]:
    """(instructions, L1I demand accesses, L1D demand accesses) of the
    measured window, read off the workload's trace alone.  Every core
    runs exactly ``warmup + events`` trace events whatever the config,
    so any config of this workload and seed must match these."""
    config = make_config("base", n_cores=N_CORES, scale=SCALE)
    pack = record_trace(
        workload, n_cores=N_CORES, events_per_core=warmup + events, seed=seed,
        l2_lines=config.l2.n_lines, l1i_lines=config.l1i.n_lines,
    )
    instructions = ifetch = data = 0
    for core_events in pack.per_core_events:
        for gap, kind, _addr in core_events[warmup:]:
            instructions += gap
            if kind == 0:
                ifetch += 1
            else:
                data += 1
    return instructions, ifetch, data


def check_result(result, expected_digest: Optional[str], expected_trace) -> List[str]:
    """Checks that hold for any seed, plus the recorded digest."""
    problems = []
    got = digest(result)
    if expected_digest is None:
        problems.append("no recorded digest")
    elif got != expected_digest:
        problems.append(f"fingerprint {got} != recorded {expected_digest}")
    instructions, ifetch, data = expected_trace
    if result.instructions != instructions:
        problems.append(f"instructions {result.instructions} != trace {instructions}")
    if result.l1i.demand_accesses != ifetch or result.l1d.demand_accesses != data:
        problems.append(
            f"L1 demand accesses {result.l1i.demand_accesses}/"
            f"{result.l1d.demand_accesses} != trace {ifetch}/{data}"
        )
    link = result.link
    if link.bytes_total != link.bytes_header + link.bytes_data:
        problems.append(
            f"link bytes_total {link.bytes_total} != header {link.bytes_header}"
            f" + data {link.bytes_data}"
        )
    return problems


def ledger_probe(outcome: Outcome, label: str, workload: str, key: str, seed: int,
                 events: int) -> None:
    """``useful <= issued`` per prefetcher, on a run without a warmup reset.

    On the measured window the check fails, from a model accounting
    defect: ``reset_stats`` zeroes the counters but keeps the cache
    contents and their prefetch bits, so a prefetch issued during warmup
    is counted useful after it without being counted issued (at 1000 +
    1000 events per core, apsi/pref seed 1 counts 1429 useful L2
    prefetches of 1384 issued).  A ledger that starts with the run has
    no such carry-in.  The probe is not timed.
    """
    try:
        system = CMPSystem(point_config(key, False), workload, seed=seed)
        result = system.run(events, warmup_events=0, config_name=key)
    except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
        outcome.point(label, [f"raised {exc!r}"])
        return
    outcome.point(label, [
        f"pf {level}: useful {stats.useful} > issued {stats.issued}"
        for level, stats in sorted(result.prefetch.items())
        if stats.useful > stats.issued
    ])


def sim_metrics(results) -> Dict[str, float]:
    """Simulated counters summed over points; ratios are re-derived from
    the sums (compression ratio and link occupancy are point means)."""
    results = list(results)
    s = Counter()
    for r in results:
        s["l1i.demand_misses"] += r.l1i.demand_misses
        s["l1d.demand_misses"] += r.l1d.demand_misses
        s["l2.demand_accesses"] += r.l2.demand_accesses
        s["l2.demand_misses"] += r.l2.demand_misses
        s["l2.evictions"] += r.l2.evictions
        s["l2.writebacks"] += r.l2.writebacks
        s["l2.compressed_hits"] += r.l2.compressed_hits
        for lvl in ("l1i", "l1d", "l2"):
            stats = r.prefetch.get(lvl)
            if stats is not None:
                s[f"pf.{lvl}.issued"] += stats.issued
                s[f"pf.{lvl}.useful"] += stats.useful
                if lvl == "l2":
                    s["pf.l2.dropped"] += stats.dropped
                    s["pf.l2.throttled"] += stats.throttled
        s["link.messages"] += r.link.messages
        s["link.bytes_total"] += r.link.bytes_total
        s["link.queue_cycles"] += r.link.queue_cycles
        s["dram.demand"] += r.extra.get("dram_demand", 0.0)
        s["dram.prefetch"] += r.extra.get("dram_prefetch", 0.0)
        s["l1d.upgrades"] += r.l1d.upgrades
        s["l1d.coherence_invalidations"] += r.l1d.coherence_invalidations
        s["instructions"] += r.instructions
        s["cycles"] += r.elapsed_cycles
        s["memory_stall_cycles"] += r.extra.get("memory_stall_cycles", 0.0)
        for cls in ("compulsory", "capacity", "pollution", "expansion"):
            s[f"attr.{cls}"] += r.extra.get(f"attr_miss_{cls}", 0.0)
    n = len(results) or 1
    s["compr.ratio"] = sum(r.compression_ratio for r in results) / n
    s["link.occupancy"] = sum(r.extra.get("link_occupancy", 0.0) for r in results) / n
    s["ipc"] = s["instructions"] / s["cycles"] if s["cycles"] else 0.0
    for lvl in ("l1i", "l1d", "l2"):
        issued = s[f"pf.{lvl}.issued"]
        s[f"pf.{lvl}.accuracy"] = s[f"pf.{lvl}.useful"] / issued if issued else 0.0
    return {name: float(s[name[len("sim."):]]) for name, _unit in SIM_METRICS}


def host_layers(stats: pstats.Stats) -> Dict[str, float]:
    """cProfile self time and calls rolled up per ``src/repro`` layer.
    ``core.*`` modules keep their second level; other unnamed ``repro``
    modules go to ``host.rest``, non-``repro`` frames to ``host.other``."""
    out = {name: 0.0 for name, _unit in per_layer_metrics() if name.startswith("host.")}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        component = component_of(filename)
        if component is None:
            out["host.other.self_s"] += tottime
            continue
        parts = component.split(".")
        layer = ".".join(parts[:2]) if parts[0] == "core" else parts[0]
        if layer in LAYERS:
            out[f"host.{layer}.self_s"] += tottime
            out[f"host.{layer}.calls"] += ncalls
        else:
            out["host.rest.self_s"] += tottime
    return out


def diskcache_calls(stats: pstats.Stats) -> Dict[str, float]:
    """Cumulative time and calls of the public ``DiskCache.get``/``put``."""
    out = {"diskcache.get_s": 0.0, "diskcache.get_calls": 0.0,
           "diskcache.put_s": 0.0, "diskcache.put_calls": 0.0}
    for (filename, _line, func), (_cc, ncalls, _tt, cumtime, _callers) in stats.stats.items():
        if func in ("get", "put") and component_of(filename) == "core.diskcache":
            out[f"diskcache.{func}_s"] += cumtime
            out[f"diskcache.{func}_calls"] += ncalls
    return out


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process in MiB; with ``include_children`` plus
    the peak of its largest reaped child (a sweep worker)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process (pool workers shut down without
    waiting) so nothing outlives a pass or overlaps the next one."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- in-process workloads: base, pref_compr, explain ----------------------------


@dataclass
class PassTimes:
    setup_s: float = 0.0
    sim_s: float = 0.0
    events: int = 0

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sim_s


class InProcess:
    """One of the in-process workloads: each point is a fresh
    ``CMPSystem`` built and run directly, so no memo or disk-cache entry
    can ever serve a result."""

    def __init__(self, name: str, seed: int, size: Size, expected: Dict[str, str]) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.key, self.attribution = INPROC[name]
        self.expected = expected
        self.engines = set()
        self.trace_expected = {
            wl: trace_expectation(wl, seed, size.events, size.warmup)
            for wl in INPROC_WORKLOADS
        }

    def run_pass(self, outcome: Outcome, profiler: Optional[cProfile.Profile] = None):
        """Build and run every point once; returns host times and results.
        Checks run after the timed region of each point."""
        gc.collect()
        times = PassTimes()
        results = []
        size = self.size
        for wl in INPROC_WORKLOADS:
            label = f"{self.name}:{wl}/{self.key}"
            try:
                if profiler is not None:
                    profiler.enable()
                t0 = time.perf_counter()
                system = CMPSystem(point_config(self.key, self.attribution), wl, seed=self.seed)
                t1 = time.perf_counter()
                result = system.run(size.events, warmup_events=size.warmup, config_name=self.key)
                t2 = time.perf_counter()
                if profiler is not None:
                    profiler.disable()
            except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
                if profiler is not None:
                    profiler.disable()
                outcome.point(label, [f"raised {exc!r}"])
                continue
            times.setup_s += t1 - t0
            times.sim_s += t2 - t1
            times.events += (size.events + size.warmup) * N_CORES
            self.engines.add(system.engine)
            problems = check_result(
                result, self.expected.get(f"inproc:{wl}/{self.key}"), self.trace_expected[wl]
            )
            tracker = system.hierarchy.attribution
            if self.attribution:
                if tracker is None:
                    problems.append("attribution requested but not attached")
                else:
                    problems.extend(tracker.reconcile_result(result))
            outcome.point(label, problems)
            results.append(result)
        return times, results

    def probe(self, outcome: Outcome) -> None:
        if CONFIG_FEATURES[self.key]["prefetching"]:
            for wl in INPROC_WORKLOADS:
                ledger_probe(outcome, f"{self.name}:probe:{wl}/{self.key}", wl, self.key,
                             self.seed, self.size.probe_events)

    def timed(self, seconds: float, import_s: float, outcome: Outcome,
              reference: Reference) -> Dict[str, float]:
        raw = {"events_per_s": [], "wall_s": [], "setup_s": []}
        slowdowns = []
        start = time.perf_counter()
        while True:
            slowdown = reference.slowdown()
            times, _results = self.run_pass(outcome)
            if times.sim_s > 0:
                slowdowns.append(slowdown)
                raw["events_per_s"].append(times.events / times.sim_s)
                raw["wall_s"].append(times.wall_s)
                raw["setup_s"].append(times.setup_s)
            elapsed = time.perf_counter() - start
            if len(slowdowns) >= 2 and elapsed + elapsed / len(slowdowns) > seconds:
                break
        return {
            **scaled(raw, slowdowns, import_s, reference),
            "peak_rss_mb": peak_rss_mb(include_children=False),
        }

    def traced(self, outcome: Outcome) -> Dict[str, float]:
        plain, plain_results = self.run_pass(outcome)
        profiler = cProfile.Profile()
        traced, traced_results = self.run_pass(outcome, profiler)
        metrics = empty_per_layer()
        metrics.update(host_layers(pstats.Stats(profiler)))
        metrics["host.trace_overhead"] = traced.wall_s / plain.wall_s if plain.wall_s else 0.0
        sims = sim_metrics(plain_results)
        compare_traced(outcome, self.name, plain_results, traced_results, sims)
        metrics.update(sims)
        return metrics


def compare_traced(outcome: Outcome, name: str, plain, traced, sims: Dict[str, float]) -> None:
    """The traced run must simulate exactly what the untraced run did."""
    problems = []
    if [digest(r) for r in plain] != [digest(r) for r in traced]:
        problems.append("traced fingerprints differ from untraced")
    if sim_metrics(traced) != sims:
        problems.append("traced sim.* values differ from untraced")
    outcome.point(f"{name}:traced-vs-untraced", problems)


def empty_per_layer() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in per_layer_metrics()}


# -- table5: the paper's 8 x 4 sweep through Sweep.run(jobs=N) -------------------


class SourceCounter:
    """Sweep progress hook: where each point came from, and resilience
    events (retries, pool restarts)."""

    def __init__(self) -> None:
        self.sources: Counter = Counter()
        self.events: Counter = Counter()

    def point_done(self, done: int, total: int, source=None) -> None:
        self.sources[source] += 1

    def event(self, kind: str) -> None:
        self.events[kind] += 1


@dataclass
class SweepPass:
    wall_s: float
    results: Dict[Tuple, object]
    counter: SourceCounter
    #: From the pass's telemetry, when it had one: ``simulate`` records
    #: (host seconds of warmup + measured simulation, per point) and
    #: ``point`` records of simulated points (``run_point`` wall).
    sim_walls: List[float] = field(default_factory=list)
    point_walls: List[float] = field(default_factory=list)


class Table5:
    """The paper's Table 5 sweep (8 workloads x base/pref/compr/pref_compr):
    a cold pass against an empty private disk cache, then warm passes
    with the in-process memo dropped, so every point is a disk read.

    Points simulate inside pool workers, so the cold pass also points
    ``REPRO_TELEMETRY`` at a private file: its ``simulate`` and ``point``
    records carry each point's host time, read back after the pass.
    """

    WARM_PASSES = 10

    def __init__(self, seed: int, size: Size, expected: Dict[str, str], tmp_root: str, jobs: int) -> None:
        self.seed = seed
        self.size = size
        self.expected = expected
        self.tmp_root = tmp_root
        self.jobs = jobs
        # Workers resolve the engine from the config alone: run.py has
        # removed REPRO_ENGINE from the environment they inherit.
        self.engines = {point_config("base", False).engine}
        self.trace_expected = {
            wl: trace_expectation(wl, seed, size.t5_events, size.t5_warmup)
            for wl in TABLE5_WORKLOADS
        }
        self.events_per_pass = (
            len(TABLE5_WORKLOADS) * len(TABLE5_CONFIGS)
            * (size.t5_events + size.t5_warmup) * N_CORES
        )

    def new_round_dir(self) -> str:
        """A fresh private directory; the disk cache points at an empty
        ``cache`` directory inside it."""
        clear_cache()
        path = tempfile.mkdtemp(prefix="round-", dir=self.tmp_root)
        os.environ["REPRO_CACHE_DIR"] = os.path.join(path, "cache")
        return path

    def sweep_pass(self, sweep: Sweep, jobs: int,
                   profiler: Optional[cProfile.Profile] = None,
                   telemetry_path: Optional[str] = None) -> SweepPass:
        counter = SourceCounter()
        if telemetry_path is not None:
            os.environ[telemetry.ENV_VAR] = telemetry_path
        gc.collect()
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            res = sweep.run(
                events=self.size.t5_events, warmup=self.size.t5_warmup, jobs=jobs,
                progress=counter, seed=self.seed, n_cores=N_CORES, scale=SCALE,
                bandwidth_gbs=BANDWIDTH_GBS,
            )
        finally:
            t1 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
            reap_children()
            os.environ.pop(telemetry.ENV_VAR, None)
            telemetry.close_sinks()
        points = dict(res.points)
        points.update(res.errors)
        sp = SweepPass(t1 - t0, points, counter)
        if telemetry_path is not None and os.path.exists(telemetry_path):
            for rec in telemetry.read_records(telemetry_path):
                if rec.get("kind") == "simulate":
                    sp.sim_walls.append(float(rec["wall_s"]))
                elif rec.get("kind") == "point" and rec.get("source") == "sim":
                    sp.point_walls.append(float(rec["wall_s"]))
        return sp

    def check_cold(self, outcome: Outcome, sp: SweepPass, tag: str) -> None:
        for (wl, key), result in sorted(sp.results.items()):
            label = f"table5:{tag}:{wl}/{key}"
            if isinstance(result, PointError):
                outcome.point(label, [f"[{result.kind}] {result.error}"])
                continue
            outcome.point(label, check_result(
                result, self.expected.get(f"table5:{wl}/{key}"), self.trace_expected[wl]
            ))
        if sp.counter.sources.get("sim", 0) != len(sp.results):
            outcome.point(f"table5:{tag}:isolation",
                          [f"cold pass sources {dict(sp.counter.sources)}, expected all 'sim'"])
        n = len(TABLE5_WORKLOADS) * len(TABLE5_CONFIGS)
        if len(sp.sim_walls) != n or len(sp.point_walls) != n:
            outcome.point(f"table5:{tag}:telemetry", [
                f"{len(sp.sim_walls)} simulate and {len(sp.point_walls)} point records,"
                f" expected {n} each"
            ])

    def check_warm(self, outcome: Outcome, cold: SweepPass, warm: SweepPass, tag: str) -> None:
        for coord, result in sorted(warm.results.items()):
            label = f"table5:{tag}:{coord[0]}/{coord[1]}"
            problems = []
            if isinstance(result, PointError):
                problems.append(f"[{result.kind}] {result.error}")
            elif isinstance(cold.results.get(coord), PointError) or (
                    digest(result) != digest(cold.results[coord])):
                problems.append("warm fingerprint differs from cold")
            outcome.point(label, problems)
        if warm.counter.sources.get("disk", 0) != len(warm.results):
            outcome.point(f"table5:{tag}:isolation",
                          [f"warm pass sources {dict(warm.counter.sources)}, expected all 'disk'"])

    def round(self, outcome: Outcome, jobs: int, warm_passes: int,
              profiler: Optional[cProfile.Profile] = None) -> Tuple[float, SweepPass, List[SweepPass]]:
        """A cold pass plus ``warm_passes`` warm ones on a fresh cache;
        returns (set-up seconds, cold pass, warm passes)."""
        t0 = time.perf_counter()
        round_dir = self.new_round_dir()
        sweep = (Sweep()
                 .dimension("workload", list(TABLE5_WORKLOADS))
                 .dimension("key", list(TABLE5_CONFIGS)))
        setup_s = time.perf_counter() - t0
        try:
            cold = self.sweep_pass(sweep, jobs, profiler,
                                   os.path.join(round_dir, "telemetry.jsonl"))
            self.check_cold(outcome, cold, f"cold-j{jobs}")
            warms = []
            for _ in range(warm_passes):
                clear_cache()
                warm = self.sweep_pass(sweep, jobs, profiler)
                self.check_warm(outcome, cold, warm, f"warm-j{jobs}")
                warms.append(warm)
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        return setup_s, cold, warms

    def probe(self, outcome: Outcome) -> None:
        for wl in TABLE5_WORKLOADS:
            for key in TABLE5_CONFIGS:
                if CONFIG_FEATURES[key]["prefetching"]:
                    ledger_probe(outcome, f"table5:probe:{wl}/{key}", wl, key, self.seed,
                                 self.size.probe_events)

    def timed(self, seconds: float, import_s: float, outcome: Outcome,
              reference: Reference) -> Dict[str, float]:
        raw = {"events_per_s": [], "wall_s": [], "setup_s": []}
        slowdowns, warms = [], []
        start = time.perf_counter()
        while True:
            slowdown = reference.slowdown()
            setup_s, cold, warm = self.round(outcome, self.jobs, self.WARM_PASSES)
            sim_s = sum(cold.sim_walls)
            if sim_s > 0:
                slowdowns.append(slowdown)
                raw["events_per_s"].append(self.events_per_pass / sim_s)
                raw["wall_s"].append(cold.wall_s)
                raw["setup_s"].append(setup_s)
            warms.extend(w.wall_s for w in warm)
            elapsed = time.perf_counter() - start
            if len(slowdowns) >= 2 and elapsed + elapsed / len(slowdowns) > seconds:
                break
        return {
            **scaled(raw, slowdowns, import_s, reference),
            "peak_rss_mb": peak_rss_mb(include_children=True),
            "warm_wall_s": median(warms),
        }

    def traced(self, outcome: Outcome) -> Dict[str, float]:
        """Serial in-process rounds, untraced then under cProfile (so
        ``run_point`` and ``DiskCache.get``/``put`` are visible, unlike in
        the timed jobs=N pass), then one jobs=N round for the runner's
        counters."""
        _s, plain_cold, plain_warm = self.round(outcome, 1, 1)
        profiler = cProfile.Profile()
        _s, traced_cold, traced_warm = self.round(outcome, 1, 1, profiler)
        _s, par_cold, par_warm = self.round(outcome, self.jobs, 1)
        stats = pstats.Stats(profiler)
        metrics = empty_per_layer()
        metrics.update(host_layers(stats))
        metrics.update(diskcache_calls(stats))
        plain_wall = plain_cold.wall_s + plain_warm[0].wall_s
        traced_wall = traced_cold.wall_s + traced_warm[0].wall_s
        metrics["host.trace_overhead"] = traced_wall / plain_wall
        metrics["runner.points_simulated"] = float(par_cold.counter.sources.get("sim", 0))
        metrics["runner.retries"] = float(
            par_cold.counter.events.get("retry", 0) + par_warm[0].counter.events.get("retry", 0)
        )
        metrics["runner.worker_busy_share"] = (
            sum(par_cold.point_walls) / (self.jobs * par_cold.wall_s)
        )
        metrics["runner.points_disk"] = float(par_warm[0].counter.sources.get("disk", 0))
        metrics["runner.points_memo"] = float(par_warm[0].counter.sources.get("memo", 0))
        plain = ordered_results(plain_cold)
        sims = sim_metrics(plain)
        compare_traced(outcome, "table5", plain, ordered_results(traced_cold), sims)
        compare_traced(outcome, "table5-jobs", plain, ordered_results(par_cold), sims)
        metrics.update(sims)
        metrics.update(table5_accuracy(plain_cold.results))
        return metrics


def ordered_results(sp: SweepPass) -> List:
    return [r for _c, r in sorted(sp.results.items()) if not isinstance(r, PointError)]


def table5_accuracy(results: Dict[Tuple, object]) -> Dict[str, float]:
    """EQ 5 interaction per workload, and the mean absolute difference in
    percentage points from the paper's Table 5 (pref, compr, both,
    interaction) — error against the paper's simulator, not hardware."""
    out = {}
    errors = []
    for wl in TABLE5_WORKLOADS:
        runs = [results.get((wl, key)) for key in TABLE5_CONFIGS]
        if any(r is None or isinstance(r, PointError) for r in runs):
            continue
        b = InteractionBreakdown.from_runtimes(wl, *(r.runtime for r in runs))
        ours = (100 * (b.speedup_a - 1), 100 * (b.speedup_b - 1),
                100 * (b.speedup_ab - 1), 100 * b.interaction)
        out[f"sim.table5.{wl}.interaction_pct"] = ours[3]
        errors.extend(abs(o - p) for o, p in zip(ours, PAPER_TABLE5[wl]))
    out["sim.table5.mean_abs_err_pp"] = sum(errors) / len(errors) if errors else 0.0
    return out


def import_samples(src: str, n: int) -> List[float]:
    """Seconds to ``import repro`` in ``n`` fresh interpreters (timed
    inside each, so interpreter start-up is excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import repro; print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", code, src], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def load_expected(path: str, size: str, seed: int) -> Dict[str, str]:
    """Recorded digests for one size and simulation seed, keyed
    ``inproc:<workload>/<config>`` and ``table5:<workload>/<config>``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["digests"].get(size, {}).get(str(seed), {})
