"""Regenerate perfbench/expected.json: the result digest of every point
the benchmark runs, per size and simulation seed.

Run from the repository root after a change that is *meant* to move
simulated results (a documented model fix)::

    python3 perfbench/record.py

Each point is simulated by building ``CMPSystem`` directly, independently
of the sweep, runner and disk-cache paths the benchmark then checks; one
worker process per available CPU.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from run import HERE, SRC, scrub_env

scrub_env()
sys.path.insert(0, str(SRC))

import bench  # noqa: E402  (needs src/ on the path)
from repro import CMPSystem  # noqa: E402


def _digest(workload: str, key: str, seed: int, events: int, warmup: int) -> str:
    system = CMPSystem(bench.point_config(key, False), workload, seed=seed)
    return bench.digest(system.run(events, warmup_events=warmup, config_name=key))


def record_seed(size_name: str, seed: int):
    size = bench.SIZES[size_name]
    out = {}
    for wl in bench.INPROC_WORKLOADS:
        for key in sorted({key for key, _attr in bench.INPROC.values()}):
            out[f"inproc:{wl}/{key}"] = _digest(wl, key, seed, size.events, size.warmup)
    for wl in bench.TABLE5_WORKLOADS:
        for key in bench.TABLE5_CONFIGS:
            out[f"table5:{wl}/{key}"] = _digest(wl, key, seed, size.t5_events, size.t5_warmup)
    return size_name, seed, out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    digests = {name: {} for name in bench.SIZES}
    tasks = [(name, seed) for name in bench.SIZES for seed in range(bench.SEED_RANGE)]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                             mp_context=spawn) as pool:
        for size_name, seed, out in pool.map(record_seed, *zip(*tasks)):
            digests[size_name][str(seed)] = out
            print(f"recorded {size_name} seed {seed}", file=sys.stderr)
    data = {
        "about": "result_fingerprint prefixes per size and simulation seed; "
                 "regenerate with perfbench/record.py",
        "sizes": {name: vars(size) for name, size in bench.SIZES.items()},
        "digests": digests,
    }
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
