"""Host-throughput benchmark of the repro simulator.

Run from the repository root::

    python3 perfbench/run.py --workload base --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``base``, ``explain`` — zeus, oltp, mgrid and chase under ``base``,
  and under ``pref_compr`` with causal attribution on; each point a
  fresh ``CMPSystem`` built and run in process;
* ``table5`` — the paper's 8 x 4 sweep through ``Sweep.run(jobs=N)``,
  cold against an empty private disk cache (with a private telemetry
  file for per-point host times), then warm from it.

``--trace 0`` repeats the workload for ``--seconds`` and prints the
end-to-end metrics, with host times in reference seconds (see
``bench.Reference``); ``--trace 1`` runs it once untraced and once under
cProfile and prints the per-layer metrics.  Every point is checked for
correctness.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (private disk caches); removed on exit.
TMP_PARENT = ROOT / ".perfbench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("base", "explain", "table5"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="point size; 'tiny' is for the smoke test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded result digests (default: %(default)s)")
    return parser.parse_args(argv)


def scrub_env():
    """Drop every REPRO_* knob so ambient settings (engine, snapshots,
    audit, faults, cache location...) cannot change what is measured.
    Pool workers inherit the scrubbed environment."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    removed = scrub_env()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro
    first_import_s = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench

    seed = args.seed % bench.SEED_RANGE
    size = bench.SIZES[args.size]
    expected = bench.load_expected(args.expected, args.size, seed)
    jobs = len(os.sched_getaffinity(0))
    outcome = bench.Outcome()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    reference = None if args.trace else bench.Reference()
    try:
        if args.workload == "table5":
            workload = bench.Table5(seed, size, expected, tmp_root, jobs)
        else:
            workload = bench.InProcess(args.workload, seed, size, expected)
        if args.trace:
            metrics = workload.traced(outcome)
            units = dict(bench.per_layer_metrics())
        else:
            # A first, untimed run of the reference loop waits for it to
            # build its data, so the import samples do not compete with it.
            reference.slowdown()
            reference.samples.clear()
            # Import time: this process's first import and three fresh
            # interpreters, median.
            import_s = bench.median([first_import_s] + bench.import_samples(str(SRC), 3))
            metrics = workload.timed(args.seconds, import_s, outcome, reference)
            units = dict(bench.end_to_end_metrics())
        workload.probe(outcome)
    finally:
        if reference is not None:
            reference.close()
        bench.reap_children()
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    info = {
        "workload": args.workload, "seed": args.seed, "sim_seed": seed,
        "size": args.size, "trace": args.trace, "engine": ",".join(sorted(workload.engines)),
        "jobs": jobs if args.workload == "table5" else 1,
        "passes": metrics.pop("_passes", None), "removed_env": removed,
    }
    print("# perfbench " + json.dumps(info, sort_keys=True))
    for problem in outcome.problems:
        print(f"# FAILED {problem}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# {'error_rate':40s} {error_rate:14.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} points)")
    if args.trace:
        print("# host.core.hierarchy includes the L1 hit path, which is inlined there;"
              " metrics that do not apply to this workload read 0")
        print("# sim.pf.*.useful and accuracy count prefetches issued in warmup and used"
              " after it (reset_stats keeps their prefetch bits), so accuracy can read"
              " above 1: a model accounting defect, not a benchmark error")
    for name, unit in units.items():
        print(f"# {name:40s} {metrics[name]:14.6g} {unit}")
    for name, unit in bench.UNBOUNDED_METRICS.items():
        if name in metrics:
            print(f"# {name:40s} {metrics.pop(name):14.6g} {unit} (not bounded)")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
