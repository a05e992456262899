"""Smoke test of the benchmark at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit
in both modes, that every correctness check passes, and that a corrupted
expected digest is counted as a failed point.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    code, lines, out = run_bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, lines
    assert code == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    for m in wanted:
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("# error_rate") for line in lines)
    if workload == "table5" and not trace:
        assert any(line.startswith("# warm_wall_s") for line in lines)
    assert '"engine": "ref"' in lines[0]


@pytest.mark.parametrize("workload", ["explain", "table5"])
def test_corrupted_digest_counts_as_failure(workload, tmp_path):
    data = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    digests = data["digests"]["tiny"][str(SEED)]
    group = "table5" if workload == "table5" else "inproc"
    key = f"{group}:zeus/pref_compr"
    digests[key] = "0" * len(digests[key])
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(data), encoding="utf-8")
    code, lines, out = run_bench(workload, 0, "--expected", str(corrupted))
    assert out["correct"] is False and out["failed"] >= 1
    assert code == 1
    assert any("zeus/pref_compr" in line and "recorded 0000" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "base", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
