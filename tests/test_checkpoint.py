"""The sweep checkpoint: the disk cache as the one result store.

``repro sweep --resume`` trusts whatever the disk cache holds, so the
store's contracts are pinned directly: every complete result is stored
the moment it is computed (``use_cache`` only gates serving), a stored
result loads bit-identically, a torn or corrupt entry is never served,
failed and guard-truncated points are never stored, writes are fsynced
before the rename, and the key carries the model version, so a result
or snapshot written by other model code is never found.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from repro import faults
from repro.cli import main, resume_guard
from repro.core import diskcache
from repro.core import snapshot as snap
from repro.core.diskcache import DiskCache, point_key, source_digest
from repro.core.experiment import (
    _CACHE,
    clear_cache,
    last_point_source,
    make_config,
    run_point,
)
from repro.core.sweep import Sweep
from repro.obs.telemetry import close_sinks, read_records
from repro.report.export import result_fingerprint, result_from_dict

FAST = dict(events=200, warmup=100, scale=16, n_cores=2)
SWEEP_ARGV = ["sweep", "--workloads", "zeus", "--configs", "base,pref",
              "--events", "200", "--warmup", "100", "--scale", "16",
              "--cores", "2", "--jobs", "1", "--quiet"]


@pytest.fixture(autouse=True)
def _private_cache(monkeypatch, tmp_path):
    """A fresh cache root and an empty memo for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_CACHE", "REPRO_FAULTS", "REPRO_TELEMETRY",
                snap.ENV_INTERVAL, snap.ENV_RESUME, snap.ENV_DEADLINE,
                snap.ENV_MEM_LIMIT):
        monkeypatch.delenv(var, raising=False)
    faults.reset()
    clear_cache()
    yield
    faults.reset()
    close_sinks()
    clear_cache()


def _key(workload="zeus", key="base"):
    cfg = make_config(key, n_cores=FAST["n_cores"], scale=FAST["scale"])
    return point_key(cfg, workload, 0, FAST["events"], FAST["warmup"])


def _entries():
    return DiskCache().stats()["entries"]


@pytest.fixture
def result():
    return run_point("zeus", "base", **FAST, use_cache=False)


class TestKeys:
    def test_spec_key_stable_and_discriminating(self, monkeypatch):
        a = _key()
        assert a == _key()
        assert len(a) == 64
        assert a != _key("jbb")
        assert a != _key(key="pref")
        monkeypatch.setattr(diskcache, "model_version", lambda: "0" * 64)
        assert _key() != a  # other model code, other key


class TestJournal:
    """The contracts a sweep's record of finished points must keep, as
    the disk cache keeps them."""

    def test_result_round_trip_bit_identical(self, result):
        store = DiskCache()
        store.put("k1", result)
        restored = store.get("k1")
        assert restored is not None
        assert result_fingerprint(restored) == result_fingerprint(result)
        assert store.get("missing") is None

    def test_error_records_not_completed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transient@0x99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        sweep = (Sweep().dimension("workload", ["zeus", "jbb"])
                 .dimension("key", ["base"]))
        partial = sweep.run(jobs=1, **FAST, use_cache=False)
        assert list(partial.errors) == [("zeus", "base")]
        assert list(partial.points) == [("jbb", "base")]
        assert _entries() == 1
        assert not DiskCache().contains(_key("zeus"))
        assert DiskCache().contains(_key("jbb"))

    def test_truncated_tail_skipped(self, result):
        store = DiskCache()
        store.put(_key(), result)
        path = store.path_for(_key())
        with open(path, "r+", encoding="utf-8") as fh:
            size = len(fh.read())
            fh.truncate(size // 2)  # a write torn mid-entry
        assert store.get(_key()) is None
        assert not os.path.exists(path)  # quarantined, never re-read
        clear_cache()
        again = run_point("zeus", "base", **FAST)
        assert last_point_source() == "sim"
        assert result_fingerprint(again) == result_fingerprint(result)

    def test_last_record_per_key_wins(self, result):
        other = run_point("jbb", "base", **FAST, use_cache=False)
        store = DiskCache()
        store.put("k1", other)
        store.put("k1", result)
        assert result_fingerprint(store.get("k1")) == result_fingerprint(result)
        assert _entries() == 3  # zeus, jbb and k1

    def test_fresh_journal_truncates_stale_file(self, result):
        """A run without --resume re-simulates and replaces whatever the
        cache held for the point."""
        stale = run_point("jbb", "base", **FAST, use_cache=False)
        DiskCache().put(_key(), stale)
        clear_cache()
        fresh = run_point("zeus", "base", **FAST, use_cache=False)
        assert last_point_source() == "sim"
        stored = DiskCache().get(_key())
        assert result_fingerprint(stored) == result_fingerprint(fresh)
        assert result_fingerprint(stored) != result_fingerprint(stale)

    def test_record_carries_fingerprint(self, result):
        with open(DiskCache().path_for(_key()), "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["checksum"] == diskcache._checksum(entry["result"])
        assert result_fingerprint(result_from_dict(entry["result"])) == (
            result_fingerprint(result)
        )

    def test_bad_result_record_degrades_to_recompute(self, result):
        bad = {"schema": -1}
        path = DiskCache().path_for(_key())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"checksum": diskcache._checksum(bad), "result": bad}, fh)
        clear_cache()
        again = run_point("zeus", "base", **FAST)  # never errors the sweep
        assert last_point_source() == "sim"
        assert result_fingerprint(again) == result_fingerprint(result)
        assert DiskCache().stats()["quarantined"] == 1


class TestStore:
    def test_use_cache_false_stores_then_serves(self):
        first = run_point("zeus", "base", **FAST, use_cache=False)
        assert last_point_source() == "sim"
        assert _entries() == 1
        clear_cache()
        second = run_point("zeus", "base", **FAST, use_cache=True)
        assert last_point_source() == "disk"
        assert result_fingerprint(second) == result_fingerprint(first)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_truncated_result_never_stored(self, monkeypatch, tmp_path, use_cache):
        monkeypatch.setenv(snap.ENV_DIR, str(tmp_path / "snaps"))
        monkeypatch.setenv(snap.ENV_INTERVAL, "100")
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        partial = run_point("zeus", "base", **FAST, use_cache=use_cache)
        assert partial.extra.get("truncated")
        assert _entries() == 0
        assert not _CACHE

    def test_cache_off_stores_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        run_point("zeus", "base", **FAST, use_cache=False)
        run_point("zeus", "pref", **FAST)
        assert _entries() == 0

    def test_resume_without_cache_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(SWEEP_ARGV + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "--resume" in lines[0] and "REPRO_CACHE=0" in lines[0]

    def test_put_fsyncs_temp_file_before_rename(self, monkeypatch, result):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino, str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store = DiskCache()
        store.put("k1", result)
        (synced, renamed) = calls
        assert synced[0] == "fsync" and renamed[0] == "replace"
        assert synced[1] == renamed[1]  # the temp file that is renamed
        assert renamed[2] == store.path_for("k1")


class TestModelVersion:
    def test_version_flip_turns_hit_into_miss(self, monkeypatch):
        run_point("zeus", "base", **FAST)
        clear_cache()
        run_point("zeus", "base", **FAST)
        assert last_point_source() == "disk"
        monkeypatch.setattr(diskcache, "model_version", lambda: "f" * 64)
        clear_cache()
        run_point("zeus", "base", **FAST)
        assert last_point_source() == "sim"

    def test_resume_resimulates_under_other_version(
        self, monkeypatch, capsys, tmp_path
    ):
        assert main(SWEEP_ARGV) == 0
        first = capsys.readouterr().out
        monkeypatch.setattr(diskcache, "model_version", lambda: "f" * 64)
        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        clear_cache()
        assert main(SWEEP_ARGV + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        assert sources == ["sim", "sim"]

    def test_snapshot_from_other_version_not_resumed(self, monkeypatch, tmp_path):
        snaps = tmp_path / "snaps"
        monkeypatch.setenv(snap.ENV_DIR, str(snaps))
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv(snap.ENV_INTERVAL, "100")
        clean = run_point("zeus", "pref", **FAST, use_cache=False)
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        partial = run_point("zeus", "pref", **FAST, use_cache=False)
        assert partial.extra.get("truncated")
        assert list(snaps.glob("*.rpsn"))  # a chain to resume from

        monkeypatch.delenv(snap.ENV_DEADLINE)
        monkeypatch.setattr(diskcache, "model_version", lambda: "f" * 64)
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        final = run_point("zeus", "pref", **FAST, use_cache=False,
                          resume_snapshot=True)
        assert last_point_source() == "sim"
        assert result_fingerprint(final) == result_fingerprint(clean)
        actions = [r["action"] for r in read_records(tele) if r["kind"] == "snapshot"]
        assert "restore" not in actions

    def test_fresh_interpreters_agree(self):
        src = os.path.dirname(diskcache._PACKAGE_ROOT)
        env = dict(os.environ, PYTHONPATH=src)
        code = "from repro.core.diskcache import model_version; print(model_version())"
        versions = [
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
            for _ in range(2)
        ]
        assert versions[0] == versions[1] == source_digest(diskcache._PACKAGE_ROOT)
        assert len(versions[0]) == 64

    def test_one_byte_changes_version(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(diskcache._PACKAGE_ROOT, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = source_digest(str(tree))
        assert base == source_digest(diskcache._PACKAGE_ROOT)

        def flip(rel):
            path = tree / rel
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))

        for rel in ("cli.py", "knobs.py", "obs/telemetry.py", "report/export.py",
                    "verify/oracle.py", "faults/inject.py"):
            flip(rel)
        assert source_digest(str(tree)) == base  # not model code
        flip("cache/set_assoc.py")
        assert source_digest(str(tree)) != base


class TestResumeGuard:
    def test_sigint_prints_resume_command(self):
        out = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            with resume_guard("python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGINT)
        text = out.getvalue()
        assert f"finished points are stored in {DiskCache().root}" in text
        assert "resume with:\n  python -m repro sweep --resume" in text

    def test_sigterm_exits_143(self):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            with resume_guard("python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGTERM)
        assert exc.value.code == 143
        assert "resume with" in out.getvalue()

    def test_handlers_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with resume_guard("cmd", stream=io.StringIO()):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
