"""The knob reader (:mod:`repro.knobs`): typed readers and readable
errors.  The observation layers' precedence rule is tested through the
layers themselves (test_obs, test_trace_metrics, test_attribution)."""

from __future__ import annotations

import pytest

from repro import knobs
from repro.cli import main
from repro.core import experiment, runner, snapshot
from repro.core.system import CMPSystem
from repro.obs.trace import Tracer
from repro.verify.fuzz import run_fuzz

from tests.conftest import make_tiny_system


class TestReaders:
    def test_integer_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert knobs.integer("REPRO_TEST_KNOB", 42, minimum=0) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert knobs.integer("REPRO_TEST_KNOB", 42, minimum=0) == 42

    def test_integer_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "7")
        assert knobs.integer("REPRO_TEST_KNOB", 42, minimum=0) == 7

    def test_number(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert knobs.number("REPRO_TEST_KNOB", None, minimum=0.0) is None
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        assert knobs.number("REPRO_TEST_KNOB", None, minimum=0.0) == 0.0
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB must be > 0"):
            knobs.number("REPRO_TEST_KNOB", None, minimum=0.0, inclusive=False)
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert knobs.number("REPRO_TEST_KNOB", None, minimum=0.0) == 2.5

    def test_text(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert knobs.text("REPRO_TEST_KNOB", "dflt") == "dflt"
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert knobs.text("REPRO_TEST_KNOB", "dflt") == "dflt"
        monkeypatch.setenv("REPRO_TEST_KNOB", "some/dir")
        assert knobs.text("REPRO_TEST_KNOB", "dflt") == "some/dir"


def _system():
    return CMPSystem(make_tiny_system(), "zeus", seed=0)


#: Every numeric knob: (name, a below-minimum value, the read it drives,
#: extra variables the read needs).  The reads go through the real call
#: sites, so each knob's minimum is checked where it is used.
NUMERIC_KNOBS = [
    ("REPRO_EVENTS", "0", experiment.default_events, {}),
    ("REPRO_WARMUP", "-1", experiment.default_warmup, {}),
    ("REPRO_SEEDS", "0", experiment.default_seeds, {}),
    ("REPRO_SCALE", "0", experiment.default_scale, {}),
    ("REPRO_MEMO_CAP", "-1", experiment.default_memo_cap, {}),
    ("REPRO_JOBS", "0", runner.default_jobs, {}),
    ("REPRO_RETRIES", "-1", runner.default_retries, {}),
    ("REPRO_POINT_TIMEOUT", "0", runner.default_point_timeout, {}),
    ("REPRO_RETRY_BACKOFF", "-1", lambda: runner._retry_backoff_s(0, 1), {}),
    ("REPRO_SNAPSHOT_INTERVAL", "-1", snapshot.snapshot_interval, {}),
    ("REPRO_DEADLINE", "-1", snapshot.ResourceGuard, {}),
    ("REPRO_MEM_LIMIT", "-1", snapshot.ResourceGuard, {}),
    ("REPRO_AUDIT_INTERVAL", "0", _system, {"REPRO_AUDIT": "1"}),
    ("REPRO_METRICS_INTERVAL", "0", _system, {"REPRO_METRICS": "1"}),
    ("REPRO_TRACE_LIMIT", "0", lambda: Tracer(1, 1), {}),
    ("REPRO_FUZZ_SEED", "-1", lambda: run_fuzz(0), {}),
]


@pytest.mark.parametrize(
    "name, below, read, extra", NUMERIC_KNOBS, ids=[k[0] for k in NUMERIC_KNOBS]
)
@pytest.mark.parametrize("bad", ["malformed", "below_minimum"])
def test_numeric_knob_rejects_bad_value(monkeypatch, name, below, read, extra, bad):
    for var, value in extra.items():
        monkeypatch.setenv(var, value)
    value = "abc" if bad == "malformed" else below
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError) as exc:
        read()
    assert name in str(exc.value) and repr(value) in str(exc.value)


def test_cli_bad_knob_is_one_line_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    monkeypatch.setenv("REPRO_AUDIT_INTERVAL", "0")
    rc = main(["run", "zeus", "--config", "base", "--events", "50",
               "--scale", "16", "--cores", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: REPRO_AUDIT_INTERVAL must be >= 1, got '0'\n"
