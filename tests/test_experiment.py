"""Tests for the experiment harness (config matrix, env knobs, caching)."""

from __future__ import annotations

import pytest

from repro.core.experiment import (
    CONFIG_FEATURES,
    clear_cache,
    default_events,
    default_scale,
    default_seeds,
    make_config,
    run_point,
)
from repro.core.sweep import Sweep


class TestConfigMatrix:
    def test_all_paper_combos_present(self):
        for key in ("base", "pref", "adaptive", "cache_compr", "link_compr",
                    "compr", "pref_compr", "adaptive_compr"):
            assert key in CONFIG_FEATURES

    def test_base_has_nothing(self):
        cfg = make_config("base", scale=4)
        assert not cfg.cache_compression and not cfg.link_compression
        assert not cfg.prefetch.enabled

    def test_pref_compr_has_everything_but_adaptive(self):
        cfg = make_config("pref_compr", scale=4)
        assert cfg.cache_compression and cfg.link_compression
        assert cfg.prefetch.enabled and not cfg.prefetch.adaptive

    def test_adaptive_compr(self):
        cfg = make_config("adaptive_compr", scale=4)
        assert cfg.prefetch.adaptive

    def test_infinite_bandwidth_option(self):
        cfg = make_config("base", scale=4, infinite_bandwidth=True)
        assert cfg.link.bandwidth_gbs is None

    def test_custom_bandwidth(self):
        cfg = make_config("base", scale=4, bandwidth_gbs=40.0)
        assert cfg.link.bandwidth_gbs == 40.0

    def test_core_count(self):
        assert make_config("base", n_cores=16, scale=4).n_cores == 16

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            make_config("turbo")

    def test_scale_applied(self):
        assert make_config("base", scale=4).l2.size_bytes == 1024 * 1024
        assert make_config("base", scale=1).l2.size_bytes == 4 * 1024 * 1024


class TestEnvKnobs:
    def test_defaults_positive(self):
        assert default_events() > 0
        assert default_seeds() >= 1
        assert default_scale() >= 1


class TestRunHelpers:
    def test_run_point_caching(self):
        clear_cache()
        a = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2)
        b = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2)
        assert a is b  # memoised
        c = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2, use_cache=False)
        assert c is not a

    def test_seed_dimension_count(self):
        clear_cache()
        sweep = Sweep().dimension("workload", ["zeus"]).dimension("seed", [0, 1])
        results = sweep.run(events=150, warmup=50, scale=16, n_cores=2)
        assert len(results) == 2
        assert [r.seed for _c, r in results.slice(workload="zeus")] == [0, 1]

    def test_sweep_grid_keys(self):
        clear_cache()
        sweep = Sweep().dimension("workload", ["zeus"]).dimension("key", ["base", "pref"])
        out = sweep.run(events=150, warmup=50, scale=16, n_cores=2)
        assert set(out.points) == {("zeus", "base"), ("zeus", "pref")}
        clear_cache()
