"""On-disk result cache: keying, round-trips, corruption, counters."""

import json

import pytest

from repro import small_config
from repro.harness import (
    ResultCache,
    RunSpec,
    Scheduler,
    SweepPlan,
    code_fingerprint,
    run_spec,
    spec_key,
)
from repro.obs import MetricRegistry
from repro.workloads import workload_class
from tests.conftest import shipped_spec

TREEADD = workload_class("treeadd").test_params()


@pytest.fixture(scope="module")
def cfg():
    return small_config()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeying:
    def test_fingerprint_is_stable_sha256(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_key_covers_every_input(self, cfg):
        base = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        k = spec_key(base)
        assert k == spec_key(base)
        others = [
            RunSpec.make("power", "baseline", "none", cfg, TREEADD),
            RunSpec.make("treeadd", "sw:queue", "none", cfg, TREEADD),
            RunSpec.make("treeadd", "baseline", "dbp", cfg, TREEADD),
            RunSpec.make("treeadd", "baseline", "none", cfg.perfect(), TREEADD),
            RunSpec.make("treeadd", "baseline", "none", cfg,
                         {**TREEADD, "passes": 99}),
        ]
        keys = {k} | {spec_key(o) for o in others}
        assert len(keys) == len(others) + 1


class TestRoundTrip:
    def test_warm_run_reproduces_cold_scheme_runs(self, cfg, cache):
        def matrix():
            plan = SweepPlan(cfg)
            runs = [plan.add_run("treeadd", s, TREEADD)
                    for s in ("base", "software", "hardware")]
            results = plan.execute(Scheduler(cache=cache))
            return [results.scheme_run(sr) for sr in runs]

        cold = matrix()
        assert cache.hits == 0 and cache.writes > 0
        warm = matrix()
        assert cache.misses == cache.writes  # every miss was then stored
        assert cache.hits == cache.writes    # ...and served the re-run
        # SchemeRun and the nested SimResult are dataclasses: this is a
        # deep, field-by-field equality including all stats counters.
        assert warm == cold

    def test_figure5_rows_identical_cold_vs_warm(self, cfg, cache):
        spec = shipped_spec("figure5", ("treeadd",), {"treeadd": TREEADD})
        assert (run_spec(spec, cfg, Scheduler(cache=cache))
                == run_spec(spec, cfg, Scheduler(cache=cache)))
        assert cache.hits > 0

    def test_miss_intervals_never_cached(self, cfg, cache):
        from repro.cpu.simulator import simulate
        from repro.workloads import get_workload
        program = get_workload("treeadd", **TREEADD).build("baseline").program
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        result = simulate(program, cfg, engine="none",
                          collect_miss_intervals=True)
        cache.put(spec, result)
        back = cache.get(spec)
        assert back.hierarchy.miss_intervals is None
        assert back.cycles == result.cycles


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(spec) is None
        assert cache.stats()["invalid"] == 0  # unreadable, not schema-bad

    def test_unreadable_entry_counts_and_logs(self, cfg, cache, caplog):
        # Corruption/permission failures must never masquerade as a
        # plain cold miss: the read_errors counter and a warning naming
        # the path are the corruption drill's evidence.
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            assert cache.get(spec) is None
        assert cache.read_errors == 1
        assert cache.stats()["read_errors"] == 1
        assert any(str(path) in rec.getMessage() for rec in caplog.records)

    def test_cold_miss_is_not_a_read_error(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        assert cache.get(spec) is None
        assert cache.read_errors == 0
        assert cache.misses == 1

    def test_read_error_counter_in_registry(self, cfg, tmp_path):
        registry = MetricRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("not even close")
        assert cache.get(spec) is None
        dump = registry.to_dict()
        assert dump["cache.read_errors"]["value"] == 1
        assert dump["cache.misses"]["value"] == 1

    def test_wrong_schema_is_invalid(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "repro.other/1", "result": {}}))
        assert cache.get(spec) is None
        assert cache.stats()["invalid"] == 1

    def test_counters_in_registry(self, cfg, tmp_path):
        registry = MetricRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        assert cache.get(spec) is None
        dump = registry.to_dict()
        assert dump["cache.misses"]["value"] == 1
        assert dump["cache.hits"]["value"] == 0
