"""Experiment harness on reduced sizes: structural invariants of every
table/figure and of the X1/X2 extension experiments (the shipped spec
files, cut down)."""

import pytest

from repro import small_config
from repro.harness import SCHEMES, figure5_summary, run_spec
from repro.workloads import workload_class, workload_names
from tests.conftest import shipped_spec

SMALL = {name: workload_class(name).test_params() for name in workload_names()}
FAST_SET = ("treeadd", "power")


@pytest.fixture(scope="module")
def cfg():
    return small_config()


class TestTable1:
    def test_rows_cover_benchmarks(self, cfg):
        rows = run_spec(shipped_spec("table1", FAST_SET, SMALL), cfg)
        assert [r["benchmark"] for r in rows] == list(FAST_SET)
        for r in rows:
            assert 0 <= r["%lds loads"] <= 100
            assert 0 <= r["L1 miss%"] <= 100
            assert r["insts"] > 0


class TestFigure4:
    def test_idiom_rows(self, cfg):
        spec = shipped_spec("figure4", ("health",), SMALL,
                            idioms={"health": ("queue", "root")})
        rows = run_spec(spec, cfg)
        configs = {r["config"] for r in rows}
        assert {"base", "sw:queue", "sw:root", "coop:queue", "coop:root"} <= configs
        base = [r for r in rows if r["config"] == "base"][0]
        assert base["normalized"] == 1.0
        for r in rows:
            assert r["normalized"] > 0
            assert r["memory"] >= 0

    def test_unavailable_variants_skipped(self, cfg):
        spec = shipped_spec("figure4", ("treeadd",), SMALL,
                            idioms={"treeadd": ("queue", "root")})
        rows = run_spec(spec, cfg)
        configs = {r["config"] for r in rows}
        assert "sw:root" not in configs  # treeadd has no root variant
        assert "sw:queue" in configs


class TestFigure5:
    def test_all_schemes_per_benchmark(self, cfg):
        rows = run_spec(shipped_spec("figure5", FAST_SET, SMALL), cfg)
        assert len(rows) == len(FAST_SET) * len(SCHEMES)
        for r in rows:
            if r["scheme"] == "base":
                assert r["normalized"] == 1.0
            assert r["compute"] > 0

    def test_summary_shapes(self, cfg):
        rows = run_spec(shipped_spec("figure5", ("treeadd",), SMALL), cfg)
        # patch benchmark set for summary computation
        summary = figure5_summary(
            [dict(r, benchmark="treeadd") for r in rows]
        )
        schemes = {s["scheme"] for s in summary}
        assert schemes == {"software", "cooperative", "hardware", "dbp"}


class TestFigure6:
    def test_bandwidth_rows(self, cfg):
        rows = run_spec(shipped_spec("figure6", ("treeadd",), SMALL), cfg)
        assert len(rows) == len(SCHEMES)
        for r in rows:
            assert r["bytes/inst"] >= 0


class TestFigure7:
    def test_latency_interval_grid(self, cfg):
        spec = shipped_spec("figure7", params=SMALL,
                            axes={"latency": (70, 140), "interval": (4,)})
        rows = run_spec(spec, cfg)
        assert len(rows) == 2 * 1 * len(SCHEMES)
        base70 = next(
            r for r in rows if r["latency"] == 70 and r["scheme"] == "base"
        )
        base140 = next(
            r for r in rows if r["latency"] == 140 and r["scheme"] == "base"
        )
        assert base140["total"] > base70["total"]  # latency hurts


class TestAblations:
    def test_onchip_table(self, cfg):
        spec = shipped_spec("x1", ("treeadd",), SMALL,
                            axes={"onchip_entries": (64,)})
        rows = run_spec(spec, cfg)
        assert rows[0]["benchmark"] == "treeadd"
        assert rows[0]["onchip_entries"] == 64
        # normalized divides by the base run's cycles: both ran
        assert rows[0]["normalized"] > 0

    def test_compute_overhead_positive(self, cfg):
        rows = run_spec(shipped_spec("x2-creation", ("treeadd",), SMALL), cfg)
        assert rows[0]["compute_overhead%"] > 0  # queue code costs compute

    def test_passes_sweep(self, cfg):
        rows = run_spec(shipped_spec("x2-passes", params=SMALL,
                                     axes={"passes": (1, 4)}), cfg)
        hardware = [r for r in rows if r["scheme"] == "hardware"]
        assert [r["passes"] for r in hardware] == [1, 4]
        # hardware JPP gains nothing on a single pass but does with four
        assert hardware[0]["normalized"] >= hardware[1]["normalized"] - 0.02
