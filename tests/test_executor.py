"""Sweep execution: serial/parallel parity, deduplication, error isolation."""

from dataclasses import replace

import pytest

from repro import small_config
from repro.harness import (
    RunSpec,
    Scheduler,
    SweepError,
    SweepPlan,
    run_spec,
)
from repro.workloads import Workload, workload_class, workload_names
from repro.workloads import registry as workload_registry
from tests.conftest import shipped_spec

SMALL = {name: workload_class(name).test_params() for name in workload_names()}
FAST_SET = ("treeadd", "power", "health")


@pytest.fixture(scope="module")
def cfg():
    return small_config()


class PoisonedWorkload(Workload):
    """Plans fine (all variants advertised) but every build raises."""

    name = "poisoned"
    structure = "test dummy"
    variants = ("baseline", "sw:queue", "coop:queue")

    def build_variant(self, variant):
        raise RuntimeError("poisoned build")


@pytest.fixture
def poisoned():
    workload_registry.register(PoisonedWorkload)
    yield "poisoned"
    workload_registry.WORKLOADS.unregister("poisoned")


class TestRunSpec:
    def test_params_frozen_and_order_insensitive(self, cfg):
        a = RunSpec.make("treeadd", "baseline", "none", cfg, {"levels": 3, "passes": 2})
        b = RunSpec.make("treeadd", "baseline", "none", cfg, {"passes": 2, "levels": 3})
        assert a == b and hash(a) == hash(b)

    def test_distinct_cells_differ(self, cfg):
        a = RunSpec.make("treeadd", "baseline", "none", cfg)
        assert a != RunSpec.make("treeadd", "baseline", "dbp", cfg)
        assert a != RunSpec.make("treeadd", "baseline", "none", cfg.perfect())
        assert a != RunSpec.make("treeadd", "baseline", "none", cfg, {"levels": 4})


class TestDeduplication:
    def test_compute_runs_shared_across_schemes(self, cfg):
        plan = SweepPlan(cfg)
        for scheme in ("base", "hardware", "dbp"):
            plan.add_run("treeadd", scheme, SMALL["treeadd"])
        results = plan.execute()
        # base/hardware/dbp all run the baseline program: 3 timing cells
        # plus ONE shared compute cell (deduplicated), not 6 cells.
        assert len(results.cells) == 4


class TestSerialParallelParity:
    def test_figure5_rows_identical(self, cfg):
        params = {n: SMALL[n] for n in FAST_SET}
        spec = shipped_spec("figure5", FAST_SET, params)
        serial = run_spec(spec, cfg)
        parallel = run_spec(spec, cfg, Scheduler(jobs=4))
        assert serial == parallel

    def test_figure7_rows_identical(self, cfg):
        spec = shipped_spec("figure7", params=SMALL,
                            axes={"latency": (70,), "interval": (8,)})
        serial = run_spec(spec, cfg)
        parallel = run_spec(spec, cfg, Scheduler(jobs=4))
        assert serial == parallel

    @pytest.mark.slow
    def test_full_suite_parity(self, cfg):
        spec = shipped_spec("figure5", params=SMALL)
        serial = run_spec(spec, cfg)
        parallel = run_spec(spec, cfg, Scheduler(jobs=4))
        assert serial == parallel


class TestErrorIsolation:
    def test_failed_cell_becomes_error_result(self, cfg):
        specs = [
            RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"]),
            RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                         SMALL["treeadd"]),
        ]
        cells = Scheduler().execute(specs)
        good, bad = cells[specs[0]], cells[specs[1]]
        assert good.ok and good.result.cycles > 0
        assert not bad.ok and "no-such-engine" in bad.error

    def test_scheme_run_raises_on_error_cell(self, cfg):
        plan = SweepPlan(cfg)
        sr = plan.add_run("treeadd", "base", SMALL["treeadd"])
        bad = plan.add(RunSpec.make("treeadd", "baseline", "no-such-engine",
                                    cfg, SMALL["treeadd"]))
        results = plan.execute()
        assert results.scheme_run(sr).total > 0
        assert results.error(bad) is not None
        with pytest.raises(SweepError):
            results.scheme_run(replace(sr, timing=bad))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_worker_yields_error_row(self, cfg, poisoned, jobs):
        spec = shipped_spec("figure5", ("treeadd", poisoned),
                            {"treeadd": SMALL["treeadd"]})
        rows = run_spec(spec, cfg, Scheduler(jobs=jobs))
        good = [r for r in rows if r["benchmark"] == "treeadd"]
        bad = [r for r in rows if r["benchmark"] == poisoned]
        # The healthy benchmark is untouched by its neighbour's failure...
        assert len(good) == 5
        assert all("error" not in r and r["normalized"] > 0 for r in good)
        # ...and every poisoned cell surfaces as an error row.
        assert len(bad) == 5
        assert all("poisoned build" in r["error_detail"] for r in bad)
        assert all(r["error"].endswith("poisoned build") for r in bad)


class TestProgress:
    def test_narration_counts_cells(self, cfg):
        lines = []
        run_spec(shipped_spec("figure5", ("treeadd",), SMALL), cfg,
                 Scheduler(progress=lines.append))
        # 5 schemes -> 5 timing + 3 distinct variants' compute cells.
        assert len(lines) == 8
        assert lines[-1].startswith("[8/8] ")
        assert all("cycles" in line for line in lines)
