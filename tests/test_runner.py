"""Scheme runs: scheme mapping and time decompositions."""

import pytest

from repro import WorkloadError, get_workload, small_config
from repro.harness import SCHEMES, SweepPlan, run_scheme, scheme_plan
from repro.workloads import workload_class

TREEADD = workload_class("treeadd").test_params()


@pytest.fixture(scope="module")
def runs():
    """treeadd's scheme matrix plus one explicit variant run, planned on
    one SweepPlan and run serially."""
    plan = SweepPlan(small_config())
    scheduled = {s: plan.add_run("treeadd", s, TREEADD) for s in SCHEMES}
    scheduled["coop:queue"] = plan.add_variant_run(
        "treeadd", "coop:queue", "cooperative", TREEADD)
    results = plan.execute()
    return {name: results.scheme_run(sr) for name, sr in scheduled.items()}


class TestSchemePlan:
    def test_matrix(self):
        w = get_workload("health", **workload_class("health").test_params())
        assert scheme_plan(w, "base") == ("baseline", "none")
        assert scheme_plan(w, "hardware") == ("baseline", "hardware")
        assert scheme_plan(w, "dbp") == ("baseline", "dbp")
        assert scheme_plan(w, "software") == ("sw:chain", "software")
        assert scheme_plan(w, "cooperative") == ("coop:chain", "cooperative")

    def test_explicit_idiom(self):
        w = get_workload("health", **workload_class("health").test_params())
        assert scheme_plan(w, "software", idiom="root") == ("sw:root", "software")

    def test_missing_idiom_rejected(self):
        w = get_workload("treeadd", **workload_class("treeadd").test_params())
        with pytest.raises(WorkloadError):
            scheme_plan(w, "software", idiom="root")

    def test_unknown_scheme_rejected(self):
        w = get_workload("treeadd", **workload_class("treeadd").test_params())
        with pytest.raises(WorkloadError):
            scheme_plan(w, "quantum")


class TestSchemeRuns:
    def test_base_run_decomposition(self, runs):
        run = runs["base"]
        assert run.scheme == "base"
        assert run.total > run.compute > 0
        assert run.memory == run.total - run.compute
        assert run.normalized(run.total) == 1.0

    def test_memory_reduction_sign(self, runs):
        base = runs["base"]
        sw = runs["software"]
        r = sw.memory_reduction(base.memory)
        assert -2.0 < r <= 1.0

    def test_compute_cache_reused(self, runs):
        r1 = runs["base"]
        r2 = runs["dbp"]
        assert r1.compute == r2.compute  # same baseline program

    def test_all_schemes_run(self, runs):
        assert set(SCHEMES) <= set(runs)
        for scheme in SCHEMES:
            assert runs[scheme].total > 0

    def test_run_variant_direct(self, runs):
        run = runs["coop:queue"]
        assert run.scheme == "cooperative:coop:queue"
        assert run.variant == "coop:queue"
        assert run.total > 0


def test_run_scheme_matches_sweep_plan(runs):
    # The in-process path (used with live observers) and the scheduled
    # path simulate the same cells.
    run = run_scheme("treeadd", "hardware", small_config(), TREEADD)
    assert (run.total, run.compute) == (runs["hardware"].total,
                                        runs["hardware"].compute)
    assert run.result.instructions == runs["hardware"].result.instructions


def test_run_scheme_oneshot():
    run = run_scheme(
        "power", "base", small_config(), params=workload_class("power").test_params()
    )
    assert run.benchmark == "power"
    assert run.total > 0
