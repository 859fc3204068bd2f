"""The declarative experiment-spec layer: parsing, validation, dict
round-trips, compilation onto the sweep machinery, bit-identical parity
with rows assembled straight from a SweepPlan, and warm-cache reruns."""

import json

import pytest

from repro import get_workload, small_config
from repro.harness import (
    SCHEMES,
    Axis,
    ExperimentSpec,
    ResultCache,
    Scheduler,
    SpecError,
    SweepPlan,
    WorkloadSel,
    compile_spec,
    load_spec,
    run_spec,
    small_params,
    spec_artifact,
)
from tests.conftest import SPEC_DIR, shipped_spec

SHIPPED = sorted(f"examples/specs/{p.name}" for p in SPEC_DIR.glob("*.toml"))


# ----------------------------------------------------------------------
# Parsing and round-trips
# ----------------------------------------------------------------------

class TestSpecFiles:
    @pytest.mark.parametrize("path", SHIPPED)
    def test_shipped_file_dict_round_trip(self, path):
        spec = load_spec(path)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # ... and the dict form survives JSON.
        blob = json.dumps(spec.to_dict(), sort_keys=True)
        assert ExperimentSpec.from_dict(json.loads(blob)) == spec
        # ... and it lowers onto sweep cells at test size.
        assert compile_spec(spec.small()).cell_count > 0

    def test_json_spec_loads(self, tmp_path):
        spec = shipped_spec("figure7")
        path = tmp_path / "f7.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec(path) == spec

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(SpecError, match="yaml"):
            load_spec(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(tmp_path / "nope.json")


class TestSpecValidation:
    def test_unknown_spec_key(self):
        with pytest.raises(SpecError, match="workflows"):
            ExperimentSpec.from_dict({
                "name": "x", "workflows": [],
                "workloads": ["health"], "columns": ["benchmark", "scheme"],
            })

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ExperimentSpec(name="x", kind="figure99",
                           workloads=(WorkloadSel("health"),))

    def test_no_workloads(self):
        with pytest.raises(SpecError, match="no workloads"):
            ExperimentSpec(name="x", columns=("benchmark",))

    def test_matrix_needs_columns(self):
        with pytest.raises(SpecError, match="columns"):
            ExperimentSpec(name="x", workloads=(WorkloadSel("health"),))

    def test_unknown_column(self):
        with pytest.raises(SpecError, match="karma"):
            ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                           columns=("benchmark", "karma"))

    def test_axis_name_is_a_valid_column(self):
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel("health"),),
            axes=(Axis("lat", (1, 2), ("machine.memory_latency",)),),
            columns=("lat", "benchmark", "scheme", "total"),
        )
        assert "lat" in spec.columns

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecError, match="duplicate axis"):
            ExperimentSpec(
                name="x", workloads=(WorkloadSel("health"),),
                axes=(Axis("a", (1,), ("machine.memory_latency",)),
                      Axis("a", (2,), ("machine.memory_latency",))),
                columns=("benchmark", "scheme"),
            )

    def test_axis_needs_values_and_targets(self):
        with pytest.raises(SpecError, match="no values"):
            Axis("a", (), ("machine.memory_latency",))
        with pytest.raises(SpecError, match="no paths"):
            Axis("a", (1,), ())
        with pytest.raises(SpecError, match="must start"):
            Axis("a", (1,), ("memory_latency",))

    def test_workload_idiom_conflict(self):
        with pytest.raises(SpecError, match="one or the other"):
            WorkloadSel("health", idiom="queue", idioms=("queue",))

    def test_workload_unknown_impl(self):
        with pytest.raises(SpecError, match="unknown impl"):
            WorkloadSel("health", idioms=("queue",), impls=("jit",))

    def test_workload_entry_unknown_key(self):
        with pytest.raises(SpecError, match="idiots"):
            WorkloadSel.parse({"name": "health", "idiots": ["queue"]})

    def test_unknown_machine_at_compile(self):
        spec = ExperimentSpec(name="x", machine="cray",
                              workloads=(WorkloadSel("health"),),
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="cray"):
            compile_spec(spec)

    def test_unknown_scheme_at_compile(self):
        spec = ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                              schemes=("base", "quantum"),
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="quantum"):
            compile_spec(spec)

    def test_bad_override_path_at_compile(self):
        spec = ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                              overrides={"warp.factor": 9},
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="warp"):
            compile_spec(spec)

    def test_with_machine_rejects_unknown(self):
        with pytest.raises(SpecError, match="cray"):
            shipped_spec("figure5").with_machine("cray")


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

class TestCompile:
    def test_dedup_shares_cells(self):
        # 5 schemes -> 5 timing cells but only 3 distinct program
        # variants' compute cells; base/hardware/dbp share "baseline".
        spec = shipped_spec("figure5", ("treeadd",),
                            {"treeadd": small_params("treeadd")})
        compiled = compile_spec(spec, small_config())
        assert compiled.cell_count == 5 + 3

    def test_axes_cross_product_order(self):
        spec = shipped_spec("figure7",
                            axes={"latency": (70, 280), "interval": (8, 16)})
        compiled = compile_spec(spec, small_config())
        points = [(r.axis["latency"], r.axis["interval"])
                  for r in compiled.rows]
        # first axis outermost, 5 scheme rows per point
        assert points[0] == (70, 8) and points[5] == (70, 16)
        assert points[10] == (280, 8) and points[15] == (280, 16)

    def test_overrides_apply_to_machine(self):
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel("health"),),
            overrides={"memory_latency": 123},
            columns=("benchmark", "scheme"),
        )
        compiled = compile_spec(spec, small_config())
        assert compiled.cfg.memory_latency == 123


# ----------------------------------------------------------------------
# Execution parity with rows assembled straight from a SweepPlan
# ----------------------------------------------------------------------

def _plan_rows(cfg, benchmarks, params):
    """Figure-5 rows computed by hand: one SweepPlan, the paper's
    formulas, no spec layer in between."""
    plan = SweepPlan(cfg)
    scheduled = [
        (name, {s: plan.add_run(name, s, params[name]) for s in SCHEMES})
        for name in benchmarks
    ]
    results = plan.execute()
    rows = []
    for name, runs in scheduled:
        base = results.scheme_run(runs["base"])
        for scheme, sr in runs.items():
            run = results.scheme_run(sr)
            rows.append({
                "benchmark": name,
                "scheme": scheme,
                "variant": run.variant,
                "normalized": round(run.normalized(base.total), 3),
                "compute": run.compute,
                "memory": run.memory,
                "mem_reduction%": round(
                    100 * run.memory_reduction(base.memory), 1),
            })
    return rows


class TestParity:
    def test_figure5_rows_bit_identical(self):
        cfg = small_config()
        params = {"treeadd": small_params("treeadd"),
                  "health": small_params("health")}
        direct = _plan_rows(cfg, ("treeadd", "health"), params)
        via_spec = run_spec(
            shipped_spec("figure5", ("treeadd", "health"), params), cfg=cfg)
        assert direct == via_spec

    def test_figure4_rows_bit_identical(self):
        cfg = small_config()
        params = small_params("mst")
        workload = get_workload("mst", **params)
        plan = SweepPlan(cfg)
        runs = [("base", plan.add_run("mst", "base", params))]
        for impl, engine in (("sw", "software"), ("coop", "cooperative")):
            for idiom in ("queue", "root"):
                variant = f"{impl}:{idiom}"
                if variant in workload.variants:
                    runs.append((variant, plan.add_variant_run(
                        "mst", variant, engine, params)))
        results = plan.execute()
        base = results.scheme_run(runs[0][1])
        direct = []
        for config, sr in runs:
            run = results.scheme_run(sr)
            direct.append({
                "benchmark": "mst",
                "config": config,
                "normalized": round(run.normalized(base.total), 3),
                "compute": run.compute,
                "memory": run.memory,
            })
        spec = shipped_spec("figure4", ("mst",), {"mst": params},
                            idioms={"mst": ("queue", "root")})
        via_spec = run_spec(spec, cfg=cfg)
        assert direct == via_spec
        assert direct[0]["config"] == "base"
        assert direct[0]["normalized"] == 1.0

    def test_figure7_axis_rows_bit_identical(self):
        cfg = small_config()
        params = {**small_params("health"), "interval": 4}
        point = cfg.with_memory_latency(70).with_jump_interval(4)
        plan = SweepPlan(point)
        runs = {s: plan.add_run("health", s, params) for s in SCHEMES}
        results = plan.execute()
        base = results.scheme_run(runs["base"])
        direct = []
        for scheme, sr in runs.items():
            run = results.scheme_run(sr)
            direct.append({
                "latency": 70,
                "interval": 4,
                "scheme": scheme,
                "total": run.total,
                "normalized": round(run.normalized(base.total), 3),
                "mem_reduction%": round(
                    100 * run.memory_reduction(base.memory), 1),
            })
        via_spec = run_spec(
            shipped_spec("figure7", params={"health": small_params("health")},
                         axes={"latency": (70,), "interval": (4,)}),
            cfg=cfg)
        assert direct == via_spec
        assert all(r["latency"] == 70 and r["interval"] == 4 for r in direct)

    def test_x1_onchip_rows_match_plan(self):
        cfg = small_config()
        names = ("em3d", "health", "treeadd")
        plan = SweepPlan(cfg)
        bases = {n: plan.add_run(n, "base", small_params(n)) for n in names}
        scheduled = []
        for entries in (0, 64, 16384):
            point = cfg.with_overrides(
                {"prefetch.onchip_table_entries": entries})
            for n in names:
                scheduled.append((entries, n, plan.add_run(
                    n, "hardware", small_params(n), cfg=point)))
        results = plan.execute()
        direct = [
            {"benchmark": n, "onchip_entries": entries,
             "normalized": round(results.scheme_run(sr).normalized(
                 results.scheme_run(bases[n]).total), 3)}
            for entries, n, sr in scheduled
        ]
        via_spec = run_spec(shipped_spec("x1").small(), cfg=cfg)
        assert direct == via_spec
        got = {(r["benchmark"], r["onchip_entries"]): r["normalized"]
               for r in via_spec}
        assert got["em3d", 0] == 0.956
        assert got["health", 0] == 0.973
        assert got["treeadd", 0] == 1.0
        assert got["health", 64] == got["health", 16384] == 0.984

    def test_x2_creation_rows_match_plan(self):
        cfg = small_config()
        plan = SweepPlan(cfg)
        scheduled = [
            (n, plan.add_run(n, "base", small_params(n)),
             plan.add_run(n, "software", small_params(n)))
            for n in ("health", "treeadd")
        ]
        results = plan.execute()
        direct = []
        for n, base_sr, sw_sr in scheduled:
            base, sw = results.scheme_run(base_sr), results.scheme_run(sw_sr)
            direct.append({
                "benchmark": n,
                "variant": sw.variant,
                "compute_overhead%": round(
                    100 * (sw.compute / base.compute - 1), 1),
            })
        via_spec = run_spec(shipped_spec("x2-creation").small(), cfg=cfg)
        assert direct == via_spec
        assert [(r["variant"], r["compute_overhead%"]) for r in via_spec] \
            == [("sw:chain", 23.5), ("sw:queue", 38.7)]

    def test_x2_passes_rows_match_plan(self):
        cfg = small_config()
        plan = SweepPlan(cfg)
        scheduled = []
        for passes in (1, 2, 4, 8):
            params = {**small_params("treeadd"), "passes": passes}
            scheduled.append((passes, plan.add_run("treeadd", "base", params), {
                s: plan.add_run("treeadd", s, params)
                for s in ("hardware", "cooperative", "dbp")
            }))
        results = plan.execute()
        direct = []
        for passes, base_sr, runs in scheduled:
            base = results.scheme_run(base_sr)
            for scheme, sr in runs.items():
                direct.append({
                    "passes": passes,
                    "scheme": scheme,
                    "normalized": round(
                        results.scheme_run(sr).normalized(base.total), 3),
                })
        assert direct == run_spec(shipped_spec("x2-passes").small(), cfg=cfg)

    def test_x3_adaptive_rows_match_plan(self):
        import dataclasses
        cfg = small_config()
        params = small_params("health")
        plan = SweepPlan(cfg)
        scheduled = []
        for latency in (70, 280):
            point = cfg.with_memory_latency(latency)
            base_sr = plan.add_run("health", "base", params, cfg=point)
            for adaptive in (False, True):
                hw_cfg = dataclasses.replace(point, prefetch=dataclasses.replace(
                    point.prefetch, adaptive_interval=adaptive))
                scheduled.append((latency, adaptive, base_sr, plan.add_run(
                    "health", "hardware", params, cfg=hw_cfg)))
        results = plan.execute()
        direct = [
            {"latency": latency, "adaptive": adaptive,
             "normalized": round(results.scheme_run(sr).normalized(
                 results.scheme_run(base_sr).total), 3)}
            for latency, adaptive, base_sr, sr in scheduled
        ]
        via_spec = run_spec(shipped_spec("x3").small(), cfg=cfg)
        assert direct == via_spec
        assert [r["normalized"] for r in via_spec] == [0.973, 0.973,
                                                       0.986, 0.986]

    def test_x4_spmv_rows_match_plan(self):
        cfg = small_config()
        plan = SweepPlan(cfg)
        runs = {s: plan.add_run("spmv", s, small_params("spmv"))
                for s in SCHEMES}
        results = plan.execute()
        base = results.scheme_run(runs["base"])
        direct = []
        for scheme, sr in runs.items():
            run = results.scheme_run(sr)
            direct.append({
                "scheme": scheme,
                "normalized": round(run.normalized(base.total), 3),
                "mem_reduction%": round(
                    100 * run.memory_reduction(base.memory), 1),
            })
        assert direct == run_spec(shipped_spec("x4").small(), cfg=cfg)

    def test_spec_file_small_matches_wrapper(self):
        # The shipped figure5 file, cut down to one workload at test
        # size, produces the hand-assembled SweepPlan rows exactly.
        import dataclasses
        cfg = small_config()
        spec = load_spec("examples/specs/figure5.toml")
        spec = dataclasses.replace(
            spec, workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd")),))
        rows = run_spec(spec, cfg=cfg)
        assert rows == _plan_rows(cfg, ("treeadd",),
                                  {"treeadd": small_params("treeadd")})


# ----------------------------------------------------------------------
# Caching: a warm rerun performs zero simulations
# ----------------------------------------------------------------------

class TestWarmCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        spec = shipped_spec("figure5", ("treeadd",),
                            {"treeadd": small_params("treeadd")})
        cfg = small_config()

        cold = Scheduler(cache=ResultCache(tmp_path))
        rows_cold = run_spec(spec, cfg=cfg, executor=cold)
        assert cold.stats()["executed"] == 8

        warm = Scheduler(cache=ResultCache(tmp_path))
        rows_warm = run_spec(spec, cfg=cfg, executor=warm)
        assert warm.stats()["executed"] == 0  # every cell cache-served
        assert rows_warm == rows_cold

    def test_spec_overrides_address_distinct_cache_entries(self, tmp_path):
        base = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd")),),
            schemes=("base",), columns=("benchmark", "scheme", "total"),
        )
        varied = ExperimentSpec.from_dict(
            {**base.to_dict(), "overrides": {"memory_latency": 280}})
        cfg = small_config()

        first = Scheduler(cache=ResultCache(tmp_path))
        run_spec(base, cfg=cfg, executor=first)
        second = Scheduler(cache=ResultCache(tmp_path))
        run_spec(varied, cfg=cfg, executor=second)
        # The override changes the machine, so nothing may be reused.
        assert second.stats()["executed"] > 0


# ----------------------------------------------------------------------
# The mshr_model machine axis through the spec/serde layer
# ----------------------------------------------------------------------

class TestMshrModelAxis:
    def test_with_overrides_rejects_unknown_model(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="writethru"):
            small_config().with_overrides({"mshr_model": "writethru"})

    def test_from_dict_rejects_unknown_model(self):
        from repro.config import MachineConfig
        from repro.errors import ConfigError
        doc = small_config().to_dict()
        doc["mshr_model"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            MachineConfig.from_dict(doc)

    @pytest.mark.parametrize("model", ["blocking", "coalescing", "full"])
    def test_serde_round_trip(self, model):
        from repro.config import MachineConfig
        cfg = small_config().with_overrides({"mshr_model": model})
        assert cfg.mshr_model == model
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_mshr_axis_spec_round_trips(self):
        spec = ExperimentSpec(
            name="mshr-x", label_key="scheme",
            workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd")),),
            schemes=("base",),
            axes=(Axis(name="mshr",
                       values=("blocking", "coalescing", "full"),
                       set=("machine.mshr_model",)),),
            columns=("benchmark", "mshr", "scheme", "total"),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_mshr_cells_never_share_cache_entries(self, tmp_path):
        # Cached blocking results must never be served for coalescing
        # cells: the model is part of the config hash / cache key.
        base = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd")),),
            schemes=("base",), columns=("benchmark", "scheme", "total"),
        )
        varied = ExperimentSpec.from_dict(
            {**base.to_dict(), "overrides": {"mshr_model": "coalescing"}})
        cfg = small_config()

        first = Scheduler(cache=ResultCache(tmp_path))
        run_spec(base, cfg=cfg, executor=first)
        second = Scheduler(cache=ResultCache(tmp_path))
        run_spec(varied, cfg=cfg, executor=second)
        assert second.stats()["executed"] > 0


# ----------------------------------------------------------------------
# Error rows and artifacts
# ----------------------------------------------------------------------

class TestErrorsAndArtifacts:
    def test_missing_variant_becomes_error_row(self):
        # treeadd has no root idiom: scheme-mode planning fails the
        # whole compile (scheme_plan raises inside add_run) only if the
        # variant is missing — use idiom pinning to trigger it.
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd"), idiom="root"),),
            schemes=("software",), columns=("benchmark", "scheme", "total"),
        )
        with pytest.raises(Exception, match="root"):
            compile_spec(spec, small_config())

    def test_idiom_expansion_skips_missing_variants(self):
        spec = ExperimentSpec(
            name="x", label_key="config",
            workloads=(WorkloadSel(
                "treeadd", params=small_params("treeadd"),
                idioms=("queue", "root")),),
            columns=("benchmark", "config", "normalized"),
        )
        rows = run_spec(spec, cfg=small_config())
        configs = [r["config"] for r in rows]
        # base + sw:queue + coop:queue; no treeadd root variants exist.
        assert configs == ["base", "sw:queue", "coop:queue"]

    def test_artifact_embeds_spec(self):
        spec = shipped_spec("figure7",
                            axes={"latency": (70,), "interval": (4,)})
        rows = [{"latency": 70, "interval": 4, "scheme": "base"}]
        doc = spec_artifact(spec, rows, meta={"source": "test"})
        assert doc["schema"] == "repro.experiment/1"
        assert doc["meta"]["source"] == "test"
        assert doc["rows"] == rows
        # Provenance: the embedded spec reloads to the original.
        assert ExperimentSpec.from_dict(doc["spec"]) == spec
