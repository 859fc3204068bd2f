"""Scheduler layer: sharding, backend resolution, plan-order assembly.

The refactor's core guarantee is that *assembly is a function of the
plan, not of the backend*: whatever order results arrive in — serial,
process pool, or a sweep service interleaving many pools — the
assembled tables are bit-identical.  The hypothesis property here
drives that directly by completing cells in arbitrary interleavings.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import small_config
from repro.harness import (
    BackendError,
    RunSpec,
    Scheduler,
    WorkerBackend,
    detect_cpus,
    run_cell,
    small_params,
)
from repro.harness.backends import ProcessPoolBackend, SerialBackend, config_id, dispatch_tables
from repro.harness.cells import CellResult, job_payload, spec_from_payload
from repro.workloads import workload_class

SMALL = {
    "treeadd": workload_class("treeadd").test_params(),
    "health": workload_class("health").test_params(),
}


@pytest.fixture(scope="module")
def cfg():
    return small_config()


def _specs(cfg) -> list[RunSpec]:
    """Four distinct fast cells (two variants x two configs)."""
    return [
        RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"]),
        RunSpec.make("treeadd", "baseline", "none", cfg.perfect(),
                     SMALL["treeadd"]),
        RunSpec.make("treeadd", "sw:queue", "dbp", cfg, SMALL["treeadd"]),
        RunSpec.make("treeadd", "sw:queue", "none", cfg.perfect(),
                     SMALL["treeadd"]),
    ]


class TestShard:
    def test_round_robin_deterministic_and_balanced(self, cfg):
        specs = [
            RunSpec.make("treeadd", "baseline", "none", cfg, {"levels": n})
            for n in range(10)
        ]
        shards = Scheduler.shard(specs, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        # Disjoint cover, relative order preserved inside each shard.
        assert sorted(sum(shards, []), key=specs.index) == specs
        for shard in shards:
            assert shard == sorted(shard, key=specs.index)
        # Pure function of the input order.
        assert Scheduler.shard(specs, 3) == shards

    def test_more_shards_than_specs(self, cfg):
        specs = _specs(cfg)[:2]
        shards = Scheduler.shard(specs, 5)
        assert [len(s) for s in shards] == [1, 1, 0, 0, 0]

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            Scheduler.shard([], 0)


class TestBackendResolution:
    def test_implicit_serial_for_one_job(self):
        sched = Scheduler(jobs=1)
        assert isinstance(sched._resolve_backend([1, 2]), SerialBackend)

    def test_implicit_serial_for_trivial_plan(self):
        sched = Scheduler(jobs=4)
        assert isinstance(sched._resolve_backend([1]), SerialBackend)

    def test_implicit_process_pool(self):
        sched = Scheduler(jobs=4)
        assert isinstance(sched._resolve_backend([1, 2]), ProcessPoolBackend)

    def test_explicit_backend_name_wins(self):
        sched = Scheduler(jobs=4, backend="serial")
        assert isinstance(sched._resolve_backend([1, 2]), SerialBackend)

    def test_explicit_instance_wins(self):
        backend = SerialBackend()
        sched = Scheduler(jobs=4, backend=backend)
        assert sched._resolve_backend([1, 2]) is backend

    def test_unknown_backend_raises(self):
        sched = Scheduler(backend="no-such-backend")
        with pytest.raises(BackendError):
            sched._resolve_backend([1, 2])

    def test_jobs_zero_auto_detects(self):
        assert Scheduler(jobs=0).jobs == detect_cpus()

    def test_detect_cpus_positive(self):
        assert detect_cpus() >= 1


class TestSerialBuildOnce:
    def test_schemes_of_one_variant_share_a_build(self, cfg, monkeypatch):
        from collections import OrderedDict

        from repro.harness import SweepPlan, backends
        from repro.workloads.base import Workload

        monkeypatch.setattr(backends, "_worker_programs", OrderedDict())
        built = []
        build = Workload.build

        def counting_build(self, variant="baseline"):
            built.append(variant)
            return build(self, variant)

        monkeypatch.setattr(Workload, "build", counting_build)
        plan = SweepPlan(cfg)
        for scheme in ("base", "hardware", "dbp"):
            plan.add_run("treeadd", scheme, SMALL["treeadd"])
        # Three timing cells and one compute cell, one program build.
        assert len(plan.execute(Scheduler(jobs=1)).cells) == 4
        assert built == ["baseline"]


class TestDispatchTables:
    def test_configs_ship_once(self, cfg):
        specs = _specs(cfg)
        configs, payloads = dispatch_tables(specs)
        # Four cells, but only two distinct machine configs travel.
        assert len(payloads) == 4
        assert len(configs) == 2
        assert {p["config"] for p in payloads.values()} == set(configs)

    def test_payload_round_trip(self, cfg):
        from repro.config import MachineConfig

        spec = RunSpec.make("health", "baseline", "hw", cfg, SMALL["health"],
                            profile=True)
        payload = job_payload(spec, config_id(spec.cfg))
        rebuilt = spec_from_payload(
            payload, MachineConfig.from_dict(spec.cfg.to_dict())
        )
        assert rebuilt == spec

    def test_config_id_content_addressed(self, cfg):
        assert config_id(cfg) == config_id(small_config())
        assert config_id(cfg) != config_id(cfg.perfect())

    def test_wire_bytes_per_cell_pinned(self, cfg):
        """The ``repro.job/1`` wire format, pinned by size on a
        figure-5-shaped population: every variant of treeadd/em3d/health
        at test size, on the small machine and its perfect-memory twin.
        Bytes per cell are the JSON payloads plus each distinct config's
        one-time registration, amortized over the cells.  A new payload
        field moves this number; re-pin it on purpose, not by accident.
        """
        from repro.config import MachineConfig

        specs = [
            RunSpec.make(bench, variant, "none", machine, small_params(bench))
            for bench in ("treeadd", "em3d", "health")
            for variant in workload_class(bench).variants
            for machine in (cfg, cfg.perfect())
        ]
        configs, payloads = dispatch_tables(specs)
        assert len(specs) == 30
        assert len(configs) == 2
        wire = sum(len(json.dumps(p).encode()) for p in payloads.values())
        wire += sum(
            len(json.dumps({"id": cid, "data": data}).encode())
            for cid, data in configs.items()
        )
        assert round(wire / len(specs)) == 406
        for spec, payload in payloads.items():
            rebuilt_cfg = MachineConfig.from_dict(configs[payload["config"]])
            assert spec_from_payload(payload, rebuilt_cfg) == spec


class _ReplayBackend(WorkerBackend):
    """Completes precomputed cell outcomes in a chosen arrival order —
    the backend-side adversary for the assembly-determinism property."""

    name = "replay"

    def __init__(self, outs, order):
        self.outs = outs
        self.order = order

    def run(self, sched, todo, results, done, total):
        arrival = [todo[i] for i in self.order if i < len(todo)]
        arrival += [spec for spec in todo if spec not in arrival]
        for spec in arrival:
            sched._c_executed.inc()
            out = self.outs[spec]
            done += 1
            results[spec] = sched._finish(
                CellResult(spec, out[1]), done, total
            )
        return done


@pytest.fixture(scope="module")
def reference(cfg):
    """Serial ground truth: specs, their outcomes, and assembled rows."""
    specs = _specs(cfg)
    outs = {spec: run_cell(spec) for spec in specs}
    assert all(out[0] == "ok" for out in outs.values())
    return specs, outs


def _table(specs, cells) -> list:
    """Plan-order assembly, as every experiment/table consumer does it."""
    return [cells[spec].result.to_dict() for spec in specs]


class TestAssemblyDeterminism:
    def test_reversed_arrival_matches_serial(self, reference):
        specs, outs = reference
        serial = _table(specs, Scheduler().execute(specs))
        backend = _ReplayBackend(outs, list(range(len(specs)))[::-1])
        scrambled = Scheduler(backend=backend).execute(specs)
        assert _table(specs, scrambled) == serial

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_any_arrival_interleaving_assembles_identically(
        self, reference, order
    ):
        specs, outs = reference
        expected = [outs[spec][1].to_dict() for spec in specs]
        cells = Scheduler(
            backend=_ReplayBackend(outs, list(order))
        ).execute(specs)
        assert list(cells) and _table(specs, cells) == expected

    def test_backend_losing_cells_is_caught(self, reference):
        specs, outs = reference

        class Lossy(_ReplayBackend):
            def run(self, sched, todo, results, done, total):
                return super().run(sched, todo[:2], results, done, total)

        cells = Scheduler(
            backend=Lossy(outs, [0, 1])
        ).execute(specs)
        # Every planned cell is accounted for: the two the backend
        # dropped come back as explicit BackendError cells, not KeyErrors.
        assert len(cells) == len(specs)
        lost = [c for c in cells.values() if not c.ok]
        assert len(lost) == 2
        assert all(c.error_kind == "BackendError" for c in lost)
