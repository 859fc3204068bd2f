"""The benchmark's three workloads, their output checks and metrics.

Each workload is a closed loop driven by one process: the next cell
starts only when the previous one finished, and the sweep's worker
pool never exceeds the usable CPUs.  Throughput is work per second at
the ``bench`` machine with default Olden parameters (``--quick``: the
``small`` machine with each workload's ``test_params()``).

``sim-prefetch``
    ``simulate()`` on the ``table`` engine of the four prefetch-heavy
    cells, no harness and no observers.  ``repro.prefetch`` and
    ``repro.mem`` take most of the self time here, so a cut in the
    load -> prefetch -> cache -> TLB chain shows on this workload.
``sim-core``
    ``simulate()`` of treeadd and health with no prefetch engine, under
    both ``table`` and ``compiled``.  The core, the interpreter and the
    JIT do the work while prefetch does none: the bypass control for a
    prefetch optimisation, and where ``compiled`` has to earn its lines.
    JIT warm-up is inside the timed region, as every ``repro run`` pays
    it.
``sweep-fig5``
    The figure-5 spec (the paper's five schemes) on treeadd, em3d and
    health with telemetry, through the ``process`` backend with one
    worker per usable CPU: a cold pass into a fresh result cache, then
    warm re-runs served entirely from it.  The north-star "time to
    reproduce a figure", and the only workload where ``repro.harness``
    and ``repro.obs`` do real work.

The workload seed permutes the order of the cells (``sim-*``) or of the
spec's workloads (``sweep-fig5``); the Olden generators keep their own
fixed seeds, so the cell set and every pinned number stay the same.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any
from unittest import mock

from . import ledger, speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sim-prefetch", "sim-core", "sweep-fig5")

#: (benchmark, scheme, sim engine) per timed cell.
SIM_CELLS = {
    "sim-prefetch": (
        ("em3d", "hardware", "table"),
        ("health", "hardware", "table"),
        ("em3d", "dbp", "table"),
        ("health", "cooperative", "table"),
    ),
    "sim-core": (
        ("treeadd", "base", "table"),
        ("health", "base", "table"),
        ("treeadd", "base", "compiled"),
        ("health", "base", "compiled"),
    ),
}
SWEEP_BENCHMARKS = ("treeadd", "em3d", "health")
SWEEP_SPEC = ROOT / "examples" / "specs" / "figure5.toml"

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPS = 7
#: Timed passes per run, the same on every commit (a traced run makes
#: one).  ``--seconds`` only caps them: no pass starts once it is spent.
PASSES = {"sim-prefetch": 4, "sim-core": 7, "sweep-fig5": 2}
#: Share of a whole speed probe each sweep worker times after each cell
#: (~20 ms): together the readings sample both CPUs all through a cold
#: pass, for ~2% of its time.
WORKER_PROBE = 0.2
#: Warm (fully cache-served) re-runs of the sweep after each cold pass.
WARM_PASSES = 20
#: Cache-hit latency samples per run: p90 needs at least ten beyond it.
HIT_SAMPLES = 120

#: Units of the printed metrics that BENCHMARK.json does not gate:
#: fail_frac is 0 at a correct commit, the others exist on the sweep only.
UNITS = {
    "fail_frac": "ratio", "warm_wall_s": "s", "hit_ms_p50": "ms",
    "hit_ms_p90": "ms", "host_wall_s": "s", "host_setup_s": "s",
}


@dataclass
class Checks:
    """Checked units (timed cells and run-level checks) and failures."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    pins: dict[str, Any]
    workdir: Path
    checks: Checks = field(default_factory=Checks)
    metrics: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)

    @property
    def scale(self) -> str:
        return "quick" if self.quick else "bench"


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of the main process or its largest worker (Linux: KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def import_seconds() -> tuple[float, float]:
    """Time to import ``repro`` and ``repro.harness`` in a fresh
    interpreter (the set-up every command-line run pays first), in host
    seconds and at the reference speed.  The child probes its own CPU
    right after the import, so the probe's imports are not timed."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        "t = time.perf_counter(); import repro, repro.harness; "
        "s = time.perf_counter() - t; from perfbench import speed; "
        "p = speed.probe()[0]; print(s, speed.scaled(s, p, p))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(ROOT)], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    host, scaled = out.stdout.strip().splitlines()[-1].split()
    return float(host), float(scaled)


def timed_setups(run: Run, setup, teardown=None):
    """``SETUP_REPS`` set-ups, each a fresh interpreter's imports plus
    ``setup()``, each part followed by a speed probe.  Sets ``setup_s``
    to the median at the reference speed and returns the last value of
    ``setup()``; ``teardown`` is applied to the others."""
    samples = []
    for rep in range(SETUP_REPS):
        imports, scaled_imports = import_seconds()
        t0 = time.perf_counter()
        value = setup()
        seconds = time.perf_counter() - t0
        after = speed.probe()[0]
        samples.append({
            "import_s": imports, "setup_s": seconds,
            "scaled_s": scaled_imports + speed.scaled(seconds, after, after),
        })
        if teardown is not None and rep < SETUP_REPS - 1:
            teardown(value)
    run.metrics["setup_s"] = statistics.median(s["scaled_s"] for s in samples)
    run.metrics["host_setup_s"] = statistics.median(
        s["import_s"] + s["setup_s"] for s in samples)
    run.report["setup"] = samples
    return value


def timed_passes(run: Run, one_pass) -> list:
    """``PASSES[workload]`` calls of ``one_pass()`` (one in a traced run:
    the base of ``trace.overhead_ratio``), none started after
    ``--seconds`` have gone by."""
    passes = []
    t_start = time.perf_counter()
    for __ in range(1 if run.trace else PASSES[run.workload]):
        if passes and time.perf_counter() - t_start >= run.seconds:
            break
        passes.append(one_pass())
    run.report["pass_count"] = len(passes)
    return passes


def machine(run: Run):
    from repro import get_machine

    return get_machine("small" if run.quick else "bench")


def workload_params(run: Run, benchmark: str) -> dict[str, Any]:
    from repro.harness import small_params

    return small_params(benchmark) if run.quick else {}


def fresh(program):
    """A copy of ``program`` with no decode/JIT memo attached, so every
    timed simulation pays the decode and JIT warm-up a new run pays."""
    from repro.isa import Program

    return Program(program.instructions, program.labels,
                   program.initial_memory, program.entry, program.heap_base,
                   program.stack_top, program.name)


def verify_programs(run: Run, built: dict[tuple, Any]) -> None:
    """Each distinct program's functional result, checked once against
    the workload's own mirror (outside every timed region)."""
    from repro import run_to_completion

    for (benchmark, variant), bp in sorted(built.items()):
        try:
            bp.verify(run_to_completion(bp.program))
            ok = True
        except Exception:
            ok = False
            run.checks.messages.append(traceback.format_exc())
        run.checks.check(ok, f"{benchmark}/{variant}: functional result "
                             "failed BuiltProgram.verify")


def check_pin(run: Run, key: str, cycles: int, instructions: int) -> None:
    pin = run.pins[run.scale]["cells"].get(key)
    run.checks.check(
        pin == [cycles, instructions],
        f"{key}: simulated [cycles, instructions] = "
        f"[{cycles}, {instructions}], pinned {pin}",
    )


def model_counts(results: list[Any]) -> dict[str, float]:
    """Simulated-model counts that a pure speed change leaves exact."""
    insts = sum(r.instructions for r in results)
    accesses = sum(r.l1d_accesses for r in results)
    issued = sum(r.hierarchy.prefetches_issued for r in results)
    return {
        "mem.l1d_miss_rate": (sum(r.l1d_misses for r in results) / accesses
                              if accesses else 0.0),
        "prefetch.issued_per_kinst": 1000.0 * issued / insts if insts else 0.0,
    }


def layer_metrics(run: Run, stats: list, instructions: int) -> dict[str, float]:
    ledger_ = ledger.attribute(stats)
    out: dict[str, float] = {}
    for layer in ledger.LAYERS + (ledger.OTHER,):
        out[f"{layer}.self_share"] = ledger_["self_share"][layer]
        out[f"{layer}.calls_per_inst"] = (
            ledger_["calls"][layer] / instructions if instructions else 0.0
        )
    out["total.calls_per_inst"] = (
        sum(ledger_["calls"].values()) / instructions if instructions else 0.0
    )
    for name, n in ledger_["hot_chain"].items():
        out[name] = n / instructions if instructions else 0.0
    run.report.setdefault("ledger", []).append(ledger_)
    return out


# ----------------------------------------------------------------------
# sim-prefetch / sim-core
# ----------------------------------------------------------------------

@dataclass
class SimCell:
    benchmark: str
    scheme: str
    sim_engine: str
    variant: str = ""
    engine: str = ""

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.scheme}/{self.sim_engine}"


def sim_setup(run: Run, cells: list[SimCell]) -> dict[tuple, Any]:
    """Build every cell's program (the set-up a ``repro run`` pays
    after imports)."""
    from repro import get_workload
    from repro.harness import scheme_plan

    built: dict[tuple, Any] = {}
    for cell in cells:
        w = get_workload(cell.benchmark,
                         **workload_params(run, cell.benchmark))
        cell.variant, cell.engine = scheme_plan(w, cell.scheme)
        if (cell.benchmark, cell.variant) not in built:
            built[(cell.benchmark, cell.variant)] = w.build(cell.variant)
    return built


@dataclass
class Timed:
    """One timed simulation, with the speed probes on either side of it
    as (wall, CPU) seconds (None in a traced pass)."""

    cell: SimCell
    wall: float
    cpu: float
    result: Any
    before: tuple[float, float] | None
    after: tuple[float, float] | None

    @property
    def scaled_wall(self) -> float:
        return speed.scaled(self.wall, self.before[0], self.after[0])

    @property
    def scaled_cpu(self) -> float:
        return speed.scaled(self.cpu, self.before[1], self.after[1])


def sim_pass(run: Run, cells: list[SimCell], built: dict[tuple, Any],
             cfg, tracer: ledger.Tracer | None = None) -> dict[str, Any]:
    """Each cell once, in seed order, on a fresh copy of its program,
    with a speed probe before the first cell and after each one."""
    from repro import simulate

    def probe():
        return speed.probe() if tracer is None else None

    out: dict[str, Any] = {"cells": [], "results": []}
    before = probe()
    for cell in cells:
        program = fresh(built[(cell.benchmark, cell.variant)].program)
        span = (tracer.span("simulate", cell=cell.key) if tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        start_cpu = time.process_time()
        try:
            with span:
                result = simulate(program, cfg, engine=cell.engine,
                                  sim_engine=cell.sim_engine)
        except Exception:
            run.checks.check(False, f"{cell.key}: simulate raised\n"
                                    + traceback.format_exc())
            before = probe()
            continue
        seconds = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        after = probe()
        check_pin(run, cell.key, result.cycles, result.instructions)
        out["cells"].append(Timed(cell, seconds, cpu, result, before, after))
        out["results"].append(result)
        before = after
    out["wall"] = sum(t.wall for t in out["cells"])
    by_key = {t.cell.key: t.result for t in out["cells"]}
    for cell in cells:
        if cell.sim_engine != "compiled":
            continue
        table = by_key.get(f"{cell.benchmark}/{cell.scheme}/table")
        compiled = by_key.get(cell.key)
        if table is not None and compiled is not None:
            run.checks.check(
                table.cycles == compiled.cycles,
                f"{cell.benchmark}/{cell.scheme}: table simulated "
                f"{table.cycles} cycles, compiled {compiled.cycles}",
            )
    return out


def cell_medians(passes: list[dict[str, Any]], value) -> dict[str, float]:
    """Each cell's median of ``value(timed)`` over the passes."""
    by_cell: dict[str, list[float]] = {}
    for p in passes:
        for timed in p["cells"]:
            by_cell.setdefault(timed.cell.key, []).append(value(timed))
    return {key: statistics.median(v) for key, v in by_cell.items()}


def fused_speedup(medians: dict[str, float]) -> float:
    table = sum(v for k, v in medians.items() if k.endswith("/table"))
    compiled = sum(v for k, v in medians.items() if k.endswith("/compiled"))
    return table / compiled if compiled else 0.0


def run_sim(run: Run) -> None:
    cfg = machine(run)
    cells = [SimCell(*c) for c in SIM_CELLS[run.workload]]
    random.Random(run.seed).shuffle(cells)
    run.report["cell_order"] = [c.key for c in cells]

    built = timed_setups(run, lambda: sim_setup(run, cells))
    passes = timed_passes(run, lambda: sim_pass(run, cells, built, cfg))

    if run.trace:
        tracer = ledger.Tracer(run.workdir)
        with ledger.traced_boundaries(tracer):
            sim_setup(run, cells)
            prof = cProfile.Profile()
            prof.enable()
            try:
                traced = sim_pass(run, cells, built, cfg, tracer)
            finally:
                prof.disable()
        insts = sum(r.instructions for r in traced["results"])
        run.layer.update(layer_metrics(run, [prof], insts))
        run.layer.update(model_counts(traced["results"]))
        run.layer["prefetch.useful_ratio"] = telemetry_useful_ratio(
            run, cells, built, cfg)
        run.layer.update(harness_zeros())
        run.layer["jit.fused_speedup"] = fused_speedup(
            cell_medians(passes, lambda t: t.scaled_wall))
        run.layer["workloads.builds"] = tracer.counts.get("workloads.builds", 0)
        run.layer["workloads.build_ms"] = 1000 * sum(
            tracer.durations("Workload.build"))
        run.layer["trace.overhead_ratio"] = traced["wall"] / passes[0]["wall"]
        run.report["spans"] = tracer.spans
    else:
        # Each cell at its median pass, at the reference speed (speed.py).
        wall = cell_medians(passes, lambda t: t.scaled_wall)
        insts = sum(r.instructions for r in passes[0]["results"])
        run.metrics.update({
            "wall_s": sum(wall.values()),
            "cpu_s": sum(cell_medians(passes, lambda t: t.scaled_cpu).values()),
            "sim_kips": insts / sum(wall.values()) / 1000,
            "host_wall_s": sum(
                cell_medians(passes, lambda t: t.wall).values()),
        })
        run.report["jit.fused_speedup"] = fused_speedup(wall)
    run.report["passes"] = [
        {"wall_s": p["wall"],
         "cells": {t.cell.key: {"wall_s": t.wall, "cpu_s": t.cpu,
                                "probe_before": t.before,
                                "probe_after": t.after}
                   for t in p["cells"]}}
        for p in passes
    ]
    verify_programs(run, built)


def outcome_ratio(results: list[Any]) -> float:
    """Timely prefetches over issued ones, from each result's telemetry."""
    timely = issued = 0
    for r in results:
        outcomes = (r.telemetry or {}).get("prefetch_outcomes", {})
        timely += outcomes.get("counts", {}).get("timely", 0)
        issued += outcomes.get("issued", 0)
    return timely / issued if issued else 0.0


def telemetry_useful_ratio(run: Run, cells: list[SimCell],
                           built: dict[tuple, Any], cfg) -> float:
    """The sim workloads run without observers, so their prefetch
    outcomes come from one extra, untimed simulation per prefetching
    cell with telemetry attached; its cycles must match the pins."""
    from repro import simulate
    from repro.obs import Telemetry

    results = []
    for cell in cells:
        if cell.engine == "none":
            continue
        result = simulate(fresh(built[(cell.benchmark, cell.variant)].program),
                          cfg, engine=cell.engine, sim_engine=cell.sim_engine,
                          telemetry=Telemetry())
        check_pin(run, cell.key, result.cycles, result.instructions)
        results.append(result)
    return outcome_ratio(results)


HARNESS_METRICS = (
    "harness.dispatch_us_per_cell", "harness.wire_bytes_per_cell",
    "harness.queue_wait_ms_p50", "harness.worker_busy_frac",
    "harness.cache_get_us", "harness.cache_put_us", "harness.retries",
    "harness.failures", "harness.cache_read_errors",
    "harness.warm_self_share",
)


def harness_zeros() -> dict[str, float]:
    """The sim workloads never enter the sweep harness."""
    return dict.fromkeys(HARNESS_METRICS, 0.0)


# ----------------------------------------------------------------------
# sweep-fig5
# ----------------------------------------------------------------------

def timed_cache_class():
    from repro.harness import ResultCache

    class TimedCache(ResultCache):
        """Records the duration of every get/put and every stored
        result, around the public ``ResultCache`` methods."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.get_s: list[float] = []
            self.put_s: list[float] = []
            self.stored: list[tuple[Any, Any]] = []

        def get(self, spec):
            t0 = time.perf_counter()
            result = super().get(spec)
            self.get_s.append(time.perf_counter() - t0)
            return result

        def put(self, spec, result):
            t0 = time.perf_counter()
            path = super().put(spec, result)
            self.put_s.append(time.perf_counter() - t0)
            self.stored.append((spec, result))
            return path

    return TimedCache


def sweep_spec(run: Run):
    from repro.harness import load_spec, paper_scheme_names

    spec = load_spec(SWEEP_SPEC)
    picked = [w for w in spec.workloads if w.name in SWEEP_BENCHMARKS]
    random.Random(run.seed).shuffle(picked)
    spec = replace(spec, workloads=tuple(picked), telemetry=True,
                   engine="table")
    if tuple(spec.schemes) != tuple(paper_scheme_names()):
        raise RuntimeError(f"{SWEEP_SPEC.name} no longer lists the paper's "
                           f"five schemes: {spec.schemes}")
    if run.quick:
        spec = spec.with_machine("small").small()
    return spec


def cell_key(spec) -> str:
    kind = "compute" if spec.cfg.perfect_data_memory else "timing"
    return f"{spec.benchmark}/{spec.variant}/{spec.engine}/{kind}"


def canonical_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (str(r.get("benchmark")),
                                       str(r.get("scheme"))))


def sweep_setup(run: Run, spec):
    """Compile the spec and create a fresh cache directory."""
    from repro.harness import compile_spec

    compiled = compile_spec(spec)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=run.workdir))
    return compiled, cache_dir


def scheduler_class(tracer: ledger.Tracer | None):
    from repro.harness import Scheduler

    if tracer is None:
        return Scheduler

    class TracedScheduler(Scheduler):
        def execute(self, specs):
            with tracer.span("Scheduler.execute"):
                return super().execute(specs)

    return TracedScheduler


def sweep_pass(run: Run, compiled, cache, registry, jobs: int,
               tracer: ledger.Tracer | None = None,
               profilers: dict[str, cProfile.Profile] | None = None
               ) -> dict[str, Any]:
    """One cold pass into ``cache`` (fresh), then the warm re-runs and
    the cache-hit latency samples, all checked."""
    Scheduler = scheduler_class(tracer)

    def timed_execute(phase: str) -> tuple[list[dict], float, float]:
        sched = Scheduler(jobs=jobs, cache=cache, backend="process",
                          registry=registry)
        prof = profilers.get(phase) if profilers else None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        span = (tracer.span("CompiledSpec.execute", phase=phase) if tracer
                else contextlib.nullcontext())
        try:
            with span:
                rows = compiled.execute(executor=sched)
        finally:
            if prof is not None:
                prof.disable()
        return rows, time.perf_counter() - t0, cpu_seconds() - cpu0

    out: dict[str, Any] = {}
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    rows, out["wall"], out["cpu"] = timed_execute("cold")
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    out["main_cpu"] = (self1.ru_utime + self1.ru_stime
                         - self0.ru_utime - self0.ru_stime)
    stored = list(cache.stored)
    out["results"] = [r for __, r in stored]
    out["put_s"] = list(cache.put_s)
    out["executed"] = len(stored)
    run.checks.check(len(stored) == compiled.cell_count,
                     f"cold pass computed {len(stored)} of "
                     f"{compiled.cell_count} cells")
    for spec, result in stored:
        check_pin(run, cell_key(spec), result.cycles, result.instructions)
    pinned_rows = run.pins[run.scale]["rows"]
    run.checks.check(canonical_rows(rows) == pinned_rows,
                     "cold rows differ from the pinned figure-5 rows")
    out["rows"] = rows

    before = cache.stats()
    gets_before = len(cache.get_s)
    out["warm"] = []
    for __ in range(WARM_PASSES):
        warm_rows, wall, __ = timed_execute("warm")
        out["warm"].append(wall)
        run.checks.check(warm_rows == rows, "warm rows differ from cold rows")
    after = cache.stats()
    run.checks.check(
        after["misses"] == before["misses"]
        and after["hits"] - before["hits"] == WARM_PASSES * len(stored),
        f"warm phase was not served entirely from cache: {before} -> {after}",
    )
    out["get_s"] = cache.get_s[gets_before:]

    # Per-cell latency of a cache-served cell, through the scheduler.
    sched = Scheduler(jobs=1, cache=cache, registry=registry)
    hits = []
    specs = [s for s, __ in stored]
    rounds = -(-HIT_SAMPLES // len(specs)) if specs else 0
    for __ in range(rounds):
        for spec in specs:
            t0 = time.perf_counter()
            cell = sched.execute([spec])[spec]
            hits.append(time.perf_counter() - t0)
            run.checks.check(cell.cached and cell.ok,
                             f"{cell_key(spec)}: not served from cache")
    out["hits"] = hits
    return out


@contextlib.contextmanager
def worker_probes(workdir: Path):
    """While inside, each forked sweep worker times a short speed probe
    after every cell it runs and appends the reading to a file of its
    own.  Yields a function that reads and removes the readings."""
    from repro.harness import backends

    main = os.getpid()
    run_cell = backends.run_cell

    def probed_run_cell(*args, **kwargs):
        out = run_cell(*args, **kwargs)
        if os.getpid() != main:
            wall, cpu = speed.probe(fraction=WORKER_PROBE)
            with open(workdir / f"probe-{os.getpid()}.txt", "a") as f:
                f.write(f"{wall} {cpu}\n")
        return out

    def collect() -> list[tuple[float, float]]:
        readings = []
        for path in sorted(workdir.glob("probe-*.txt")):
            readings += [tuple(map(float, line.split()))
                         for line in path.read_text().splitlines()]
            path.unlink()
        return readings

    with mock.patch.object(backends, "run_cell", probed_run_cell):
        yield collect


def scaled_pass(run: Run, p: dict[str, Any], clock: int) -> float:
    """A cold pass's wall (``clock`` 0) or CPU (1) seconds at the
    reference speed, by the mean CPU time of its workers' probes.  CPU
    time, not wall time: a probe that waits for the CPU behind the
    sweep's own processes must not hide that wait from ``wall_s``."""
    seconds = p["wall"] if clock == 0 else p["cpu"]
    if not run.checks.check(bool(p["probes"]),
                            "no speed probe readings from the sweep workers"):
        return seconds
    mean = statistics.fmean(cpu for __, cpu in p["probes"])
    return speed.scaled(seconds, mean, mean)


def run_sweep(run: Run) -> None:
    from repro import get_workload
    from repro.harness import detect_cpus, scheme_plan
    from repro.obs import MetricRegistry

    TimedCache = timed_cache_class()
    spec = sweep_spec(run)
    run.report["workload_order"] = [w.name for w in spec.workloads]
    jobs = min(detect_cpus(), os.cpu_count() or 1)
    run.report["jobs"] = jobs

    def setup():
        compiled, cache_dir = sweep_setup(run, spec)
        TimedCache(cache_dir, registry=MetricRegistry())
        return cache_dir

    shutil.rmtree(timed_setups(run, setup, shutil.rmtree))

    registry = MetricRegistry()

    def one_pass():
        compiled, cache_dir = sweep_setup(run, spec)
        cache = TimedCache(cache_dir, registry=registry)
        try:
            with worker_probes(run.workdir) as collect:
                out = sweep_pass(run, compiled, cache, registry, jobs)
                out["probes"] = collect()
            return out
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    passes = timed_passes(run, one_pass)

    if run.trace:
        run_sweep_traced(run, spec, registry, jobs, passes[0], TimedCache)
    else:
        hits = [h for p in passes for h in p["hits"]]
        # The median cold pass at the reference speed.  Probes taken by
        # the main process at a pass's edges see one CPU for a moment
        # and added more noise than they removed (README.md, Noise).
        wall = statistics.median(scaled_pass(run, p, 0) for p in passes)
        insts = sum(r.instructions for r in passes[0]["results"])
        run.metrics.update({
            "wall_s": wall,
            "cpu_s": statistics.median(scaled_pass(run, p, 1)
                                       for p in passes),
            "sim_kips": insts / wall / 1000,
            "host_wall_s": statistics.median(p["wall"] for p in passes),
            "warm_wall_s": statistics.median(
                w for p in passes for w in p["warm"]),
            "hit_ms_p50": 1000 * statistics.median(hits),
            "hit_ms_p90": 1000 * statistics.quantiles(hits, n=10)[-1],
        })
        run.report["hit_samples"] = len(hits)
    run.report["passes"] = [
        {"wall_s": p["wall"], "cpu_s": p["cpu"], "warm_wall_s": p["warm"],
         "executed": p["executed"], "probes": p["probes"]}
        for p in passes
    ]
    run.report["rows"] = passes[0]["rows"]
    run.report["scheduler"] = {
        k: v for k, v in registry.to_dict().items() if "sweep" in k
    }

    built = {}
    for sel in spec.workloads:
        workload = get_workload(sel.name, **sel.params)
        for scheme in spec.schemes:
            variant, __ = scheme_plan(workload, scheme)
            if (sel.name, variant) not in built:
                built[(sel.name, variant)] = workload.build(variant)
    verify_programs(run, built)


def run_sweep_traced(run: Run, spec, registry, jobs: int,
                     untraced: dict[str, Any], TimedCache) -> None:
    tracer = ledger.Tracer(run.workdir)
    # The main process mostly blocks on its workers during the cold pass:
    # charge it CPU time, not wall time, so waiting is not self time.
    profilers = {phase: cProfile.Profile(time.process_time)
                 for phase in ("cold", "warm")}
    tracer.main_profiler = profilers["cold"]
    with ledger.traced_boundaries(tracer):
        with tracer.span("compile_spec"):
            compiled, cache_dir = sweep_setup(run, spec)
        cache = TimedCache(cache_dir, registry=registry)
        try:
            traced = sweep_pass(run, compiled, cache, registry, jobs,
                                tracer=tracer, profilers=profilers)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    workers = tracer.merge_workers()
    insts = sum(r.instructions for r in traced["results"])
    run.layer.update(layer_metrics(
        run, [profilers["cold"], profilers["warm"], *workers.values()], insts))
    warm = ledger.attribute([profilers["warm"]])
    run.report["workers"] = {
        str(pid): ledger.attribute([s])
        for pid, s in workers.items()
    }

    run.layer.update(model_counts(traced["results"]))
    run.layer["prefetch.useful_ratio"] = outcome_ratio(traced["results"])

    cold_id = next(s["id"] for s in tracer.spans
                   if s["name"] == "CompiledSpec.execute"
                   and s["phase"] == "cold")
    cold = next(s for s in tracer.spans
                if s["name"] == "Scheduler.execute" and s["parent"] == cold_id)
    cold_start, cold_end = cold["start"], cold["end"]
    cells = [s for s in tracer.spans
             if s["name"] == "run_cell" and s["parent"] == cold["id"]]
    busy = sum(s["end"] - s["start"] for s in cells)
    payloads = tracer.counts.get("harness.payloads", 0)
    executed = untraced["executed"]
    stats = registry.to_dict()
    run.layer.update({
        "harness.dispatch_us_per_cell": 1e6 * max(
            0.0, untraced["main_cpu"] - sum(untraced["put_s"])
        ) / executed if executed else 0.0,
        "harness.wire_bytes_per_cell": (
            tracer.counts.get("harness.wire_bytes", 0) / payloads
            if payloads else 0.0),
        "harness.queue_wait_ms_p50": 1000 * statistics.median(
            s["start"] - cold_start for s in cells) if cells else 0.0,
        "harness.worker_busy_frac": (
            busy / (jobs * (cold_end - cold_start))),
        "harness.cache_get_us": 1e6 * statistics.median(untraced["get_s"]),
        "harness.cache_put_us": 1e6 * statistics.median(untraced["put_s"]),
        "harness.retries": counter(stats, "sweep.retries"),
        "harness.failures": counter(stats, "sweep.failures"),
        "harness.cache_read_errors": counter(stats, "cache.read_errors"),
        "harness.warm_self_share": warm["self_share"]["harness"],
        "jit.fused_speedup": 0.0,
        "workloads.builds": tracer.counts.get("workloads.builds", 0),
        "workloads.build_ms": 1000 * sum(tracer.durations("Workload.build")),
        "trace.overhead_ratio": (
            (traced["wall"] + sum(traced["warm"]))
            / (untraced["wall"] + sum(untraced["warm"]))),
    })
    run.report["spans"] = tracer.spans


def counter(stats: dict[str, Any], name: str) -> float:
    value = stats.get(name, 0)
    return value.get("value", 0) if isinstance(value, dict) else value
