"""Command-line interface: reproduce tables/figures and run single configs.

Examples::

    python -m repro list                         # every registry at a glance
    python -m repro list machines                # ... or one registry
    python -m repro run health --scheme hardware # one benchmark, one scheme
    python -m repro run health --all             # full Figure-5 row
    python -m repro table1                       # characterization table
    python -m repro figure4 | figure5 | figure6 | figure7 | x1 | x2
    python -m repro figure5 --jobs 4             # sweep across 4 processes
    python -m repro figure7 --no-cache           # ignore the on-disk cache
    python -m repro figure5 --timeout 300 --retries 2   # robust long sweep
    python -m repro figure5 --resume             # continue an interrupted sweep
    python -m repro figure5 --inject-faults 'health=transient:2'  # fault drill
    python -m repro serve /tmp/pool-a.sock --workers 4   # long-lived worker pool
    python -m repro submit examples/specs/figure5.toml --pool /tmp/pool-a.sock
    python -m repro figure5 --backend service --pool /tmp/pool-a.sock
    python -m repro run treeadd --scheme software --param levels=9 --param passes=2
    python -m repro run-spec examples/specs/figure5.toml --jobs 4
    python -m repro run-spec mysweep.toml --small -o result.json
    python -m repro tournament --small --jobs 4  # scheme zoo, ranked
    python -m repro tournament --machine small -o tournament.json
    python -m repro stats --json                 # telemetry artifact (JSON)
    python -m repro trace health --small -o health.trace.json
    python -m repro audit --machine small        # full simulation audit
    python -m repro audit --inject-faults 'em3d//dbp=corrupt'  # auditor drill
    python -m repro profile health --scheme hardware   # CPI stack + hot sites
    python -m repro profile em3d --small -o em3d.profile.json --trace em3d.trace.json
    python -m repro bench-diff BENCH_PR2.json BENCH_PR6.json
    python -m repro bench-diff BENCH_PR2.json --regen --tolerance 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import bench_config, table2_config, workload_names
from .audit import (
    Auditor,
    audit_workloads,
    compare_benchmarks,
    differential_check,
    fidelity_gate,
    regressions,
)
from .audit.gate import DEFAULT_GOLDEN
from .config import MSHR_MODELS, get_machine, machine_names
from .errors import ConfigError
from .harness import (
    SCHEMES,
    scheme_names,
    BackendError,
    ResultCache,
    SCHEME_REGISTRY,
    Scheduler,
    SchemeRun,
    SpecError,
    SweepJournal,
    SweepPlan,
    compile_spec,
    creation_overhead,
    figure5_summary,
    format_table,
    is_tournament_spec,
    load_spec,
    onchip_table_ablation,
    parse_fault_plan,
    run_scheme,
    spec_artifact,
    tournament_summary,
    traversal_count_sweep,
)
from .harness.scheduler import DEFAULT_LEASE_TTL, DEFAULT_POOL_WAIT
from .obs import (
    EventTrace,
    MetricRegistry,
    Profiler,
    Telemetry,
    artifact,
    cpi_stack_rows,
    dump_json,
    hot_site_rows,
    latency_rows,
)
from .isa.engines import SIM_ENGINE_ENV, SIM_ENGINES
from .prefetch.engines import ENGINES
from .workloads import workload_class


def _parse_params(items: list[str]) -> dict:
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _config(args) -> object:
    cfg = table2_config() if args.table2 else bench_config()
    if args.memory_latency:
        cfg = cfg.with_memory_latency(args.memory_latency)
    if args.interval:
        cfg = cfg.with_jump_interval(args.interval)
    return cfg


def _list_workloads() -> str:
    rows = []
    for name in workload_names():
        cls = workload_class(name)
        rows.append({
            "workload": name,
            "variants": " ".join(cls.variants),
            "structure": cls.structure,
        })
    return format_table(rows, "Workloads")


def _list_machines() -> str:
    rows = []
    for name in machine_names():
        cfg = get_machine(name)
        rows.append({
            "machine": name,
            "mem latency": cfg.memory_latency,
            "dl1": f"{cfg.dl1.size // 1024}KB",
            "l2": f"{cfg.l2.size // 1024}KB",
            "mshr": cfg.mshr_model,
            "jump interval": cfg.prefetch.jump_interval,
        })
    return format_table(rows, "Machines")


def _list_schemes() -> str:
    rows = []
    for name, scheme in SCHEME_REGISTRY.items():
        variant = scheme.variant or f"{scheme.variant_prefix}<idiom>"
        rows.append({
            "scheme": name,
            "variant": variant,
            "engine": scheme.engine,
            "description": scheme.description,
        })
    return format_table(rows, "Schemes")


def _list_engines() -> str:
    rows = []
    for name, cls in ENGINES.items():
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append({"engine": name, "description": doc[0] if doc else ""})
    return format_table(rows, "Prefetch engines")


def _list_sim_engines() -> str:
    rows = [
        {"engine": name, "description": se.description}
        for name, se in SIM_ENGINES.items()
    ]
    return format_table(rows, "Simulation engines")


def cmd_list(args) -> int:
    sections = {
        "machines": _list_machines,
        "schemes": _list_schemes,
        "engines": _list_engines,
        "sim-engines": _list_sim_engines,
        "workloads": _list_workloads,
    }
    if args.what != "all":
        print(sections[args.what]())
        return 0
    print("\n\n".join(fn() for fn in sections.values()))
    return 0


def _scheme_runs(
    args, cfg, schemes: tuple[str, ...], telemetry: bool = False,
    progress=None,
) -> dict[str, SchemeRun]:
    """Run ``schemes`` of ``args.workload`` through one serial, uncached
    sweep (the compute-time run of a program variant is shared)."""
    plan = SweepPlan(cfg)
    params = _workload_params(args)
    scheduled = {
        scheme: plan.add_run(args.workload, scheme, params, args.idiom,
                             telemetry=telemetry)
        for scheme in schemes
    }
    results = plan.execute(Scheduler(progress=progress))
    return {scheme: results.scheme_run(sr) for scheme, sr in scheduled.items()}


def cmd_run(args) -> int:
    cfg = _config(args)
    schemes = SCHEMES if args.all else (args.scheme,)
    runs = _scheme_runs(args, cfg, ("base",) + schemes)
    base = runs["base"]
    rows = []
    for scheme in schemes:
        run = runs[scheme]
        rows.append({
            "scheme": scheme,
            "variant": run.variant,
            "cycles": run.total,
            "compute": run.compute,
            "memory": run.memory,
            "normalized": round(run.normalized(base.total), 3),
            "ipc": round(run.result.ipc, 2),
        })
    print(format_table(rows, f"{args.workload} on {type(cfg).__name__}"))
    return 0


def _workload_params(args) -> dict:
    params = _parse_params(args.param)
    if args.small:
        params = {**workload_class(args.workload).test_params(), **params}
    return params


def _run_meta(args) -> dict:
    return {
        "machine": "table2" if args.table2 else "bench",
        "memory_latency_override": args.memory_latency or None,
        "jump_interval_override": args.interval or None,
        "workload": args.workload,
        "params": _workload_params(args),
    }


def cmd_stats(args) -> int:
    """Run with full telemetry; emit tables or a schema-stable artifact."""
    schemes = (args.scheme,) if args.scheme else SCHEMES
    runs = _scheme_runs(
        args, _config(args), schemes, telemetry=True,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    base_total = runs["base"].total if "base" in runs else None
    if args.json:
        engines = {}
        for scheme, run in runs.items():
            tele = run.result.telemetry
            engines[scheme] = {
                "engine": run.result.engine_name,
                "prefetch_outcomes": tele["prefetch_outcomes"]["counts"],
                "miss_latency": tele["metrics"]["mem.miss_latency_cycles"],
            }
        doc = artifact(
            "stats",
            {
                "benchmark": args.workload,
                "engines": engines,
                "runs": {s: r.to_dict(baseline_total=base_total)
                         for s, r in runs.items()},
            },
            meta=_run_meta(args),
        )
        if args.output:
            dump_json(doc, args.output)
            print(f"wrote {args.output}")
        else:
            print(dump_json(doc))
        return 0
    # Plain-text: scheme summary, then outcome and miss-latency breakdowns.
    summary = []
    for scheme, run in runs.items():
        row = {
            "scheme": scheme,
            "variant": run.variant,
            "cycles": run.total,
            "memory": run.memory,
            "ipc": round(run.result.ipc, 2),
        }
        if base_total:
            row["normalized"] = round(run.normalized(base_total), 3)
        summary.append(row)
    print(format_table(summary, f"{args.workload} — scheme summary"))
    outcome_rows = []
    for scheme, run in runs.items():
        counts = run.result.telemetry["prefetch_outcomes"]["counts"]
        if sum(counts.values()):
            outcome_rows.append({"scheme": scheme, **counts})
    if outcome_rows:
        print()
        print(format_table(outcome_rows, "Prefetch outcomes"))
    print()
    hist_rows = []
    for scheme, run in runs.items():
        hist = run.result.telemetry["metrics"]["mem.miss_latency_cycles"]
        row = {"scheme": scheme, "misses": hist["count"],
               "mean": round(hist["mean"], 1)}
        for b in hist["buckets"]:
            label = f"<={b['le']}" if b["le"] is not None else "inf"
            row[label] = b["count"]
        hist_rows.append(row)
    print(format_table(hist_rows, "Demand miss latency (cycles)"))
    return 0


def cmd_trace(args) -> int:
    """Run one scheme with event tracing; write a Chrome trace file."""
    trace = EventTrace(limit=args.limit)
    run = run_scheme(args.workload, args.scheme, _config(args),
                     _workload_params(args), args.idiom,
                     telemetry=Telemetry(trace=trace))
    out = args.output or f"{args.workload}-{args.scheme}.trace.json"
    trace.dump(out)
    print(f"wrote {out}: {len(trace)} events "
          f"({trace.dropped} dropped past --limit), "
          f"{run.total} cycles simulated; open in chrome://tracing")
    return 0


def _journal_path(args, name: str | None = None) -> Path:
    """Default journal location: one file per spec name (or per x1/x2
    command) under the cache root, so ``--resume`` needs no path
    bookkeeping."""
    if args.journal:
        return Path(args.journal)
    root = Path(
        args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    )
    return root / "journals" / f"{name or args.command}.jsonl"


def _build_executor(args, journal_name: str | None = None) -> Scheduler:
    """--jobs/--cache/--timeout/--retries/--resume/--inject-faults
    plumbing shared by figure commands.  One obs registry spans the
    cache, the journal, and the executor so a single dump shows the
    whole sweep's behaviour."""
    registry = MetricRegistry()
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir, registry=registry)
    backend = getattr(args, "backend", None)
    pools = list(getattr(args, "pool", None) or [])
    if pools and backend is None:
        backend = "service"          # --pool alone implies the backend
    if backend == "service" and not pools:
        raise SystemExit(
            "error: the service backend needs at least one --pool PATH "
            "(start one with `python -m repro serve PATH`)"
        )
    progress = None
    if args.progress or args.jobs > 1 or backend == "service":
        progress = lambda line: print(f"  {line}", file=sys.stderr)
    journal = SweepJournal(_journal_path(args, journal_name), registry=registry,
                           resume=args.resume)
    faults = parse_fault_plan(args.inject_faults)
    if faults is not None:
        print(f"  injecting faults: {faults.describe()}", file=sys.stderr)
    return Scheduler(
        jobs=args.jobs,
        cache=cache,
        progress=progress,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        journal=journal,
        faults=faults,
        registry=registry,
        backend=backend,
        pools=pools,
        lease_ttl=getattr(args, "lease_ttl", DEFAULT_LEASE_TTL),
        pool_wait=getattr(args, "pool_wait", DEFAULT_POOL_WAIT),
    )


def _sweep_footer(executor: Scheduler) -> None:
    if executor.cache is not None:
        print(f"  {executor.cache.describe()}", file=sys.stderr)
    if executor.journal is not None:
        print(f"  {executor.journal.describe()}", file=sys.stderr)
        executor.journal.close()
    print(f"  {executor.describe()}", file=sys.stderr)


def _parse_override_value(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


#: The paper's artifacts: each command runs the shipped spec file of the
#: same name, exactly as ``run-spec`` would.
PAPER_SPECS = ("table1", "figure4", "figure5", "figure6", "figure7")

#: Every command that defaults to a shipped spec file of its own name.
SPEC_ALIASES = PAPER_SPECS + ("tournament",)


def _shipped_spec(name: str) -> Path:
    """``examples/specs/<name>.toml``, resolved against the repo checkout
    (the CLI runs from anywhere; a cwd-relative path is tried first)."""
    rel = Path("examples/specs") / f"{name}.toml"
    if rel.exists():
        return rel
    return Path(__file__).resolve().parents[2] / rel


def cmd_run_spec(args) -> int:
    if args.command == "submit":
        # ``repro submit`` is ``run-spec`` pinned to the service
        # backend: cells ship to long-lived ``repro serve`` pools.
        args.backend = "service"
    if args.spec is None:
        args.spec = _shipped_spec(args.command)
    spec = load_spec(args.spec)
    if args.command == "tournament" and not is_tournament_spec(spec):
        raise SystemExit(
            f"error: {args.spec} is not a tournament spec (needs "
            "telemetry = true, scheme-labeled matrix rows, and the "
            "normalized/issued/outcome columns)"
        )
    machine = args.machine or ("table2" if args.table2 else None)
    if machine:
        spec = spec.with_machine(machine)
    if args.small:
        spec = spec.small()
    # The global machine flags are overrides like any other, and
    # explicit --set paths win over them.
    extra = {}
    if args.memory_latency:
        extra["memory_latency"] = args.memory_latency
    if args.interval:
        extra["prefetch.jump_interval"] = args.interval
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects path=value, got {item!r}")
        extra[key] = _parse_override_value(value)
    if extra:
        spec = replace(spec, overrides={**spec.overrides, **extra})
    executor = _build_executor(args, journal_name=f"spec-{spec.name}")
    compiled = compile_spec(spec)
    print(f"  {args.spec}: {len(compiled.rows)} rows over "
          f"{compiled.cell_count} distinct cells", file=sys.stderr)
    rows = compiled.execute(executor)
    print(format_table(rows, spec.title or spec.name))
    if args.command == "figure5":
        print()
        print(format_table(figure5_summary(rows), "Memory-bound averages"))
    summary = None
    if is_tournament_spec(spec):
        summary = tournament_summary(rows, label_key=spec.label_key)
        print()
        print(format_table(
            summary,
            "Tournament — schemes ranked by geomean normalized time "
            "(lower is better)",
        ))
    if args.output:
        meta = {
            "source": str(args.spec),
            "machine": spec.machine,
            "sweep": executor.stats(),
        }
        if summary is not None:
            meta["summary"] = summary
        doc = spec_artifact(spec, rows, meta=meta)
        dump_json(doc, args.output)
        print(f"wrote {args.output}")
    _sweep_footer(executor)
    return 0


def cmd_serve(args) -> int:
    """Run one long-lived sweep worker pool on a Unix socket."""
    import signal

    from .harness.service import SweepService

    name = args.name or f"pool-{os.getpid()}"
    trace = EventTrace(limit=args.limit) if args.trace else None
    progress = None
    if not args.quiet:
        progress = lambda line: print(f"  {line}", file=sys.stderr)
    svc = SweepService(
        args.socket,
        args.workers or None,
        name=name,
        trace=trace,
        progress=progress,
    )
    signal.signal(signal.SIGTERM, lambda *_: svc.stop())
    print(
        f"repro serve: pool {name!r}, {svc.workers} worker(s), "
        f"socket {args.socket} (protocol repro.job/1; Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        svc.serve_forever()
    except KeyboardInterrupt:
        pass
    if trace is not None:
        trace.dump(args.trace)
        print(f"wrote {args.trace}: {len(trace)} events", file=sys.stderr)
    s = svc.stats()
    print(
        f"repro serve: {s['leased']} job(s) leased, {s['completed']} "
        f"completed, {s['pool_rebuilds']} pool rebuild(s)",
        file=sys.stderr,
    )
    return 0


def cmd_audit(args) -> int:
    """Invariant sweep + differential validation + golden-drift gate."""
    failures = 0

    faults = parse_fault_plan(args.inject_faults)
    if faults is not None:
        print(f"  injecting faults: {faults.describe()}", file=sys.stderr)
    cells = audit_workloads(
        machine=args.machine,
        workloads=args.workloads or None,
        schemes=args.schemes or None,
        interval=args.every,
        faults=faults,
        strict=args.strict,
        mshr_model=args.mshr_model,
    )
    print(format_table(
        [c.row() for c in cells],
        f"Invariant sweep — {args.machine} machine, every {args.every} commits",
    ))
    for cell in cells:
        if cell.corrupted:
            # The drill: a deliberately-corrupted cell MUST be caught.
            if cell.ok:
                failures += 1
                print(f"  DRILL FAILED: corrupted cell {cell.benchmark}/"
                      f"{cell.scheme} reported no violation", file=sys.stderr)
        elif not cell.ok:
            failures += 1
            for v in cell.violations[:4]:
                print(f"  VIOLATION: {cell.benchmark}/{cell.scheme} "
                      f"{v.describe()}", file=sys.stderr)

    golden = Path(args.golden) if args.golden else DEFAULT_GOLDEN
    if args.no_diff:
        pass
    elif not golden.exists():
        print(f"  (no golden file at {golden}; skipping differential "
              f"check and fidelity gate)", file=sys.stderr)
    else:
        diff_rows = differential_check(
            golden, machine=args.machine, full_stats_sample=args.diff_sample,
            mshr_model=args.mshr_model,
        )
        print()
        print(format_table(
            [{k: row[k] for k in ("cell", "variant", "mode", "ok",
                                  "divergence")}
             for row in diff_rows],
            "Differential validation — fast vs reference interpreter",
        ))
        for row in diff_rows:
            if not row["ok"]:
                failures += 1
                for line in row["stat_diffs"]:
                    print(f"  STAT DIFF: {row['cell']}: {line}",
                          file=sys.stderr)

    if not args.no_gate and golden.exists():
        drift = fidelity_gate(golden, machine=args.machine)
        print()
        if drift:
            failures += len(drift)
            print(format_table(drift, "Fidelity gate — drift vs golden pins"))
        else:
            print("Fidelity gate: all golden cells reproduce bit-exactly "
                  "(zero drift).")

    if failures:
        print(f"\naudit FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print("\naudit OK")
    return 0


def cmd_profile(args) -> int:
    """Run one scheme under the cycle-attribution profiler: CPI stack,
    ranked hot load sites, per-level latency — conservation audited."""
    trace = EventTrace(limit=args.limit) if args.trace else None
    auditor = Auditor(interval=args.every)
    run = run_scheme(
        args.workload, args.scheme, _config(args), _workload_params(args),
        args.idiom,
        telemetry=Telemetry(trace=trace) if trace is not None else Telemetry(),
        profile=Profiler(),
        audit=auditor,
    )
    profile = run.result.profile

    print(format_table(
        cpi_stack_rows(profile),
        f"{args.workload}/{run.scheme} — CPI stack over {run.total} cycles",
    ))
    hot = hot_site_rows(profile, top=args.top)
    print()
    if hot:
        print(format_table(hot, f"Hot load sites (top {args.top} by stall cycles)"))
    else:
        print("Hot load sites: none (no linked-data loads stalled commit).")
    lat = latency_rows(profile)
    if lat:
        print()
        print(format_table(lat, "Load latency by hierarchy level (cycles)"))

    if args.trace:
        trace.dump(args.trace)
        print(f"\nwrote {args.trace}: {len(trace)} events "
              f"({trace.dropped} dropped past --limit); open in chrome://tracing")
    if args.output:
        doc = artifact(
            "profile",
            {
                "benchmark": args.workload,
                "scheme": run.scheme,
                "variant": run.variant,
                "total": run.total,
                "compute": run.compute,
                "memory": run.memory,
                "profile": profile,
            },
            meta=_run_meta(args),
        )
        dump_json(doc, args.output)
        print(f"wrote {args.output}")

    if not auditor.ok:
        for v in auditor.violations[:8]:
            print(f"  VIOLATION: {v.describe()}", file=sys.stderr)
        print(f"\nprofile audit FAILED: {auditor.violation_count} "
              f"violation(s)", file=sys.stderr)
        return 1
    print(f"\nprofile audit OK: {auditor.checks} sweeps, CPI-stack buckets "
          f"sum to {run.total} cycles")
    return 0


def _bench_regen(quick: bool) -> dict:
    """Re-run ``benchmarks/perf_baseline.py`` and load its report."""
    script = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_baseline.py"
    if not script.exists():
        raise SystemExit(f"error: {script} not found (run from a source checkout)")
    with tempfile.TemporaryDirectory(prefix="repro-bench-diff-") as tmp:
        out = Path(tmp) / "bench.json"
        cmd = [sys.executable, str(script), "-o", str(out)]
        if quick:
            cmd.append("--quick")
        print(f"  regenerating: {' '.join(cmd[1:])}", file=sys.stderr)
        proc = subprocess.run(cmd, cwd=script.parent.parent)
        if proc.returncode:
            raise SystemExit(f"error: perf_baseline.py exited {proc.returncode}")
        with open(out) as f:
            return json.load(f)


def cmd_bench_diff(args) -> int:
    """Signed per-metric drift between two perf-baseline reports."""
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {args.baseline}: {exc}") from None
    if args.regen:
        current = _bench_regen(args.quick)
        current_name = "(regenerated)"
    elif args.current:
        try:
            with open(args.current) as f:
                current = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"error: cannot read {args.current}: {exc}"
            ) from None
        current_name = args.current
    else:
        raise SystemExit("error: bench-diff needs CURRENT or --regen")

    rows = compare_benchmarks(baseline, current, tolerance=args.tolerance)
    print(format_table(
        rows, f"bench-diff — {args.baseline} vs {current_name}"
    ))
    bad = regressions(rows)
    if args.output:
        doc = artifact(
            "bench_diff",
            {
                "baseline": str(args.baseline),
                "current": current_name,
                "tolerance": args.tolerance,
                "rows": rows,
                "regressions": len(bad),
            },
        )
        dump_json(doc, args.output)
        print(f"wrote {args.output}")
    if bad:
        for row in bad:
            print(f"  REGRESSION: {row['metric']} ({row['mode']} {row['band']}): "
                  f"{row['baseline']} -> {row['current']}", file=sys.stderr)
        print(f"\nbench-diff FAILED: {len(bad)} regression(s) "
              f"(tolerance {args.tolerance})", file=sys.stderr)
        return 1
    print(f"\nbench-diff OK: {len(rows)} metrics within tolerance "
          f"{args.tolerance}")
    return 0


def cmd_extension(args) -> int:
    """X1/X2: the extension experiments, whose rows are not spec rows."""
    cfg = _config(args)
    executor = _build_executor(args)
    if args.command == "x1":
        print(format_table(onchip_table_ablation(cfg, executor=executor),
                           "X1 — on-chip jump-pointer table ablation"))
    else:
        print(format_table(creation_overhead(cfg, executor=executor),
                           "X2 — jump-pointer creation overhead"))
        print()
        print(format_table(traversal_count_sweep(cfg, executor=executor),
                           "X2 — traversal-count sensitivity (treeadd)"))
    _sweep_footer(executor)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Jump-pointer prefetching reproduction (Roth & Sohi, ISCA 1999)",
    )
    parser.add_argument("--table2", action="store_true",
                        help="use the paper's full-size Table-2 machine "
                             "instead of the scaled bench machine")
    parser.add_argument("--memory-latency", type=int, default=0,
                        help="override main-memory latency (cycles)")
    parser.add_argument("--interval", type=int, default=0,
                        help="override the hardware jump interval")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        choices=SIM_ENGINES.names(),
                        help="simulation engine executing every cell "
                             "(table/reference/compiled; bit-identical "
                             "results, different speed). Equivalent to "
                             "setting $REPRO_SIM_ENGINE")
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list the experiment-axis registries")
    lst.add_argument("what", nargs="?", default="all",
                     choices=("all", "machines", "schemes", "engines",
                              "sim-engines", "workloads"),
                     help="one registry, or everything (default)")

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("workload", choices=workload_names())
    run.add_argument("--scheme", choices=scheme_names(), default="base")
    run.add_argument("--all", action="store_true", help="run every scheme")
    run.add_argument("--idiom", default=None,
                     help="idiom for software/cooperative (default: paper's choice)")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="workload parameter override")
    run.add_argument("--small", action="store_true",
                     help="use the quick test-size parameters")

    stats = sub.add_parser(
        "stats",
        help="run with full telemetry; print tables or a JSON artifact",
    )
    stats.add_argument("workload", nargs="?", default="health",
                       choices=workload_names())
    stats.add_argument("--scheme", choices=scheme_names(), default=None,
                       help="restrict to one scheme (default: all five)")
    stats.add_argument("--idiom", default=None)
    stats.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    stats.add_argument("--small", action="store_true",
                       help="use the quick test-size parameters")
    stats.add_argument("--json", action="store_true",
                       help="emit the repro.stats/1 JSON artifact")
    stats.add_argument("-o", "--output", default=None,
                       help="write the artifact here instead of stdout")

    trace = sub.add_parser(
        "trace",
        help="run one scheme with event tracing; write a Chrome "
             "trace_event file for chrome://tracing",
    )
    trace.add_argument("workload", nargs="?", default="health",
                       choices=workload_names())
    trace.add_argument("--scheme", choices=scheme_names(), default="hardware")
    trace.add_argument("--idiom", default=None)
    trace.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    trace.add_argument("--small", action="store_true")
    trace.add_argument("--limit", type=int, default=1_000_000,
                       help="event-buffer cap (default 1M)")
    trace.add_argument("-o", "--output", default=None,
                       help="trace file path (default <workload>-<scheme>.trace.json)")

    spec_p = sub.add_parser(
        "run-spec",
        help="run a declarative experiment spec file (.toml or .json); "
             "see examples/specs/",
    )
    spec_p.add_argument("spec", help="path to the spec file")
    tour = sub.add_parser(
        "tournament",
        help="race every scheme against every workload and rank them: "
             "per-cell outcome breakdowns plus the geomean-normalized "
             "summary (default spec: examples/specs/tournament.toml)",
    )
    tour.add_argument("spec", nargs="?", default=None,
                      help="tournament spec file (default: the shipped "
                           "examples/specs/tournament.toml)")
    submit = sub.add_parser(
        "submit",
        help="run an experiment spec on repro serve worker pools "
             "(run-spec pinned to the service backend): ships compiled "
             "cells as leased jobs, streams progress, assembles "
             "through the shared result cache",
    )
    submit.add_argument("spec", help="path to the spec file")
    for fig in PAPER_SPECS:
        sub.add_parser(
            fig, help=f"reproduce {fig}: run-spec on the shipped "
                      f"examples/specs/{fig}.toml",
        ).set_defaults(spec=None)

    serve = sub.add_parser(
        "serve",
        help="run a long-lived sweep worker pool: an asyncio job queue "
             "on a Unix socket (repro.job/1) fronting a local process "
             "pool; sweeps connect with --backend service / `repro "
             "submit`",
    )
    serve.add_argument("socket", help="Unix socket path to listen on")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker processes (default: 0 = cgroup/"
                            "affinity-aware auto-detection)")
    serve.add_argument("--name", default=None,
                       help="pool name announced to clients "
                            "(default: pool-<pid>)")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace of the pool's life "
                            "(leases, runs, results, rebuilds) on exit")
    serve.add_argument("--limit", type=int, default=1_000_000,
                       help="trace event-buffer cap (default 1M)")
    serve.add_argument("--quiet", action="store_true",
                       help="do not narrate leases/results on stderr")

    audit = sub.add_parser(
        "audit",
        help="run the simulation auditor: invariant sweep over the "
             "workload/scheme matrix, differential fast-vs-reference "
             "interpreter validation, and the golden-drift fidelity gate",
    )
    audit.add_argument("--machine", choices=machine_names(), default="small",
                       help="named machine for the sweep (default: small)")
    audit.add_argument("--mshr-model", choices=list(MSHR_MODELS),
                       default=None, metavar="MODEL",
                       help="override the machine's MSHR model for the "
                            "invariant sweep and differential stats sample "
                            "(blocking | coalescing | full; default: the "
                            "machine's own setting)")
    audit.add_argument("--workloads", nargs="+", default=None,
                       choices=workload_names(), metavar="WORKLOAD",
                       help="restrict the invariant sweep (default: all)")
    audit.add_argument("--schemes", nargs="+", default=None, choices=scheme_names(),
                       metavar="SCHEME",
                       help="restrict the invariant sweep (default: all five)")
    audit.add_argument("--every", type=int, default=512, metavar="N",
                       help="invariant-sweep cadence in commits (default: 512)")
    audit.add_argument("--golden", default=None, metavar="FILE",
                       help="golden pin file for the differential check and "
                            "fidelity gate (default: tests/golden_cycles.json)")
    audit.add_argument("--diff-sample", type=int, default=2, metavar="N",
                       help="cells whose full timing stats are also diffed "
                            "on the reference path (default: 2)")
    audit.add_argument("--no-diff", action="store_true",
                       help="skip the differential interpreter validation")
    audit.add_argument("--no-gate", action="store_true",
                       help="skip the golden-drift fidelity gate")
    audit.add_argument("--strict", action="store_true",
                       help="raise on the first violation instead of "
                            "collecting a report")
    audit.add_argument("--inject-faults", default=None, metavar="PLAN",
                       help="corrupt-outcome drill plan, e.g. "
                            "'em3d//dbp=corrupt' — matched cells get a "
                            "deliberately broken outcome tracker that the "
                            "auditor must catch")

    prof = sub.add_parser(
        "profile",
        help="run one scheme under the cycle-attribution profiler: "
             "CPI stack, ranked hot load sites, and per-level latency "
             "histograms, with conservation audited",
    )
    prof.add_argument("workload", nargs="?", default="health",
                      choices=workload_names())
    prof.add_argument("--scheme", choices=scheme_names(), default="hardware")
    prof.add_argument("--idiom", default=None,
                      help="idiom for software/cooperative (default: paper's choice)")
    prof.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE")
    prof.add_argument("--small", action="store_true",
                      help="use the quick test-size parameters")
    prof.add_argument("--top", type=int, default=10, metavar="N",
                      help="hot-site rows to print (default: 10)")
    prof.add_argument("--every", type=int, default=512, metavar="N",
                      help="auditor cadence (commits) enforcing CPI-stack "
                           "conservation mid-run (default: 512)")
    prof.add_argument("--trace", default=None, metavar="FILE",
                      help="also write a Chrome trace with cpi_stack / "
                           "load_level counter tracks")
    prof.add_argument("--limit", type=int, default=1_000_000,
                      help="trace event-buffer cap (default 1M)")
    prof.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="write the repro.profile/1 JSON artifact")

    bd = sub.add_parser(
        "bench-diff",
        help="signed per-metric drift between two BENCH_*.json "
             "perf-baseline reports; exits non-zero on regression "
             "(the CI perf gate)",
    )
    bd.add_argument("baseline", help="baseline report, e.g. BENCH_PR2.json")
    bd.add_argument("current", nargs="?", default=None,
                    help="current report (omit with --regen)")
    bd.add_argument("--regen", action="store_true",
                    help="regenerate the current report now via "
                         "benchmarks/perf_baseline.py")
    bd.add_argument("--quick", action="store_true",
                    help="with --regen: test-size smoke run (compare "
                         "against a --quick baseline only)")
    bd.add_argument("--tolerance", type=float, default=0.25, metavar="T",
                    help="relative band for wall-clock (lower) and "
                         "throughput (higher) rules; exact rules always "
                         "require bit-identical values (default: 0.25)")
    bd.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write the repro.bench_diff/1 JSON artifact")

    sub.add_parser("x1", help="extension: on-chip jump-pointer table "
                              "ablation")
    sub.add_parser("x2", help="extension: creation overhead + "
                              "traversal-count sweep")
    for name in ("run-spec", "submit") + SPEC_ALIASES:
        p = sub.choices[name]
        p.add_argument("--machine", choices=machine_names(), default=None,
                       help="run on this named machine instead of the "
                            "spec's own (wins over --table2)")
        p.add_argument("--small", action="store_true",
                       help="use every workload's quick test-size "
                            "parameters (spec params still win)")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="extra dotted-path machine override, e.g. "
                            "--set prefetch.jump_interval=4 (repeatable; "
                            "wins over --memory-latency/--interval)")
        p.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="also write the repro.experiment/1 artifact "
                            "(rows + the spec that produced them)")
    for name in ("run-spec", "submit", "x1", "x2") + SPEC_ALIASES:
        p = sub.choices[name]
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run sweep cells across N worker processes "
                            "(default: 1, serial; 0 = cgroup/affinity-"
                            "aware auto-detection)")
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default: $REPRO_CACHE_DIR "
                            "or .repro_cache)")
        p.add_argument("--progress", action="store_true",
                       help="narrate per-cell progress on stderr "
                            "(implied by --jobs > 1)")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-cell wall-clock budget; a hung worker is "
                            "terminated and the cell charged a failed attempt")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry a failed/timed-out cell up to N times "
                            "with exponential backoff (default: 0)")
        p.add_argument("--backoff", type=float, default=0.5, metavar="SEC",
                       help="base retry delay; doubles per attempt "
                            "(default: 0.5)")
        p.add_argument("--resume", action="store_true",
                       help="replay completed cells from the sweep journal "
                            "of an interrupted run instead of starting over")
        p.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint journal location (default: "
                            "<cache-root>/journals/spec-<name>.jsonl, "
                            "or <command>.jsonl for x1/x2)")
        p.add_argument("--inject-faults", default=None, metavar="PLAN",
                       help="deterministic fault plan for robustness drills: "
                            "'bench[/variant[/engine]]=kind[:times][@sec]' "
                            "entries (kinds: crash, hang, transient, corrupt, "
                            "crash-pool, drop-heartbeat, dup-result) "
                            "separated by commas")
        p.add_argument("--backend", default=None, metavar="NAME",
                       choices=("serial", "process", "service"),
                       help="worker backend (default: serial for --jobs 1, "
                            "the local process pool otherwise; 'service' "
                            "leases cells to repro serve pools)")
        p.add_argument("--pool", action="append", default=[], metavar="PATH",
                       help="Unix socket of a repro serve worker pool "
                            "(repeatable; implies --backend service)")
        p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                       metavar="SEC",
                       help="service job lease: seconds a pool may stay "
                            "silent before the attempt is charged "
                            f"(default: {DEFAULT_LEASE_TTL})")
        p.add_argument("--pool-wait", type=float, default=DEFAULT_POOL_WAIT,
                       metavar="SEC",
                       help="seconds the service backend waits for a worker "
                            "pool to (re)appear before failing the remaining "
                            f"cells (default: {DEFAULT_POOL_WAIT})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.engine:
        # The environment override is the single source of the session
        # default (harness workers inherit it), so the flag just sets it.
        os.environ[SIM_ENGINE_ENV] = args.engine
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command in ("run-spec", "submit") + SPEC_ALIASES:
            return cmd_run_spec(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "profile":
            return cmd_profile(args)
        if args.command == "bench-diff":
            return cmd_bench_diff(args)
        return cmd_extension(args)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}") from None
    except BackendError as exc:
        # No reachable pool / unknown backend is a usage error.
        raise SystemExit(f"error: {exc}") from None
    except ConfigError as exc:
        # A bad --set path / value is a usage error, not a crash.
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
