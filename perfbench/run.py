"""Benchmark of the simulator and the sweep harness: one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-prefetch --seed 1 --seconds 30
    python3 perfbench/run.py --workload sweep-fig5 --trace 1   # layer ledger
    python3 perfbench/run.py --workload all --quick            # seconds

Workloads are ``sim-prefetch``, ``sim-core`` and ``sweep-fig5`` (see
``suite.py``), or ``all`` to run the three in turn.  Every run checks
its outputs against the pins in ``pins.json`` and prints every metric
with its unit.  ``--trace 0`` reports the end-to-end metrics that
``BENCHMARK.json`` gates; ``--trace 1`` makes the separate traced run
and reports the per-layer ledger.  A full report (environment stamp,
per-pass numbers, check messages, spans) is written under
``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed; it is 2, with no result printed,
when ``src/repro`` of this checkout cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("sim-prefetch", "sim-core", "sweep-fig5")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the order of cells / spec workloads")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="cap on the timed region: a fixed number of "
                         "passes, cut short only when this is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="the small machine with small_params")
    return ap.parse_args(argv)


def import_checkout() -> bool:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}",
              file=sys.stderr)
        return False
    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        print(f"perfbench: repro was imported from {where}, not {src}",
              file=sys.stderr)
        return False
    return True


def git_commit() -> str:
    """HEAD of the checkout ("unknown" in a plain source tree)."""
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def env_stamp(args: argparse.Namespace) -> dict:
    from repro.harness import detect_cpus
    from repro.isa.engines import default_sim_engine

    return {
        "nproc": os.cpu_count(),
        "detect_cpus": detect_cpus(),
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "default_sim_engine": default_sim_engine(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "machine": "small" if args.quick else "bench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": loadavg(),
    }


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(args: argparse.Namespace) -> int:
    from perfbench import suite

    stamp = env_stamp(args)
    with open(PINS) as f:
        pins = json.load(f)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    run = suite.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.quick, pins, rundir)
    try:
        if args.workload == "sweep-fig5":
            suite.run_sweep(run)
        else:
            suite.run_sim(run)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    stamp["loadavg_end"] = loadavg()

    checks = run.checks
    run.metrics["peak_rss_mb"] = suite.peak_rss_mb()
    run.metrics["fail_frac"] = checks.failed / max(1, checks.attempted)
    gated = bench_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in gated}
    shown = run.layer if args.trace else run.metrics
    for name in sorted(set(units) - set(shown)):
        checks.check(False, f"metric {name} was not measured")

    print(f"perfbench {args.workload} ({stamp['machine']}, seed {args.seed}, "
          f"trace {args.trace}, commit {stamp['git_commit'][:12]}, "
          f"nproc {stamp['nproc']}, detect_cpus {stamp['detect_cpus']}, "
          f"python {stamp['python']})")
    print(f"  loadavg {stamp['loadavg_start']} -> {stamp['loadavg_end']}")
    for name, value in sorted(shown.items()):
        unit = units.get(name) or suite.UNITS.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit}")
    if "hit_samples" in run.report:
        print(f"  hit latency samples: {run.report['hit_samples']}")
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed")
    for message in checks.messages:
        print(f"  FAILED: {message}")

    report = {
        "schema": "perfbench.report/1", "env": stamp,
        "metrics": run.metrics, "layer": run.layer,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "messages": checks.messages},
        **run.report,
    }
    name = (f"{args.workload}{'-quick' if args.quick else ''}"
            f"-trace{args.trace}-seed{args.seed}.json")
    with open(workdir / name, "w") as f:
        json.dump(report, f, indent=1, default=str)

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": shown[n], "unit": units[n]}
                    for n in units if n in shown},
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (set-up and peak RSS stay per
    workload); the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            merged["attempted"] += 1
            merged["failed"] += 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not import_checkout():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"perfbench: {time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
