"""Tests of the benchmark itself, at quick scale (the small machine).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
from perfbench import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--quick",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def report(workload: str, trace: int, seed: int) -> dict:
    path = ROOT / ".perfbench" / f"{workload}-quick-trace{trace}-seed{seed}.json"
    return json.loads(path.read_text())


def test_quick_mode_runs_all_three_workloads():
    code, result, out = bench("--workload", "all")
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in ("sim-prefetch", "sim-core", "sweep-fig5"):
        for metric in BENCH_SPEC["end_to_end"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0, (workload, metric["name"])


def test_corrupted_pin_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS.read_text())
    pins["quick"]["cells"]["em3d/hardware/table"][0] += 1
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", bad)
    code = run.main(["--workload", "sim-prefetch", "--quick",
                     "--seconds", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0, out
    assert result is not None and not result["correct"]
    # Only that cell's pin fails; the other cells and checks still pass.
    assert 1 <= result["failed"] < result["attempted"]
    assert "em3d/hardware/table" in out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_emitted_name_is_well_formed(trace):
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"] for m in BENCH_SPEC[section]}
    for workload in ("sim-prefetch", "sweep-fig5"):
        code, result, out = bench("--workload", workload,
                                  "--trace", str(trace))
        assert code == 0, out
        assert set(result["metrics"]) == wanted
        assert all(NAME.fullmatch(n) for n in result["metrics"])
        for metric in result["metrics"].values():
            assert NAME.fullmatch(metric["unit"].replace("/", "_")
                                  .replace("%", "_"))


def test_bench_spec_names_are_well_formed():
    names = [w["name"] for w in BENCH_SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCH_SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("workload", ["sim-prefetch", "sim-core"])
def test_calls_per_inst_repeat_exactly(workload):
    runs = []
    for __ in range(2):
        code, result, out = bench("--workload", workload, "--trace", "1")
        assert code == 0, out
        runs.append({n: m["value"] for n, m in result["metrics"].items()
                     if n.endswith("calls_per_inst") or n.endswith("_per_inst")})
    assert runs[0] == runs[1]
    assert runs[0]["total.calls_per_inst"] > 0


def test_traced_ledger_shows_the_predicted_bypasses():
    __, core, out = bench("--workload", "sim-core", "--trace", "1")
    core = {n: m["value"] for n, m in core["metrics"].items()}
    assert core["prefetch.request_per_inst"] == 0
    assert core["prefetch.load_hooks_per_inst"] == 0
    # Only the per-simulation engine set-up, no per-instruction calls.
    assert core["prefetch.calls_per_inst"] < 1e-3
    for name in ("obs.self_share", "harness.self_share"):
        assert core[name] == 0
    shares = [v for n, v in core.items() if n.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)
    __, sweep, out = bench("--workload", "sweep-fig5", "--trace", "1")
    sweep = {n: m["value"] for n, m in sweep["metrics"].items()}
    assert sweep["harness.warm_self_share"] > 0.5
    assert sweep["obs.self_share"] > 0


def test_rows_are_identical_across_seeds():
    rows, orders = [], []
    for seed in (0, 4, 5):  # three different workload orders
        code, __, out = bench("--workload", "sweep-fig5", "--seed", str(seed))
        assert code == 0, out
        data = report("sweep-fig5", 0, seed)
        assert data["env"]["seed"] == seed
        rows.append(sorted(json.dumps(r, sort_keys=True) for r in data["rows"]))
        orders.append(tuple(data["workload_order"]))
    assert rows[0] == rows[1] == rows[2]
    assert len(set(orders)) == 3


def test_report_carries_the_environment_stamp():
    code, __, out = bench("--workload", "sim-core", "--seed", "4")
    assert code == 0, out
    env = report("sim-core", 0, 4)["env"]
    for key in ("nproc", "detect_cpus", "python", "git_commit",
                "default_sim_engine", "loadavg_start", "loadavg_end"):
        assert env[key] not in (None, ""), key


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, out = bench("--workload", "sim-core", cwd=tmp_path)
    assert code != 0
    assert result is None, out


def test_pass_count_is_fixed_and_every_cell_is_probed():
    from perfbench import suite

    code, __, out = bench("--workload", "sim-core", "--seed", "2",
                          "--seconds", "600")
    assert code == 0, out
    data = report("sim-core", 0, 2)
    assert data["pass_count"] == suite.PASSES["sim-core"]
    for p in data["passes"]:
        for cell in p["cells"].values():
            assert cell["probe_before"][0] > 0 and cell["probe_after"][0] > 0
