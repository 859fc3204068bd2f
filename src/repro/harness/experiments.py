"""The paper's extension experiments, and Figure 5's headline averages.

Table 1 and Figures 4–7 are defined only by the spec files under
``examples/specs/`` (run them with ``repro run-spec`` or the
``repro table1``/``figure4``…``figure7`` aliases).  What stays here is
what a spec row cannot express:

* :func:`figure5_summary` — the memory-bound averages printed under
  Figure 5;
* X1 (:func:`onchip_table_ablation`) and X2 (:func:`creation_overhead`,
  :func:`traversal_count_sweep`), whose rows compare several runs of
  one benchmark side by side.  They plan their cells on a
  :class:`~repro.harness.executor.SweepPlan` and execute through a
  :class:`~repro.harness.scheduler.Scheduler` (serial by default), so
  they share its deduplication, result cache, retries and resume.  A
  failed cell yields an error row instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..config import MachineConfig, bench_config
from ..workloads import workload_class
from .executor import SweepPlan, error_row
from .scheduler import Scheduler

#: Benchmarks with an appreciable memory-latency component — the set over
#: which the paper computes its headline averages ("If we disregard bh,
#: bisort, power, tsp and voronoi...", Section 4.2).
MEMORY_BOUND = ("em3d", "health", "mst", "perimeter", "treeadd")


def small_params(name: str) -> dict[str, Any]:
    """Reduced sizes for quick runs/tests (not the bench defaults)."""
    return workload_class(name).test_params()


# ----------------------------------------------------------------------
# Figure 5 — the paper's headline averages
# ----------------------------------------------------------------------

def figure5_summary(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """The paper's headline averages over the memory-bound benchmarks."""
    out = []
    for scheme in ("software", "cooperative", "hardware", "dbp"):
        # Degenerate tiny runs can round "normalized" to 0.0 (and error
        # rows carry no metrics at all); both are skipped, not divided by.
        picked = [
            r for r in rows
            if r["scheme"] == scheme and r["benchmark"] in MEMORY_BOUND
            and r.get("normalized")
        ]
        if not picked:
            continue
        speedup = sum(1 / r["normalized"] for r in picked) / len(picked)
        memcut = sum(r["mem_reduction%"] for r in picked) / len(picked)
        out.append({
            "scheme": scheme,
            "avg speedup%": round(100 * (speedup - 1), 1),
            "avg mem stall cut%": round(memcut, 1),
        })
    return out


# ----------------------------------------------------------------------
# X1 — on-chip jump-pointer table ablation (Section 3.3)
# ----------------------------------------------------------------------

def onchip_table_ablation(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] = ("em3d", "health", "treeadd"),
    table_entries: int = 16384,
    params: dict[str, dict[str, Any]] | None = None,
    executor: Scheduler | None = None,
) -> list[dict[str, object]]:
    cfg = cfg or bench_config()
    onchip_cfg = replace(
        cfg, prefetch=replace(cfg.prefetch, onchip_table_entries=table_entries)
    )
    plan = SweepPlan(cfg)
    scheduled = []
    for name in benchmarks:
        p = (params or {}).get(name)
        scheduled.append((
            name,
            plan.add_run(name, "base", p),
            plan.add_run(name, "hardware", p),
            plan.add_run(name, "hardware", p, cfg=onchip_cfg),
        ))
    results = plan.execute(executor)

    rows = []
    for name, base_sr, padding_sr, onchip_sr in scheduled:
        base, e1 = results.resolve(base_sr)
        padding, e2 = results.resolve(padding_sr)
        onchip, e3 = results.resolve(onchip_sr)
        err = e1 or e2 or e3
        if err is not None:
            rows.append(error_row(name, "hardware", err))
            continue
        rows.append({
            "benchmark": name,
            "base": base.total,
            "hw (padding)": round(padding.normalized(base.total), 3),
            f"hw (on-chip {table_entries})": round(onchip.normalized(base.total), 3),
        })
    return rows


# ----------------------------------------------------------------------
# X2 — creation overhead and traversal-count sensitivity (Section 4.2)
# ----------------------------------------------------------------------

def creation_overhead(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] = ("health", "treeadd"),
    params: dict[str, dict[str, Any]] | None = None,
    executor: Scheduler | None = None,
) -> list[dict[str, object]]:
    """A-priori slowdown of jump-pointer creation: the compute-time ratio
    of the instrumented program to the baseline (paper: ~12% for health)."""
    cfg = cfg or bench_config()
    plan = SweepPlan(cfg)
    scheduled = []
    for name in benchmarks:
        p = (params or {}).get(name)
        scheduled.append((
            name, plan.add_run(name, "base", p), plan.add_run(name, "software", p)
        ))
    results = plan.execute(executor)

    rows = []
    for name, base_sr, sw_sr in scheduled:
        base, e1 = results.resolve(base_sr)
        sw, e2 = results.resolve(sw_sr)
        err = e1 or e2
        if err is not None:
            rows.append(error_row(name, "software", err))
            continue
        rows.append({
            "benchmark": name,
            "variant": sw.variant,
            "creation overhead%": round(100 * (sw.compute / base.compute - 1), 1),
        })
    return rows


def traversal_count_sweep(
    cfg: MachineConfig | None = None,
    passes: tuple[int, ...] = (1, 2, 4, 8),
    params: dict[str, Any] | None = None,
    executor: Scheduler | None = None,
) -> list[dict[str, object]]:
    """Hardware vs cooperative JPP (and DBP) on treeadd as the number of
    traversals grows: hardware's *jump-pointer* half forfeits the first
    pass, so at one pass it adds nothing over its DBP half and its
    advantage appears only with repetition (Section 4.2)."""
    cfg = cfg or bench_config()
    plan = SweepPlan(cfg)
    scheduled = []
    for p in passes:
        wparams = dict(params or {})
        wparams["passes"] = p
        scheduled.append((p, {
            s: plan.add_run("treeadd", s, wparams)
            for s in ("base", "hardware", "cooperative", "dbp")
        }))
    results = plan.execute(executor)

    rows = []
    for p, per_scheme in scheduled:
        runs = {}
        err = None
        for scheme, sr in per_scheme.items():
            runs[scheme], e = results.resolve(sr)
            err = err or e
        if err is not None:
            row = error_row("treeadd", "sweep", err)
            row["passes"] = p
            rows.append(row)
            continue
        base = runs["base"]
        rows.append({
            "passes": p,
            "hardware": round(runs["hardware"].normalized(base.total), 3),
            "cooperative": round(runs["cooperative"].normalized(base.total), 3),
            "dbp": round(runs["dbp"].normalized(base.total), 3),
        })
    return rows
