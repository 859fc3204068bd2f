"""Extensions from the paper's "future directions" (Section 6).

X3 — adaptive jump intervals: "a better mechanism adapting the interval
on a case by case basis".  We compare fixed-interval hardware JPP against
the per-PC adaptive table at 70- and 280-cycle memory: at the long
latency a fixed interval of 8 is too short, and the adaptive table should
recover (most of) the gap to a hand-tuned longer interval.

X4 — generalization to "other classes of data structures with serialized
access idioms, like sparse matrices": the `spmv` workload (linked rows of
linked elements with x[col] gathers) run under the full scheme matrix.
"""

from dataclasses import replace

from conftest import run_once

from repro import bench_config
from repro.harness import SCHEMES, SweepPlan, format_table


def test_adaptive_interval(benchmark):
    def run():
        plan = SweepPlan(bench_config())
        scheduled = []
        for latency in (70, 280):
            cfg = bench_config().with_memory_latency(latency)
            adaptive_cfg = replace(
                cfg, prefetch=replace(cfg.prefetch, adaptive_interval=True)
            )
            scheduled.append((
                latency,
                plan.add_run("health", "base", cfg=cfg),
                plan.add_run("health", "hardware", cfg=cfg),
                plan.add_run("health", "hardware", cfg=adaptive_cfg),
            ))
        results = plan.execute()
        rows = []
        for latency, *runs in scheduled:
            base, fixed, adaptive = map(results.scheme_run, runs)
            rows.append({
                "latency": latency,
                "fixed interval 8": round(fixed.normalized(base.total), 3),
                "adaptive": round(adaptive.normalized(base.total), 3),
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, "X3 — adaptive jump interval (health, hardware JPP)"))
    for row in rows:
        # the adaptive table must be competitive with the fixed default...
        assert row["adaptive"] <= row["fixed interval 8"] + 0.05, row
    # ...and it must still beat the baseline at the long latency
    assert rows[-1]["adaptive"] < 1.0


def test_spmv_generalization(benchmark):
    def run():
        plan = SweepPlan(bench_config())
        scheduled = {s: plan.add_run("spmv", s) for s in SCHEMES}
        results = plan.execute()
        matrix = {s: results.scheme_run(sr) for s, sr in scheduled.items()}
        base = matrix["base"]
        return [
            {
                "scheme": scheme,
                "normalized": round(run_.normalized(base.total), 3),
                "mem_reduction%": round(
                    100 * run_.memory_reduction(base.memory), 1
                ),
            }
            for scheme, run_ in matrix.items()
        ]

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, "X4 — spmv (sparse-matrix generalization)"))
    by = {r["scheme"]: r["normalized"] for r in rows}
    # jump-pointer prefetching transfers to the sparse-matrix idiom:
    # every JPP scheme wins, hardware (many traversals) the most, and all
    # beat plain DBP
    for scheme in ("software", "cooperative", "hardware"):
        assert by[scheme] < 0.85, scheme
        assert by[scheme] < by["dbp"], scheme
    assert by["hardware"] == min(by[s] for s in ("software", "cooperative", "hardware"))
