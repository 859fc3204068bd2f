#!/usr/bin/env python3
"""Figure 7 in miniature: what happens as memory gets (relatively) slower.

The paper's Section 4.4 argument: scheduling-based prefetching (DBP)
"compresses but cannot flatten the memory dependence graph" — as the
processor/memory gap grows, its benefit evaporates, while jump-pointer
prefetching keeps generating addresses early enough.  This example sweeps
main-memory latency on `health` and prints each scheme's memory-stall
reduction at every point.

Run:  python examples/latency_scaling.py
"""

from repro import bench_config
from repro.harness import SweepPlan, format_table

LATENCIES = (35, 70, 140, 280)
SCHEMES = ("base", "software", "hardware", "dbp")


def main() -> None:
    base_cfg = bench_config()
    plan = SweepPlan(base_cfg)
    scheduled = {
        latency: {
            scheme: plan.add_run(
                "health", scheme, cfg=base_cfg.with_memory_latency(latency))
            for scheme in SCHEMES
        }
        for latency in LATENCIES
    }
    results = plan.execute()
    rows = []
    for latency, srs in scheduled.items():
        base = results.scheme_run(srs["base"])
        row = {"mem latency": latency, "base cycles": base.total}
        for scheme in SCHEMES[1:]:
            run = results.scheme_run(srs[scheme])
            row[f"{scheme} stall cut%"] = round(
                100 * run.memory_reduction(base.memory), 1
            )
        rows.append(row)

    print(format_table(rows, "health: memory-stall reduction vs memory latency"))
    print()
    dbp_cuts = [r["dbp stall cut%"] for r in rows]
    sw_cuts = [r["software stall cut%"] for r in rows]
    print(f"DBP's stall reduction goes {dbp_cuts[0]}% -> {dbp_cuts[-1]}% as "
          f"latency grows 8x;")
    print(f"software JPP's goes {sw_cuts[0]}% -> {sw_cuts[-1]}% — jump-pointers")
    print("keep breaking the serial address-generation chain (Section 4.4).")


if __name__ == "__main__":
    main()
