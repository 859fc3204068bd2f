"""Section 3.3 ablation — on-chip jump-pointer table vs allocator padding.

The paper: "with the exception of em3d, which has only 4000 nodes in its
backbone data structure, most benchmarks experience negligible speedups
from a 16K-entry on-chip jump-pointer cache" — the scalable padding
storage is the winning design.  At our scaled sizes, the structures fit
comfortably, so the on-chip table matches padding storage on the small
backbone (em3d) and a *small* table (capacity pressure) loses on the
larger ones.
"""

from conftest import run_once, shipped_spec

from repro.harness import format_table, run_spec


def test_onchip_ablation(benchmark):
    rows = run_once(benchmark, run_spec, shipped_spec("x1"))
    print()
    print(format_table(rows, "X1 — on-chip table (64 / 16K entries) vs "
                             "padding storage (0)"))
    by = {(r["benchmark"], r["onchip_entries"]): r["normalized"] for r in rows}

    # a big enough table tracks padding storage closely
    for name in ("em3d", "health", "treeadd"):
        assert abs(by[name, 16384] - by[name, 0]) < 0.15, name

    # a severely undersized table thrashes and loses most of the benefit
    for name in ("health", "treeadd"):
        assert by[name, 64] >= by[name, 0] - 0.05, name
