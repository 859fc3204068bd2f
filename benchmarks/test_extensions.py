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

from conftest import run_once, shipped_spec

from repro.harness import format_table, run_spec


def test_adaptive_interval(benchmark):
    rows = run_once(benchmark, run_spec, shipped_spec("x3"))
    print()
    print(format_table(rows, "X3 — adaptive jump interval (health, hardware JPP)"))
    by: dict = {}
    for r in rows:
        by.setdefault(r["latency"], {})[r["adaptive"]] = r["normalized"]
    for latency, row in by.items():
        # the adaptive table must be competitive with the fixed default...
        assert row[True] <= row[False] + 0.05, (latency, row)
    # ...and it must still beat the baseline at the long latency
    assert by[280][True] < 1.0


def test_spmv_generalization(benchmark):
    rows = run_once(benchmark, run_spec, shipped_spec("x4"))
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
