"""Section 4.2 ablations — jump-pointer creation overhead and the
traversal-count sensitivity of hardware JPP.

Expected shapes:
* jump-pointer creation imposes an a-priori compute slowdown on the
  software implementations (paper: ~12% for health's chain jumping);
* hardware JPP spends the first traversal installing jump-pointers: with
  one pass it gains ~nothing, and its benefit grows with the number of
  passes (treeadd's four passes forfeit a quarter of the savings).
"""

from conftest import run_once, shipped_spec

from repro.harness import format_table, run_spec


def test_compute_overhead(benchmark):
    rows = run_once(benchmark, run_spec, shipped_spec("x2-creation"))
    print()
    print(format_table(rows, "A-priori jump-pointer creation overhead"))
    for row in rows:
        assert 0 < row["compute_overhead%"] < 60, row["benchmark"]


def test_passes_sweep(benchmark):
    rows = run_once(benchmark, run_spec, shipped_spec("x2-passes"))
    print()
    print(format_table(rows, "treeadd: hardware vs cooperative/DBP by pass count"))
    by_passes: dict = {}
    for r in rows:
        by_passes.setdefault(r["passes"], {})[r["scheme"]] = r["normalized"]
    # single pass: hardware's jump-pointers add nothing over its DBP half
    assert by_passes[1]["hardware"] >= by_passes[1]["dbp"] - 0.03
    # with more passes the jump-pointers kick in: hardware pulls ahead of
    # DBP and improves in absolute terms
    assert by_passes[8]["hardware"] < by_passes[8]["dbp"] - 0.01
    assert by_passes[8]["hardware"] < by_passes[1]["hardware"] - 0.05
    # cooperative optimizes the first pass too: ahead of hardware at 1 pass
    assert by_passes[1]["cooperative"] < by_passes[1]["hardware"]
