"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import pytest

from repro import Assembler, MachineConfig, small_config
from repro.config import CacheConfig
from repro.harness import ExperimentSpec, WorkloadSel, load_spec
from repro.isa.registers import A0, T0, T1, V0, ZERO

#: The shipped experiment specs (Table 1, Figures 4-7, X1-X6).
SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def shipped_spec(
    name: str,
    workloads: Sequence[str] | None = None,
    params: Mapping[str, Mapping[str, Any]] | None = None,
    idioms: Mapping[str, Sequence[str]] | None = None,
    axes: Mapping[str, Sequence[Any]] | None = None,
) -> ExperimentSpec:
    """``examples/specs/<name>.toml``, cut down for a quick run.

    ``workloads`` keeps only those workloads, in that order (a name the
    file does not list is added bare); ``params`` merges per-workload
    parameters over the file's; ``idioms`` replaces a workload's
    figure-4 idiom list; ``axes`` replaces axis value lists by name."""
    spec = load_spec(SPEC_DIR / f"{name}.toml")
    if workloads is not None:
        listed = {w.name: w for w in spec.workloads}
        spec = replace(spec, workloads=tuple(
            listed.get(n) or WorkloadSel(n) for n in workloads
        ))
    if idioms:
        spec = replace(spec, workloads=tuple(
            replace(w, idioms=tuple(idioms[w.name])) if w.name in idioms
            else w
            for w in spec.workloads
        ))
    if params:
        spec = spec.with_workload_params(params)
    if axes:
        spec = replace(spec, axes=tuple(
            replace(a, values=tuple(axes.get(a.name, a.values)))
            for a in spec.axes
        ))
    return spec


@pytest.fixture
def cfg() -> MachineConfig:
    """Small machine used by most timing tests."""
    return small_config()


@pytest.fixture
def tiny_cfg() -> MachineConfig:
    """Very small caches: forces misses with tiny footprints."""
    return MachineConfig(
        il1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=2048, line=64, assoc=4, latency=12),
    )


def assemble_loop_sum(n: int):
    """Sum 1..n in a register loop; returns (program, result_addr)."""
    a = Assembler()
    res = a.word(0)
    a.label("main")
    a.li(T0, 0)   # acc
    a.li(T1, n)
    a.label("loop")
    a.beqz(T1, "done")
    a.add(T0, T0, T1)
    a.addi(T1, T1, -1)
    a.j("loop")
    a.label("done")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("loop_sum"), res


def assemble_list_walk(n: int, node_bytes: int = 12):
    """Builds an n-node linked list ({value@0, next@4}) then walks it,
    summing values; returns (program, result_addr)."""
    a = Assembler()
    res = a.word(0)
    head = a.word(0)
    a.label("main")
    a.li(T0, n)
    a.label("build")
    a.beqz(T0, "walk")
    a.alloc(T1, ZERO, node_bytes)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(V0, A0, 0)
    a.sw(V0, T1, 4)
    a.sw(T1, A0, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    a.label("walk")
    a.li(T0, 0)
    a.li(A0, head)
    a.lw(T1, A0, 0, tag="lds")
    a.label("wloop")
    a.beqz(T1, "done")
    a.lw(V0, T1, 0, pad=16, tag="lds")
    a.add(T0, T0, V0)
    a.lw(T1, T1, 4, pad=16, tag="lds")
    a.j("wloop")
    a.label("done")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("list_walk"), res
