"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper at the
``bench_config`` machine scale and prints it (run with ``-s`` to see the
tables).  ``pytest-benchmark`` wraps each harness in a single-round
``pedantic`` call — the interesting output is the reproduced table, not
the wall-clock of the harness itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import ExperimentSpec, load_spec

#: The shipped experiment specs: the only definition of Table 1,
#: Figures 4-7 and the X1-X4 extensions.
SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def shipped_spec(name: str) -> ExperimentSpec:
    """``examples/specs/<name>.toml``."""
    return load_spec(SPEC_DIR / f"{name}.toml")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
