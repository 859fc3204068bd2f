"""Machine-readable targets from Roth & Sohi (ISCA 1999).

The reproduction's fidelity claims live here as data, not prose: each
:class:`PaperTarget` names one number the paper reports, the section it
comes from, and the tolerance band inside which the repro is considered
faithful.  :func:`evaluate_targets` turns observed metrics into a
per-target drift report — the paper-fidelity gate prints that table and
fails on out-of-band rows, instead of a bare pass/fail.

Bands are deliberately wide: the repro runs scaled-down machine models
and workload sizes (see DESIGN.md), so the claim being gated is "same
regime and ordering as the paper", not digit-for-digit equality.

* **Figure 5** (Section 4.2): average memory-stall reduction over the
  memory-bound benchmarks — 72% software, 83% cooperative, 55% hardware
  — and average speedups of 15%, 20% and 22%.
* **Table 1** (Section 4.1): the memory-bound benchmarks spend an
  appreciable fraction of their time in memory stalls and most of their
  L1 data-load misses come from linked-data-structure loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..harness.reporting import MEMORY_BOUND

__all__ = [
    "PaperTarget",
    "FIGURE5_TARGETS",
    "TABLE1_TARGETS",
    "all_targets",
    "evaluate_targets",
    "figure5_observations",
    "table1_observations",
]


@dataclass(frozen=True)
class PaperTarget:
    """One number the paper claims, with its acceptance band."""

    key: str
    description: str
    paper_value: float
    lo: float
    hi: float
    unit: str = "%"
    source: str = ""

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(
                f"target {self.key!r} band is inverted: [{self.lo}, {self.hi}]"
            )

    def contains(self, observed: float) -> bool:
        return (
            math.isfinite(observed) and self.lo <= observed <= self.hi
        )

    def drift_row(self, observed: float | None) -> dict:
        """One row of the fidelity report for this target."""
        missing = observed is None or not math.isfinite(observed)
        return {
            "target": self.key,
            "paper": self.paper_value,
            "band": f"[{self.lo}, {self.hi}]",
            "observed": None if missing else round(observed, 1),
            "drift": None if missing
            else round(observed - self.paper_value, 1),
            "ok": False if missing else self.contains(observed),
            "source": self.source,
        }


#: Figure 5 headline numbers: averages over the memory-bound benchmarks.
FIGURE5_TARGETS: tuple[PaperTarget, ...] = (
    PaperTarget(
        "figure5.mem_stall_cut.software",
        "avg memory-stall reduction, software JPP",
        72.0, 40.0, 100.0, source="Section 4.2, Figure 5",
    ),
    PaperTarget(
        "figure5.mem_stall_cut.cooperative",
        "avg memory-stall reduction, cooperative JPP",
        83.0, 50.0, 100.0, source="Section 4.2, Figure 5",
    ),
    PaperTarget(
        "figure5.mem_stall_cut.hardware",
        "avg memory-stall reduction, hardware JPP",
        55.0, 25.0, 100.0, source="Section 4.2, Figure 5",
    ),
    PaperTarget(
        "figure5.speedup.software",
        "avg speedup, software JPP",
        15.0, 2.0, 60.0, source="Section 4.2, Figure 5",
    ),
    PaperTarget(
        "figure5.speedup.cooperative",
        "avg speedup, cooperative JPP",
        20.0, 4.0, 70.0, source="Section 4.2, Figure 5",
    ),
    PaperTarget(
        "figure5.speedup.hardware",
        "avg speedup, hardware JPP",
        22.0, 4.0, 70.0, source="Section 4.2, Figure 5",
    ),
)

#: Table 1 qualitative characterization of the memory-bound set:
#: memory stalls are an appreciable share of execution time, and LDS
#: loads cause most L1 data-load misses.
TABLE1_TARGETS: tuple[PaperTarget, ...] = tuple(
    PaperTarget(
        f"table1.memory_fraction.{bench}",
        f"{bench}: memory share of execution time",
        35.0, 10.0, 95.0, source="Section 4.1, Table 1",
    )
    for bench in MEMORY_BOUND
) + tuple(
    PaperTarget(
        f"table1.lds_miss_fraction.{bench}",
        f"{bench}: share of L1 load misses from LDS loads",
        80.0, 40.0, 100.0, source="Section 4.1, Table 1",
    )
    for bench in MEMORY_BOUND
)


def all_targets() -> tuple[PaperTarget, ...]:
    return FIGURE5_TARGETS + TABLE1_TARGETS


def figure5_observations(
    summary_rows: list[Mapping],
) -> dict[str, float]:
    """Map a :func:`repro.harness.figure5_summary` table onto target keys."""
    obs: dict[str, float] = {}
    for row in summary_rows:
        scheme = row.get("scheme")
        if scheme not in ("software", "cooperative", "hardware"):
            continue
        if "avg mem stall cut%" in row:
            obs[f"figure5.mem_stall_cut.{scheme}"] = float(
                row["avg mem stall cut%"]
            )
        if "avg speedup%" in row:
            obs[f"figure5.speedup.{scheme}"] = float(row["avg speedup%"])
    return obs


def table1_observations(rows: list[Mapping]) -> dict[str, float]:
    """Map Table-1 characterization rows onto target keys.

    Accepts the :func:`repro.harness.table1` row format (``benchmark``,
    ``mem frac%``, ``%misses lds`` columns, percentages — see
    :meth:`repro.core.characterization.Characterization.row`).
    """
    obs: dict[str, float] = {}
    for row in rows:
        bench = row.get("benchmark")
        if bench not in MEMORY_BOUND:
            continue
        for col, key in (
            ("mem frac%", "memory_fraction"),
            ("%misses lds", "lds_miss_fraction"),
        ):
            if col in row and row[col] is not None:
                obs[f"table1.{key}.{bench}"] = float(row[col])
    return obs


def evaluate_targets(
    observations: Mapping[str, float],
    targets: tuple[PaperTarget, ...] | None = None,
    skip_missing: bool = True,
) -> list[dict]:
    """Per-target drift rows for every target with an observation.

    With ``skip_missing=False``, targets lacking an observation produce a
    row with ``ok=False`` (the full-fidelity CI mode); by default they
    are skipped so partial sweeps can still be scored.
    """
    rows = []
    for target in targets if targets is not None else all_targets():
        if target.key not in observations and skip_missing:
            continue
        rows.append(target.drift_row(observations.get(target.key)))
    return rows
