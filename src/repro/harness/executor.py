"""Scheme-level sweep planning: :class:`SweepPlan` and its results.

Every experiment — a spec file, the X1/X2 extensions, ``repro
run``/``stats`` and the golden gate — plans :class:`RunSpec` cells on a
:class:`SweepPlan` and executes them through one
:class:`~repro.harness.scheduler.Scheduler`.  The layers underneath:

* :mod:`repro.harness.cells` — the cell vocabulary (:class:`RunSpec`,
  :class:`CellResult`, the ``run_cell`` worker body, wire payloads);
* :mod:`repro.harness.scheduler` — the :class:`Scheduler` policy layer
  (dedup, journal/cache replay, retries/timeouts/backoff, lease
  bookkeeping, deterministic plan-order assembly);
* :mod:`repro.harness.backends` — the pluggable worker backends
  (``serial`` / ``process`` / ``service``) behind the ``BACKENDS``
  registry;
* :mod:`repro.harness.protocol` / :mod:`repro.harness.service` — the
  ``repro.job/1`` wire format and the ``repro serve`` worker pools.

Guarantees:

* **Deterministic ordering** — results are keyed by spec and assembled
  in plan order, so serial, pooled, and service sweeps produce
  identical rows.
* **Work sharing** — identical cells are planned once; the
  :class:`~repro.harness.cache.ResultCache` extends the sharing across
  processes and sweeps, and a
  :class:`~repro.harness.journal.SweepJournal` checkpoints completed
  cells so an interrupted sweep resumes where it stopped.
* **Error isolation** — a cell that raises becomes an error
  :class:`CellResult` instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import MachineConfig
from ..cpu.stats import SimResult
from ..workloads import get_workload
from .cells import (
    CellError,
    CellResult,
    RunSpec,
    SweepError,
    error_row,
)
from .runner import SchemeRun, scheme_plan
from .scheduler import Progress, Scheduler


# ----------------------------------------------------------------------
# Scheme-level planning (what the figure experiments consume)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledRun:
    """One SchemeRun-to-be: a timing cell plus its compute-time cell."""

    benchmark: str
    scheme: str
    variant: str
    timing: RunSpec
    compute: RunSpec


class SweepPlan:
    """Collects cells for one experiment, then executes them at once.

    ``add_run`` (a registered scheme) and ``add_variant_run`` (any
    variant/engine pairing) each return a :class:`ScheduledRun` handle
    that resolves to a full :class:`~repro.harness.runner.SchemeRun`
    after :meth:`execute`.
    Compute-time cells (perfect data memory, no engine) are shared across
    schemes of the same program variant by deduplication.
    """

    def __init__(self, cfg: MachineConfig) -> None:
        self.cfg = cfg
        self._specs: list[RunSpec] = []

    def add(self, spec: RunSpec) -> RunSpec:
        self._specs.append(spec)
        return spec

    def add_run(
        self,
        benchmark: str,
        scheme: str,
        params: dict[str, Any] | None = None,
        idiom: str | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        cfg = cfg or self.cfg
        workload = get_workload(benchmark, **(params or {}))
        variant, engine = scheme_plan(workload, scheme, idiom)
        return self._schedule(
            benchmark, scheme, variant, engine, params, cfg, profile,
            sim_engine, telemetry,
        )

    def add_variant_run(
        self,
        benchmark: str,
        variant: str,
        engine: str,
        params: dict[str, Any] | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        """Arbitrary variant/engine pairing (Figure 4 idiom comparison)."""
        cfg = cfg or self.cfg
        return self._schedule(
            benchmark, f"{engine}:{variant}", variant, engine, params, cfg,
            profile, sim_engine, telemetry,
        )

    def add_table1(
        self,
        benchmark: str,
        params: dict[str, Any] | None = None,
        cfg: MachineConfig | None = None,
        sim_engine: str | None = None,
    ) -> RunSpec:
        return self.add(
            RunSpec.make(
                benchmark, "baseline", "none", cfg or self.cfg, params,
                kind="table1", sim_engine=sim_engine,
            )
        )

    def _schedule(
        self,
        benchmark: str,
        scheme: str,
        variant: str,
        engine: str,
        params: dict[str, Any] | None,
        cfg: MachineConfig,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        # Only the timing cell is profiled/telemetered; compute-time cells
        # stay shareable across observed and unobserved experiments.
        timing = self.add(
            RunSpec.make(benchmark, variant, engine, cfg, params,
                         profile=profile, sim_engine=sim_engine,
                         telemetry=telemetry)
        )
        compute = self.add(
            RunSpec.make(benchmark, variant, "none", cfg.perfect(), params,
                         sim_engine=sim_engine)
        )
        return ScheduledRun(benchmark, scheme, variant, timing, compute)

    def execute(self, executor: Scheduler | None = None) -> "SweepResults":
        """Execute the collected cells through ``executor`` (default: a
        serial, uncached :class:`Scheduler`)."""
        return SweepResults((executor or Scheduler()).execute(self._specs))


class SweepResults:
    """Spec-keyed results with SchemeRun assembly."""

    def __init__(self, cells: dict[RunSpec, CellResult]) -> None:
        self.cells = cells

    def cell(self, spec: RunSpec) -> CellResult:
        return self.cells[spec]

    @staticmethod
    def _cell_error(cell: CellResult) -> CellError | None:
        if cell.error is None:
            return None
        return CellError(cell.error, cell.error_kind or "")

    def error(self, run: ScheduledRun | RunSpec) -> CellError | None:
        """The first error among the cells backing ``run`` (None if ok).
        The returned string carries the exception class name as
        ``.kind``, which error rows surface for grepping."""
        if isinstance(run, RunSpec):
            return self._cell_error(self.cells[run])
        return (
            self._cell_error(self.cells[run.timing])
            or self._cell_error(self.cells[run.compute])
        )

    def resolve(
        self, run: ScheduledRun
    ) -> tuple[SchemeRun | None, CellError | None]:
        """``(SchemeRun, None)`` on success, ``(None, error)`` on failure."""
        err = self.error(run)
        if err is not None:
            return None, err
        return self.scheme_run(run), None

    def scheme_run(self, run: ScheduledRun) -> SchemeRun:
        """Assemble the SchemeRun for ``run``; raises :class:`SweepError`
        if either backing cell failed."""
        err = self.error(run)
        if err is not None:
            raise SweepError(
                f"{run.benchmark}/{run.scheme} failed:\n{err}"
            )
        timing: SimResult = self.cells[run.timing].result
        compute: SimResult = self.cells[run.compute].result
        return SchemeRun(
            benchmark=run.benchmark,
            scheme=run.scheme,
            variant=run.variant,
            total=timing.cycles,
            compute=compute.cycles,
            result=timing,
        )


__all__ = [
    "CellError",
    "CellResult",
    "Progress",
    "RunSpec",
    "ScheduledRun",
    "Scheduler",
    "SweepError",
    "SweepPlan",
    "SweepResults",
    "error_row",
]
