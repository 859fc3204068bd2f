"""Experiment harness: specs, sweep planning and scheduling, reporting."""

from .backends import BACKENDS, BackendError, WorkerBackend, detect_cpus
from .cache import ResultCache, code_fingerprint, spec_key
from .cells import run_cell
from .executor import (
    CellError,
    CellResult,
    RunSpec,
    ScheduledRun,
    Scheduler,
    SweepError,
    SweepPlan,
    SweepResults,
    error_row,
)
from .protocol import PROTOCOL
from .faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    TransientFault,
    parse_fault_plan,
)
from .journal import SweepJournal
from .reporting import (
    MEMORY_BOUND,
    figure5_summary,
    format_table,
    normalized_bar,
)
from .runner import SCHEMES, SchemeRun, run_scheme, scheme_plan
from .schemes import (
    SCHEME_REGISTRY,
    Scheme,
    get_scheme,
    paper_scheme_names,
    register_scheme,
    scheme_names,
)
from .spec import (
    Axis,
    CompiledSpec,
    ExperimentSpec,
    SpecError,
    WorkloadSel,
    compile_spec,
    load_spec,
    run_spec,
    small_params,
    spec_artifact,
)
from .tournament import is_tournament_spec, tournament_summary

__all__ = [
    "Axis",
    "BACKENDS",
    "BackendError",
    "PROTOCOL",
    "Scheduler",
    "WorkerBackend",
    "detect_cpus",
    "run_cell",
    "CellError",
    "CellResult",
    "CompiledSpec",
    "ExperimentSpec",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedCrash",
    "ResultCache",
    "Scheme",
    "SCHEME_REGISTRY",
    "SpecError",
    "SweepJournal",
    "TransientFault",
    "RunSpec",
    "ScheduledRun",
    "SweepError",
    "SweepPlan",
    "SweepResults",
    "WorkloadSel",
    "code_fingerprint",
    "compile_spec",
    "error_row",
    "get_scheme",
    "load_spec",
    "register_scheme",
    "run_spec",
    "paper_scheme_names",
    "scheme_names",
    "spec_artifact",
    "is_tournament_spec",
    "tournament_summary",
    "spec_key",
    "MEMORY_BOUND",
    "SCHEMES",
    "SchemeRun",
    "figure5_summary",
    "format_table",
    "normalized_bar",
    "parse_fault_plan",
    "run_scheme",
    "scheme_plan",
    "small_params",
]
