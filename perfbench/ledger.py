"""The traced run's per-layer ledger.

Two instruments, both outside ``src/``:

* **Spans and counts** at layer boundaries, recorded by wrapping the
  public functions the benchmark calls into (``Workload.build``,
  ``Scheduler.execute``, ``ResultCache.get``/``put``, ``run_cell``,
  ``job_payload``).  Spans stay in memory; forked sweep workers write
  theirs to the work directory after every cell, keyed by pid.
* **cProfile self time and call counts**, aggregated by the
  ``src/repro/<pkg>`` package each profiled function lives in.  Per
  simulated instruction there are tens of Python calls, far too many
  for spans, so this runs in the traced run only.

Attribution rules: JIT-generated code (``<fusedjit:...>`` and
``<blockjit:...>`` filenames) is charged to ``jit``.  Code with no layer
of its own is charged to the layer of the function that called it, split
by the per-caller edge statistics: builtins (``dict.get``, ``len``,
``isinstance``), the standard library (``json`` under the result cache),
other generated helpers (dataclass ``<string>`` methods) and the
top-level ``repro`` modules (``config.py``, ``registry.py``).  The other
packages (``core``, ``audit``), this benchmark's own loop, and calls
with no recorded caller are ``other``, so the self shares sum to 1.
"""

from __future__ import annotations

import cProfile
import json
import marshal
import os
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Iterable
from unittest import mock

BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep
REPRO_DIR = str(Path(__file__).resolve().parent.parent / "src" / "repro") + os.sep

LAYERS = ("isa", "cpu", "jit", "mem", "prefetch", "obs", "harness", "workloads")
OTHER = "other"

#: Hot-chain functions counted per simulated instruction:
#: metric name -> (path suffix under src/repro, function names).
HOT_CHAIN = {
    "mem.data_access_per_inst": ("mem/hierarchy.py", ("data_access",)),
    "mem.cache_access_per_inst": ("mem/cache.py", ("access",)),
    "mem.tlb_translate_per_inst": ("mem/tlb.py", ("translate",)),
    "prefetch.request_per_inst": ("prefetch/", ("request",)),
    "prefetch.load_hooks_per_inst": (
        "prefetch/", ("on_load_issue", "on_load_commit"),
    ),
}


class Tracer:
    """In-memory spans (name, start, end, parent, pid) and counters.

    Times are ``time.monotonic()``, a system-wide clock on Linux, so
    spans from forked workers line up with the main process's."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.main_pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[str] = []
        self._next = 0
        self.main_profiler: cProfile.Profile | None = None
        self._worker_profiler: cProfile.Profile | None = None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        sid = f"{os.getpid()}:{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "pid": os.getpid(), **attrs,
            })

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    # -- forked sweep workers -----------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def worker_profiler(self) -> cProfile.Profile:
        """This worker's own profiler.  A forked worker inherits the
        main process's enabled profiler; switch that copy off first, so the
        worker records only its own cells."""
        if self._worker_profiler is None:
            if self.main_profiler is not None:
                self.main_profiler.disable()
            self.spans = []
            self.counts = {}
            self._worker_profiler = cProfile.Profile()
        return self._worker_profiler

    def dump_worker(self) -> None:
        """Write this worker's profile and spans, keyed by pid.  Called
        after every cell, so a worker torn down by its pool (which runs
        no exit hooks) has still written everything."""
        pid = os.getpid()
        with open(self.workdir / f"worker-{pid}.prof", "wb") as f:
            marshal.dump(profile_table(self._worker_profiler), f)
        with open(self.workdir / f"worker-{pid}.json", "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)

    def merge_workers(self) -> dict[int, dict]:
        """Fold the workers' spans and counts into this tracer; returns
        each worker's profile table by pid."""
        profiles: dict[int, dict] = {}
        for path in sorted(self.workdir.glob("worker-*.json")):
            pid = int(path.stem.split("-")[1])
            with open(path) as f:
                data = json.load(f)
            self.spans.extend(data["spans"])
            for name, value in data["counts"].items():
                self.count(name, value)
            with open(path.with_suffix(".prof"), "rb") as f:
                profiles[pid] = marshal.load(f)
        return profiles


@contextmanager
def traced_boundaries(tracer: Tracer):
    """Wrap, while inside, every layer boundary the sweep crosses below
    the calls the benchmark makes itself."""
    from repro.harness import backends
    from repro.workloads.base import Workload

    def wrap_build(build):
        def traced_build(self, variant="baseline"):
            with tracer.span("Workload.build", workload=self.name,
                             variant=variant):
                built = build(self, variant)
            tracer.count("workloads.builds")
            return built
        return traced_build

    def wrap_job_payload(job_payload):
        def traced_job_payload(spec, config_id):
            payload = job_payload(spec, config_id)
            tracer.count("harness.payloads")
            tracer.count("harness.wire_bytes",
                         len(json.dumps(payload, separators=(",", ":"))))
            return payload
        return traced_job_payload

    def wrap_run_cell(run_cell):
        def traced_run_cell(spec, *args, **kwargs):
            if not tracer.in_worker():
                with tracer.span("run_cell", cell=spec.describe()):
                    return run_cell(spec, *args, **kwargs)
            prof = tracer.worker_profiler()
            with tracer.span("run_cell", cell=spec.describe()):
                prof.enable()
                try:
                    out = run_cell(spec, *args, **kwargs)
                finally:
                    prof.disable()
            tracer.dump_worker()
            return out
        return traced_run_cell

    with ExitStack() as stack:
        for owner, name, wrap in ((Workload, "build", wrap_build),
                                  (backends, "job_payload", wrap_job_payload),
                                  (backends, "run_cell", wrap_run_cell)):
            stack.enter_context(
                mock.patch.object(owner, name, wrap(getattr(owner, name))))
        yield


# ----------------------------------------------------------------------
# cProfile attribution
# ----------------------------------------------------------------------

def _layer_of(filename: str) -> str | None:
    """The layer a profiled function belongs to, or None for code that
    is charged to its caller: builtins, the standard library, the
    top-level ``repro`` modules and generated code other than the
    JIT's."""
    if filename.startswith("<"):
        return "jit" if "jit:" in filename else None
    if filename.startswith(REPRO_DIR):
        pkg, sep, __ = filename[len(REPRO_DIR):].partition(os.sep)
        if not sep:  # config.py, registry.py, ...: shared helpers
            return None
        return pkg if pkg in LAYERS else OTHER
    if filename.startswith(BENCH_DIR):
        return OTHER
    return None


def _label(code) -> tuple[str, int, str]:
    """pstats' key for a profiled function; builtins are plain strings."""
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_table(prof: cProfile.Profile) -> dict:
    """``label -> [calls, self_s, {caller label: [calls, self_s]}]``.

    Built from the raw entries, summing distinct code objects that share
    a label: the JIT compiles a fresh ``_blk`` per block and per run
    under one filename, and ``pstats`` keeps only one of them (which one
    depends on memory addresses)."""
    table: dict = {}
    for entry in prof.getstats():
        func = _label(entry.code)
        row = table.setdefault(func, [0, 0.0, {}])
        row[0] += entry.callcount
        row[1] += entry.inlinetime
        for sub in entry.calls or ():
            callee = table.setdefault(_label(sub.code), [0, 0.0, {}])
            edge = callee[2].setdefault(func, [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
    return table


def attribute(tables: Iterable[dict | cProfile.Profile]) -> dict[str, Any]:
    """Self seconds and call counts per layer, summed over profiles."""
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0)
    chain = dict.fromkeys(HOT_CHAIN, 0)
    top: list[tuple[float, int, str]] = []
    for table in tables:
        if isinstance(table, cProfile.Profile):
            table = profile_table(table)
        memo: dict[tuple, dict[str, float]] = {}

        def owner(func: tuple, visiting: frozenset = frozenset()
                  ) -> dict[str, float]:
            """Layer fractions owning the work done in ``func``: its own
            layer, else its callers' owners weighted by call counts on
            each edge (counts, not times, so the split is deterministic).
            Recursive edges are skipped."""
            own = _layer_of(func[0])
            if own is not None:
                return {own: 1.0}
            if func in memo:
                return memo[func]
            shares: dict[str, float] = {}
            weight = 0
            row = table.get(func)
            for caller, edge in (row[2] if row else {}).items():
                if caller == func or caller in visiting:
                    continue
                weight += edge[0]
                for layer, frac in owner(caller, visiting | {func}).items():
                    shares[layer] = shares.get(layer, 0.0) + edge[0] * frac
            out = ({k: v / weight for k, v in shares.items()} if weight
                   else {OTHER: 1.0})
            if not visiting:
                memo[func] = out
            return out

        for func, (nc, tt, callers) in table.items():
            for name, (suffix, names) in HOT_CHAIN.items():
                if func[2] in names and func[0].startswith(REPRO_DIR + suffix):
                    chain[name] += nc
            own = _layer_of(func[0])
            if own is not None:
                self_s[own] += tt
                calls[own] += nc
                continue
            top.append((tt, nc, f"{func[0]}:{func[1]}({func[2]})"))
            # Charge each caller edge's self time and calls to the
            # caller's owner; a recursive edge, or a call with no recorded
            # caller, goes to this function's own owner.
            rest_tt, rest_nc = tt, nc
            for caller, (edge_nc, edge_tt) in callers.items():
                if caller == func:
                    continue
                for layer, frac in owner(caller, frozenset({func})).items():
                    self_s[layer] += edge_tt * frac
                    calls[layer] += edge_nc * frac
                rest_tt -= edge_tt
                rest_nc -= edge_nc
            for layer, frac in owner(func).items():
                self_s[layer] += max(0.0, rest_tt) * frac
                calls[layer] += max(0, rest_nc) * frac
    top.sort(reverse=True)
    total = sum(self_s.values())
    shares = {k: (v / total if total else 0.0) for k, v in self_s.items()}
    if total and abs(sum(shares.values()) - 1.0) > 1e-9:
        raise AssertionError(f"layer self shares sum to {sum(shares.values())}")
    return {"self_s": self_s, "self_share": shares, "calls": calls,
            "hot_chain": chain, "total_s": total,
            "top_charged_to_caller": top[:20]}
