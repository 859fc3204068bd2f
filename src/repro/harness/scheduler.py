"""The sweep scheduler: plan → shard → dispatch → assemble.

:class:`Scheduler` is the policy layer of sweep execution.  It owns
everything a backend must not reinvent:

* **Plan hygiene** — deduplication preserving first-seen order, so
  identical cells are computed once and results assemble in plan order
  whatever the backend's completion order.
* **Replay** — journal first (``--resume``), then the content-addressed
  result cache, before any worker sees a cell.
* **Retry policy** — bounded retries with exponential backoff, timeout
  accounting, final-failure recording (:meth:`_fail_or_requeue`).
* **Leases** — bookkeeping for backends whose workers live elsewhere
  (the sweep service): granted leases, heartbeats, expiries, and
  idempotent duplicate-result handling, all counted in the obs
  registry.
* **Persistence** — cache writes + journal checkpoints per completed
  cell (:meth:`_finish`), and narrated progress.

The mechanics of *where* a cell runs live in
:mod:`repro.harness.backends`; the scheduler picks a backend (explicit
``backend=`` name/instance, else ``serial`` for ``--jobs 1`` or trivial
plans, else the local process pool) and hands itself over.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Sequence

from ..obs import MetricRegistry
from .backends import BACKENDS, WorkerBackend, detect_cpus
from .cache import ResultCache
from .cells import Attempt, CellResult, RunSpec
from .faults import FaultPlan
from .journal import SweepJournal

Progress = Callable[[str], None]

#: Default seconds a service lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL = 15.0

#: Default seconds the service backend waits for a worker pool to
#: (re)appear before failing the remaining cells.
DEFAULT_POOL_WAIT = 30.0


class Scheduler:
    """Executes a deduplicated list of cells through a worker backend,
    with optional per-cell timeout, bounded retry, checkpoint-resume
    journaling, and deterministic fault injection."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
        *,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        journal: SweepJournal | None = None,
        faults: FaultPlan | None = None,
        registry: MetricRegistry | None = None,
        sleep: Callable[[float], None] = time.sleep,
        backend: str | WorkerBackend | None = None,
        pools: Sequence[str] = (),
        lease_ttl: float = DEFAULT_LEASE_TTL,
        pool_wait: float = DEFAULT_POOL_WAIT,
    ) -> None:
        # jobs == 0 requests auto-detection (cgroup/affinity-aware).
        self.jobs = detect_cpus() if jobs == 0 else max(1, jobs)
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.journal = journal
        self.faults = faults
        self._sleep = sleep
        self.backend = backend
        self.pools = list(pools)
        self.lease_ttl = lease_ttl
        self.pool_wait = pool_wait
        self.registry = (
            registry
            or (journal.registry if journal is not None else None)
            or (cache.registry if cache is not None else None)
            or MetricRegistry()
        )
        reg = self.registry
        self._c_retries = reg.counter(
            "sweep.retries", help="cell attempts re-scheduled after a failure"
        )
        self._c_timeouts = reg.counter(
            "sweep.timeouts", help="cell attempts abandoned past the timeout"
        )
        self._c_failures = reg.counter(
            "sweep.failures", help="cells whose final attempt still failed"
        )
        self._c_pool_breaks = reg.counter(
            "sweep.pool_breaks",
            help="worker pools abandoned after a crash or hung worker",
        )
        self._c_faults = reg.counter(
            "sweep.faults.injected", help="fault-plan injections performed"
        )
        self._c_executed = reg.counter(
            "sweep.executed", help="cells computed by a worker this sweep"
        )
        self._c_leases = reg.counter(
            "sweep.leases", help="service jobs leased to a worker pool"
        )
        self._c_heartbeats = reg.counter(
            "sweep.heartbeats", help="service lease heartbeats received"
        )
        self._c_lease_expiries = reg.counter(
            "sweep.lease_expiries",
            help="service leases expired without heartbeat or result",
        )
        self._c_dup_results = reg.counter(
            "sweep.dup_results",
            help="duplicate/stale service results dropped idempotently",
        )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _narrate(self, done: int, total: int, cell: CellResult) -> None:
        if self.progress is None:
            return
        if not cell.ok:
            status = "ERROR"
        elif cell.replayed:
            status = "resume hit"
        elif cell.cached:
            status = "cache hit"
        elif cell.spec.kind == "sim":
            status = f"{cell.result.cycles} cycles"
        else:
            status = "done"
        if cell.attempts > 1:
            status += f" (attempt {cell.attempts})"
        self.progress(f"[{done}/{total}] {cell.spec.describe()}: {status}")

    def _finish(self, cell: CellResult, done: int, total: int) -> CellResult:
        cache = self.cache
        if (
            cache is not None
            and cell.ok
            and not cell.cached
            and not cell.replayed
            and cell.spec.kind == "sim"
        ):
            cache.put(cell.spec, cell.result)
            cache.note_write()
        if self.journal is not None and cell.ok and not cell.replayed:
            self.journal.record(cell.spec, cell.result)
        self._narrate(done, total, cell)
        return cell

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential: backoff, 2*backoff, 4*backoff, ... per retry."""
        return self.backoff * (2 ** attempt)

    def _note_injection(self, spec: RunSpec, attempt: int) -> None:
        if self.faults is not None and self.faults.fires(spec, attempt):
            self._c_faults.inc()

    def _corrupt_cache_entry(self, spec: RunSpec) -> None:
        """The ``corrupt`` fault: clobber the cell's cache entry on disk
        so the lookup exercises the invalid-entry -> recompute path."""
        assert self.cache is not None
        path = self.cache.path(self.cache.key(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        # Valid JSON with the right schema tag but a gutted body: trips
        # the cache's invalid-entry detection, not just a read miss.
        path.write_text(
            '{"schema": "repro.sim_result/1", "result": {"corrupt": true}}'
        )
        self._c_faults.inc()

    def _fail_or_requeue(
        self,
        item: Attempt,
        kind: str,
        tb: str,
        queue: deque,
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        """One failed attempt: requeue with backoff while the retry
        budget lasts, else record the final error cell."""
        if item.attempt < self.retries:
            self._c_retries.inc()
            self._sleep(self._backoff_delay(item.attempt))
            queue.append(Attempt(item.spec, item.attempt + 1))
            return done
        self._c_failures.inc()
        done += 1
        results[item.spec] = self._finish(
            CellResult(item.spec, None, error=tb, error_kind=kind,
                       attempts=item.attempt + 1),
            done, total,
        )
        return done

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    @staticmethod
    def shard(specs: Sequence[RunSpec], shards: int) -> list[list[RunSpec]]:
        """Partition ``specs`` round-robin into ``shards`` disjoint
        lists.  Deterministic in the input order, preserves relative
        order inside each shard, and balances cell counts to within one
        — the static partition the service backend seeds pools with."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        out: list[list[RunSpec]] = [[] for _ in range(shards)]
        for i, spec in enumerate(specs):
            out[i % shards].append(spec)
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _resolve_backend(self, todo: list[RunSpec]) -> WorkerBackend:
        """An explicit ``backend=`` always wins; the legacy implicit
        choice (serial for ``--jobs 1`` or trivial plans, local process
        pool otherwise) is preserved bit-for-bit."""
        choice = self.backend
        if isinstance(choice, WorkerBackend):
            return choice
        if choice is None:
            choice = (
                "serial" if self.jobs == 1 or len(todo) <= 1 else "process"
            )
        return BACKENDS.get(choice)()

    def execute(self, specs: Iterable[RunSpec]) -> dict[RunSpec, CellResult]:
        """Run every distinct spec; returns ``spec -> CellResult``."""
        plan: list[RunSpec] = []
        seen: set[RunSpec] = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                plan.append(spec)

        results: dict[RunSpec, CellResult] = {}
        todo: list[RunSpec] = []
        cache = self.cache
        journal = self.journal
        for spec in plan:
            if journal is not None:
                replayed = journal.get(spec)
                if replayed is not None:
                    results[spec] = CellResult(spec, replayed, replayed=True)
                    continue
            if cache is not None and spec.kind == "sim":
                if self.faults is not None and self.faults.corrupts(spec):
                    self._corrupt_cache_entry(spec)
                cached = cache.get(spec)
                if cached is not None:
                    results[spec] = CellResult(spec, cached, cached=True)
                    continue
            todo.append(spec)

        total = len(plan)
        done = 0
        for spec, cell in results.items():
            done += 1
            if journal is not None and cell.cached:
                journal.record(spec, cell.result)
            self._narrate(done, total, cell)

        if todo:
            done = self._resolve_backend(todo).run(
                self, todo, results, done, total
            )

        # Every planned cell must be accounted for: a backend that lost
        # cells (e.g. the service ran out of pools mid-retry) would
        # otherwise surface as a KeyError deep inside row assembly.
        missing = [spec for spec in plan if spec not in results]
        for spec in missing:
            self._c_failures.inc()
            done += 1
            results[spec] = self._finish(
                CellResult(
                    spec, None,
                    error="BackendError: backend returned no result for cell",
                    error_kind="BackendError",
                ),
                done, total,
            )
        return results

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "executed": self._c_executed.value,
            "retries": self._c_retries.value,
            "timeouts": self._c_timeouts.value,
            "failures": self._c_failures.value,
            "pool_breaks": self._c_pool_breaks.value,
            "faults_injected": self._c_faults.value,
            "leases": self._c_leases.value,
            "heartbeats": self._c_heartbeats.value,
            "lease_expiries": self._c_lease_expiries.value,
            "dup_results": self._c_dup_results.value,
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"sweep: {s['executed']} cells executed, {s['retries']} retries, "
            f"{s['timeouts']} timeouts, {s['failures']} failures, "
            f"{s['pool_breaks']} pool restarts"
        )


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POOL_WAIT",
    "Progress",
    "Scheduler",
]
