"""Checkpoint-resume drill: kill a sweep mid-flight, finish it with --resume.

Run directly (also wired into CI)::

    python benchmarks/resume_drill.py           # test-size drill, serial
    python benchmarks/resume_drill.py --jobs 2  # drill the pooled path too
    python benchmarks/resume_drill.py --service # two-pool sweep-service drill

The drill:

1. Runs a clean figure-5 sweep over two benchmarks to get reference rows.
2. Reruns it with a checkpoint journal and a progress hook that raises
   ``KeyboardInterrupt`` once roughly half the cells have finished —
   simulating an operator hitting Ctrl-C (or the box dying) mid-sweep.
3. Resumes from the journal with a fresh executor and asserts, via the
   obs metric registry, that every checkpointed cell was **replayed**
   (zero re-simulation) and only the unfinished remainder was executed.
4. Asserts the resumed sweep's assembled rows are bit-identical to the
   clean reference.

With ``--service`` the same contract is drilled across *pools* instead
of processes: pool A (an in-thread ``repro serve``) serves the sweep
until it is killed at roughly 50%, then pool B finishes the remainder
from the journal — every checkpointed cell replayed, zero recomputed.

Exit status 0 means the checkpoint-resume contract holds.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import small_config                              # noqa: E402
from repro.harness import (                                 # noqa: E402
    Scheduler,
    SweepJournal,
    load_spec,
    run_spec,
)
from repro.obs import MetricRegistry                        # noqa: E402

BENCHMARKS = ("treeadd", "power")
#: 2 benchmarks x (5 timing + 3 distinct compute) cells.
TOTAL_CELLS = 16

FIGURE5 = Path(__file__).resolve().parent.parent / "examples/specs/figure5.toml"


def sweep(executor: Scheduler) -> list[dict]:
    """The shipped Figure 5 on BENCHMARKS at test size, small machine."""
    spec = load_spec(FIGURE5)
    spec = replace(spec, workloads=tuple(
        w for w in spec.workloads if w.name in BENCHMARKS
    )).small()
    return run_spec(spec, small_config(), executor)


class InterruptMidway:
    """Progress hook that raises KeyboardInterrupt after ``n`` cells."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, line: str) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def drill(jobs: int, kill_after: int, verbose: bool) -> None:
    say = print if verbose else (lambda *a, **k: None)

    say(f"reference sweep ({len(BENCHMARKS)} benchmarks, jobs={jobs}) ...")
    reference = sweep(Scheduler(jobs=jobs))

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "drill.jsonl"

        say(f"interrupted sweep: Ctrl-C after {kill_after} cells ...")
        registry = MetricRegistry()
        journal = SweepJournal(journal_path, registry=registry)
        executor = Scheduler(jobs=jobs, journal=journal, registry=registry,
                             progress=InterruptMidway(kill_after))
        try:
            sweep(executor)
        except KeyboardInterrupt:
            pass
        else:
            raise SystemExit("drill broken: the interrupt never fired")
        finally:
            journal.close()

        checkpointed = len(SweepJournal(journal_path, resume=True))
        say(f"journal holds {checkpointed} checkpointed cells")
        if not 0 < checkpointed < TOTAL_CELLS:
            raise SystemExit(
                f"drill needs a partial journal to prove anything, got "
                f"{checkpointed}/{TOTAL_CELLS} cells"
            )

        say("resuming from the journal ...")
        registry = MetricRegistry()
        journal = SweepJournal(journal_path, registry=registry, resume=True)
        executor = Scheduler(jobs=jobs, journal=journal, registry=registry)
        resumed = sweep(executor)
        journal.close()

        jstats, xstats = journal.stats(), executor.stats()
        say(f"  {journal.describe()}")
        say(f"  {executor.describe()}")
        assert jstats["replayed"] == checkpointed, (
            f"expected all {checkpointed} checkpointed cells replayed, "
            f"got {jstats['replayed']}"
        )
        assert xstats["executed"] == TOTAL_CELLS - checkpointed, (
            f"resume recomputed checkpointed work: executed "
            f"{xstats['executed']}, wanted {TOTAL_CELLS - checkpointed}"
        )
        assert xstats["failures"] == 0 and xstats["retries"] == 0

        assert resumed == reference, (
            "resumed sweep rows diverged from the clean reference"
        )

    print(
        f"resume drill OK (jobs={jobs}): {checkpointed} cells replayed "
        f"from the journal, {TOTAL_CELLS - checkpointed} re-simulated, "
        f"rows bit-identical to the clean run"
    )


class _ServicePool:
    """One in-thread ``repro serve`` pool on a short-path Unix socket."""

    def __init__(self, name: str) -> None:
        from repro.harness.service import SweepService

        # Unix socket paths are capped around 107 bytes: keep it short.
        self.dir = tempfile.mkdtemp(prefix="repro-svc-", dir="/tmp")
        self.path = os.path.join(self.dir, "p.sock")
        self.svc = SweepService(self.path, 2, name=name)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.svc.serve_forever, args=(ready.set,), daemon=True
        )
        self.thread.start()
        if not ready.wait(10):
            raise SystemExit(f"drill pool {name!r} failed to start")

    def kill(self) -> None:
        """Idempotent: killing a dead pool is a no-op."""
        self.svc.stop()
        self.thread.join(timeout=10)
        shutil.rmtree(self.dir, ignore_errors=True)


def service_drill(kill_after: int, verbose: bool) -> None:
    """Two-pool sweep-service drill: pool A dies at ~50% of the sweep,
    pool B finishes it from the journal with zero recomputed cells."""
    say = print if verbose else (lambda *a, **k: None)

    say(f"reference sweep ({len(BENCHMARKS)} benchmarks, serial) ...")
    reference = sweep(Scheduler(jobs=1))

    pool_a = _ServicePool("drill-a")
    pool_b = _ServicePool("drill-b")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            journal_path = Path(tmp) / "drill.jsonl"

            say(f"sweep on pool A, killed after {kill_after} cells ...")
            registry = MetricRegistry()
            journal = SweepJournal(journal_path, registry=registry)
            executor = Scheduler(
                backend="service", pools=[pool_a.path],
                journal=journal, registry=registry,
                progress=InterruptMidway(kill_after),
            )
            try:
                sweep(executor)
            except KeyboardInterrupt:
                pass
            else:
                raise SystemExit("drill broken: the interrupt never fired")
            finally:
                journal.close()
            # The box hosting pool A is gone, not just the submitting
            # client: the second pool starts from the journal alone.
            pool_a.kill()

            checkpointed = len(SweepJournal(journal_path, resume=True))
            say(f"journal holds {checkpointed} checkpointed cells")
            if not 0 < checkpointed < TOTAL_CELLS:
                raise SystemExit(
                    f"drill needs a partial journal to prove anything, got "
                    f"{checkpointed}/{TOTAL_CELLS} cells"
                )

            say("pool B finishes the sweep from the journal ...")
            registry = MetricRegistry()
            journal = SweepJournal(journal_path, registry=registry,
                                   resume=True)
            executor = Scheduler(backend="service", pools=[pool_b.path],
                                 journal=journal, registry=registry)
            resumed = sweep(executor)
            journal.close()

            jstats, xstats = journal.stats(), executor.stats()
            say(f"  {journal.describe()}")
            say(f"  {executor.describe()}")
            assert jstats["replayed"] == checkpointed, (
                f"expected all {checkpointed} checkpointed cells replayed, "
                f"got {jstats['replayed']}"
            )
            assert xstats["executed"] == TOTAL_CELLS - checkpointed, (
                f"pool B recomputed checkpointed work: executed "
                f"{xstats['executed']}, wanted {TOTAL_CELLS - checkpointed}"
            )
            assert xstats["failures"] == 0 and xstats["retries"] == 0
            assert pool_b.svc.stats()["completed"] == \
                TOTAL_CELLS - checkpointed

            assert resumed == reference, (
                "resumed sweep rows diverged from the clean reference"
            )
    finally:
        pool_a.kill()
        pool_b.kill()

    print(
        f"sweep-service drill OK: pool A died after {checkpointed} cells, "
        f"pool B replayed all of them from the journal and executed only "
        f"the remaining {TOTAL_CELLS - checkpointed} — zero recomputed "
        f"cells, rows bit-identical to the clean run"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for every sweep (default 1)")
    ap.add_argument("--kill-after", type=int, default=TOTAL_CELLS // 2,
                    help="cells to finish before the simulated Ctrl-C "
                         f"(default {TOTAL_CELLS // 2})")
    ap.add_argument("--service", action="store_true",
                    help="drill the sweep service instead: pool A dies "
                         "at --kill-after cells, pool B finishes")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="only print the final verdict")
    args = ap.parse_args(argv)
    if args.service:
        service_drill(args.kill_after, verbose=not args.quiet)
    else:
        drill(args.jobs, args.kill_after, verbose=not args.quiet)


if __name__ == "__main__":
    main()
