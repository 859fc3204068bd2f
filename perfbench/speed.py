"""Host-speed probe: a fixed pure-Python kernel timed next to the work.

On a shared host the same simulation can run up to ~1.8x slower for
tens of seconds at a time, and its CPU time slows with it: the slowdown
comes from other tenants on the same physical core, not from waiting.
A run that falls wholly inside such a phase reads slow whatever
estimator it uses.  The probe below is interpreter work of the same
kinds the simulator does (integer arithmetic, method dispatch through
a table, small-object allocation and dict traffic).  It is timed just
before and just after each timed simulation of the ``sim-*`` workloads,
right after each set-up, and, a fifth of it, in each sweep worker after
each cell; the host times are scaled to the reference speed::

    seconds * REFERENCE_S / (mean of the probe timings around them)

The probe is this file's own code, so a change to ``src/`` does not
move it.  The unscaled host times stay in the report.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one probe takes on the reference host (2 vCPUs, CPython
#: 3.11, a quiet phase); it only sets the scale of the scaled times.
REFERENCE_S = 0.105


class _Node:
    __slots__ = ("key", "nxt")

    def __init__(self, key: int, nxt) -> None:
        self.key = key
        self.nxt = nxt


class _Machine:
    __slots__ = ("regs", "mem", "pc", "cycles")

    def __init__(self) -> None:
        self.regs = [0] * 8
        self.mem: dict[int, int] = {}
        self.pc = 0
        self.cycles = 0

    def add(self, a: int, b: int, c: int) -> None:
        self.regs[a] = (self.regs[b] + self.regs[c]) & 0xFFFF
        self.cycles += 1

    def addi(self, a: int, b: int, c: int) -> None:
        self.regs[a] = (self.regs[b] + c) & 0xFFFF
        self.cycles += 1

    def load(self, a: int, b: int, c: int) -> None:
        self.regs[a] = self.mem.get((self.regs[b] + c) & 1023, 7)
        self.cycles += 3

    def store(self, a: int, b: int, c: int) -> None:
        self.mem[(self.regs[b] + c) & 1023] = self.regs[a]
        self.cycles += 2

    def branch(self, a: int, b: int, c: int) -> None:
        if self.regs[a] & 3:
            self.pc = b - 1
        self.cycles += 1


_PROGRAM = (("addi", 1, 1, 3), ("load", 2, 1, 4), ("add", 3, 2, 1),
            ("store", 3, 1, 8), ("addi", 4, 4, 1), ("branch", 4, 0, 0),
            ("add", 5, 5, 3), ("addi", 4, 4, 1))


def _arith(n: int) -> int:
    x = 1
    for i in range(n):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


def _dispatch(n: int) -> int:
    m = _Machine()
    program = [(getattr(m, op), a, b, c) for op, a, b, c in _PROGRAM]
    size = len(program)
    for __ in range(n):
        op, a, b, c = program[m.pc]
        op(a, b, c)
        m.pc = (m.pc + 1) % size
    return m.cycles


def _alloc(n: int) -> int:
    table: dict[int, int] = {}
    head = None
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        head = _Node(key, head) if i & 7 else None
        acc += table.get(key, 0)
        table[key & 4095] = acc & 0xFF
        if head is not None:
            acc ^= head.key
    return acc


def probe(reps: int = 1, fraction: float = 1.0) -> tuple[float, float]:
    """Mean (wall seconds, CPU seconds) of ``reps`` runs of the fixed
    kernel; with ``fraction`` < 1, of that share of it, scaled back up to
    a whole probe."""
    walls, cpus = [], []
    for __ in range(reps):
        t0, c0 = time.perf_counter(), time.process_time()
        _arith(int(320_000 * fraction))
        _dispatch(int(180_000 * fraction))
        _alloc(int(95_000 * fraction))
        walls.append((time.perf_counter() - t0) / fraction)
        cpus.append((time.process_time() - c0) / fraction)
    return statistics.fmean(walls), statistics.fmean(cpus)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time at the reference speed, given the probe
    timings (same clock) taken just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
