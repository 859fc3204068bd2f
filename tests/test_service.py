"""Sweep service: repro.job/1 protocol, serve/submit integration, drills.

The worker pools run in-thread (``serve_forever`` on a daemon thread)
against real ``ProcessPoolExecutor`` workers, so these tests exercise
the full wire path — submit/lease/heartbeat/result over a Unix socket —
without subprocess orchestration.  The ``crash-pool`` drill swaps the
service's ``_die`` hook for a soft stop so killing a pool does not kill
pytest.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro import small_config
from repro.harness import FaultPlan, Scheduler
from repro.harness.cells import RunSpec
from repro.harness.faults import FaultSpec
from repro.harness.protocol import (
    ChannelClosed,
    LineChannel,
    PROTOCOL,
    ProtocolError,
    decode,
    decode_result,
    encode,
    encode_result,
    job_id,
    message,
)
from repro.harness.service import SweepService
from repro.workloads import workload_class

SMALL = {
    "treeadd": workload_class("treeadd").test_params(),
    "health": workload_class("health").test_params(),
}


@pytest.fixture(scope="module")
def cfg():
    return small_config()


def _specs(cfg) -> list[RunSpec]:
    return [
        RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"]),
        RunSpec.make("treeadd", "sw:queue", "dbp", cfg, SMALL["treeadd"]),
        RunSpec.make("health", "baseline", "none", cfg, SMALL["health"]),
    ]


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------

class TestProtocol:
    def test_message_round_trip(self):
        msg = message("submit", id="k:0", attempt=0)
        assert decode(encode(msg).rstrip(b"\n")) == msg
        assert msg["v"] == PROTOCOL

    def test_decode_rejects_wrong_version(self):
        bad = {"v": "repro.job/99", "type": "hello"}
        with pytest.raises(ProtocolError, match="protocol mismatch"):
            decode(encode(bad).rstrip(b"\n"))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json {")
        with pytest.raises(ProtocolError):
            decode(b'"a bare string"')
        with pytest.raises(ProtocolError):
            decode(b'{"no": "type field"}')

    def test_job_id_binds_attempt(self):
        assert job_id("abc", 0) == "abc:0"
        assert job_id("abc", 2) != job_id("abc", 1)

    def test_result_serde_table_row(self):
        row = {"benchmark": "treeadd", "insts": 5}
        assert decode_result("table1", encode_result("table1", row)) == row
        with pytest.raises(ProtocolError):
            decode_result("table1", "not a dict")

    def test_result_serde_sim(self, cfg):
        from repro.harness import run_cell

        out = run_cell(_specs(cfg)[0])
        assert out[0] == "ok"
        wire = encode_result("sim", out[1])
        assert decode_result("sim", wire).to_dict() == out[1].to_dict()


class TestLineChannel:
    def test_framing_across_partial_writes(self):
        a, b = socket.socketpair()
        chan = LineChannel(b)
        try:
            m1, m2 = message("hello", pool="p"), message("heartbeat", ids=[])
            data = encode(m1) + encode(m2)
            a.sendall(data[:7])
            assert chan.receive() == []          # incomplete line buffered
            a.sendall(data[7:])
            assert chan.receive() == [m1, m2]
        finally:
            a.close()
            chan.close()

    def test_eof_raises_after_drain(self):
        a, b = socket.socketpair()
        chan = LineChannel(b)
        try:
            a.sendall(encode(message("hello")))
            a.close()
            assert [m["type"] for m in chan.receive()] == ["hello"]
            with pytest.raises(ChannelClosed):
                chan.receive()
        finally:
            chan.close()


# ----------------------------------------------------------------------
# In-thread worker pools
# ----------------------------------------------------------------------

class _Pool:
    """One in-thread ``repro serve`` pool on a short-path Unix socket."""

    def __init__(self, name: str = "pool", workers: int = 2) -> None:
        # Unix socket paths are capped around 107 bytes: keep it short.
        self.dir = tempfile.mkdtemp(prefix="repro-svc-", dir="/tmp")
        self.path = os.path.join(self.dir, "p.sock")
        self.svc = SweepService(self.path, workers, name=name)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.svc.serve_forever, args=(ready.set,), daemon=True
        )
        self.thread.start()
        assert ready.wait(10), "pool failed to start"

    def stop(self) -> None:
        self.svc.stop()
        self.thread.join(timeout=10)
        shutil.rmtree(self.dir, ignore_errors=True)


@pytest.fixture
def pool():
    p = _Pool()
    yield p
    p.stop()


def _executor(*pools, **kw) -> Scheduler:
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("pool_wait", 15.0)
    return Scheduler(
        backend="service", pools=[p.path for p in pools], **kw
    )


class TestServiceBackend:
    def test_three_backends_bit_identical(self, cfg, pool):
        """The golden check: serial, local pool, and service execution
        of the same cells produce bit-identical results."""
        specs = _specs(cfg)
        serial = Scheduler(jobs=1).execute(specs)
        pooled = Scheduler(jobs=2, backend="process").execute(specs)
        service = _executor(pool).execute(specs)
        for spec in specs:
            want = serial[spec].result.to_dict()
            assert pooled[spec].result.to_dict() == want
            assert service[spec].result.to_dict() == want

    def test_leases_and_counters(self, cfg, pool):
        specs = _specs(cfg)
        ex = _executor(pool)
        cells = ex.execute(specs)
        assert all(c.ok for c in cells.values())
        s = ex.stats()
        assert s["executed"] == len(specs)
        assert s["leases"] == len(specs)
        assert s["failures"] == s["lease_expiries"] == s["dup_results"] == 0
        assert pool.svc.stats()["leased"] == len(specs)
        assert pool.svc.stats()["completed"] == len(specs)

    def test_worker_error_comes_back_as_error_cell(self, cfg, pool):
        spec = RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                            SMALL["treeadd"])
        cells = _executor(pool).execute([spec])
        assert not cells[spec].ok
        assert "no-such-engine" in cells[spec].error

    def test_two_pools_share_the_sweep(self, cfg, pool):
        other = _Pool(name="pool-b")
        try:
            specs = _specs(cfg)
            serial = Scheduler(jobs=1).execute(specs)
            cells = _executor(pool, other).execute(specs)
            for spec in specs:
                assert cells[spec].result.to_dict() == \
                    serial[spec].result.to_dict()
            # Least-loaded dispatch spread the jobs over both pools.
            leased = (pool.svc.stats()["leased"],
                      other.svc.stats()["leased"])
            assert sum(leased) == len(specs) and all(n > 0 for n in leased)
        finally:
            other.stop()

    def test_pool_unavailable_fails_cleanly(self, cfg):
        spec = _specs(cfg)[0]
        ex = Scheduler(backend="service",
                           pools=["/tmp/repro-no-such-pool.sock"],
                           pool_wait=0.5)
        cells = ex.execute([spec])
        assert not cells[spec].ok
        assert cells[spec].error_kind == "PoolUnavailable"
        assert ex.stats()["failures"] == 1


class TestServiceFaultDrills:
    def test_crash_pool_fails_over(self, cfg, pool):
        """crash-pool kills the serving pool right after the lease; the
        client re-queues its jobs uncharged and a second pool finishes."""
        backup = _Pool(name="backup")
        # Soften the drill's os._exit: an in-thread pool "dies" by
        # stopping its loop (socket gone, connection dropped) instead of
        # taking pytest down with it.  Either pool may lease the doomed
        # cell, so both get the soft hook.
        pool.svc._die = pool.svc.stop
        backup.svc._die = backup.svc.stop
        try:
            specs = _specs(cfg)
            serial = Scheduler(jobs=1).execute(specs)
            ex = _executor(
                pool, backup,
                faults=FaultPlan.of(
                    FaultSpec(benchmark="health", kind="crash-pool",
                              times=1)
                ),
            )
            cells = ex.execute(specs)
            s = ex.stats()
            assert all(c.ok for c in cells.values())
            for spec in specs:
                assert cells[spec].result.to_dict() == \
                    serial[spec].result.to_dict()
            # The directive fired exactly once (a resubmission of the
            # same uncharged attempt must not re-crash the next pool).
            assert s["faults_injected"] == 1
            assert s["pool_breaks"] >= 1
            # Infrastructure loss is not a cell failure: no retries
            # charged, no failures recorded.
            assert s["failures"] == 0
        finally:
            backup.stop()

    def test_drop_heartbeat_expires_lease_and_charges_attempt(
        self, cfg, pool
    ):
        """drop-heartbeat blackholes the job after its lease: the TTL
        expires, the attempt is charged, and the retry succeeds."""
        spec = _specs(cfg)[0]
        ex = _executor(
            pool,
            retries=1,
            backoff=0.01,
            lease_ttl=1.0,
            faults=FaultPlan.of(
                FaultSpec(benchmark="treeadd", kind="drop-heartbeat",
                          times=1)
            ),
        )
        cells = ex.execute([spec])
        s = ex.stats()
        assert cells[spec].ok
        assert cells[spec].attempts == 2
        assert s["lease_expiries"] == 1
        assert s["retries"] == 1
        assert s["failures"] == 0

    def test_dup_result_dropped_idempotently(self, cfg, pool):
        """dup-result delivers the terminal result twice; the second
        arrival is counted and dropped, never double-assembled."""
        specs = _specs(cfg)
        serial = Scheduler(jobs=1).execute(specs)
        ex = _executor(
            pool,
            faults=FaultPlan.of(
                FaultSpec(benchmark="treeadd", kind="dup-result", times=1)
            ),
        )
        cells = ex.execute(specs)
        s = ex.stats()
        assert all(c.ok for c in cells.values())
        for spec in specs:
            assert cells[spec].result.to_dict() == \
                serial[spec].result.to_dict()
        # Two treeadd cells matched the rule -> two duplicate deliveries.
        assert s["dup_results"] == 2
        assert s["failures"] == 0

    def test_worker_faults_ship_over_the_wire(self, cfg, pool):
        """A transient worker fault fires inside the remote pool worker
        and the client's retry machinery recovers, exactly as local."""
        spec = _specs(cfg)[0]
        ex = _executor(
            pool,
            retries=1,
            backoff=0.01,
            faults=FaultPlan.of(
                FaultSpec(benchmark="treeadd", kind="transient", times=1)
            ),
        )
        cells = ex.execute([spec])
        assert cells[spec].ok and cells[spec].attempts == 2
        assert ex.stats()["retries"] == 1
