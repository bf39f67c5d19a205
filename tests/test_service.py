"""Campaign service: coordinator fan-out, fault tolerance, HTTP API.

The service's headline claim — an HTTP-submitted campaign executed by
several worker processes produces a store **bit-identical** (keys +
record digests, :func:`~repro.experiments.store.store_digest`) to a
single-process ``run_spec`` of the same spec, including after killing
and replacing a worker mid-campaign — is locked here end to end:

* coordinator-level: multi-worker == serial oracle; kill a worker
  mid-shard and the replacement resumes to the same digests;
* HTTP-level: submit/status/records/cancel through a live
  ``ThreadingHTTPServer`` on an ephemeral port, driven by the stdlib
  :class:`~repro.service.client.ServiceClient`;
* edge cases: invalid specs answer 400 (job never starts), unknown ids
  404, a taken port raises the one-line actionable error, and serving
  specs run as single-worker jobs.

Workers are real spawned processes, so these tests are the slowest in
the suite — grids stay tiny; every shard appends to one shared SQLite
store.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments import CampaignSpec, open_store, run_spec, scenario_key, store_digest
from repro.service import (
    JOB_STATES,
    TERMINAL_STATES,
    Coordinator,
    ServiceClient,
    ServiceError,
    make_server,
)

WAIT = 180.0  # spawned workers import the package (~1s each); be generous


def _spec_dict(name="svc-test", schemes=("fp16", "mokey"), batch_sizes=(1, 2)):
    return {
        "name": name,
        "axes": {
            "workloads": [["bert-base", "mnli", None]],
            "schemes": list(schemes),
            "designs": ["mokey"],
            "batch_sizes": list(batch_sizes),
            "buffer_bytes": [262144],
            "sequence_lengths": [32],
        },
    }


def _oracle_digest(tmp_path, spec_dict):
    """Single-process run of the same spec: the bit-identity reference."""
    root = tmp_path / "oracle"
    spec = CampaignSpec.from_dict(spec_dict).with_execution(
        store=str(root), resume=True
    )
    run_spec(spec)
    return store_digest(open_store(root))


class _FailingStartContext:
    """A multiprocessing context whose ``Process.start`` raises from the
    ``fail_from``-th process on, as when the host cannot spawn more."""

    def __init__(self, context, fail_from):
        self._context = context
        self._fail_from = fail_from
        self._spawned = 0

    def __getattr__(self, name):
        return getattr(self._context, name)

    def Process(self, *args, **kwargs):  # noqa: N802 - mirrors the context API
        proc = self._context.Process(*args, **kwargs)
        self._spawned += 1
        if self._spawned >= self._fail_from:
            def start():
                raise OSError("cannot start worker: resource temporarily unavailable")

            proc.start = start
        return proc


@pytest.fixture
def coordinator(tmp_path):
    co = Coordinator(tmp_path / "svc-store")
    yield co
    co.drain()


@pytest.fixture
def service(tmp_path):
    """A live daemon on an ephemeral port + a client bound to it."""
    co = Coordinator(tmp_path / "svc-store")
    server = make_server("127.0.0.1", 0, co)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield co, server, client
    server.shutdown()
    thread.join(5.0)
    co.drain()
    server.server_close()


class TestCoordinator:
    def test_multi_worker_equals_serial_oracle(self, tmp_path, coordinator):
        spec_dict = _spec_dict()
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=2)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["error"] is None
        assert status["progress"]["completed"] == status["progress"]["total"] == 4
        service_digest = store_digest(
            open_store(coordinator.store_root)
        )
        assert service_digest == oracle

    def test_records_stream_in_grid_order_with_digests(self, tmp_path, coordinator):
        spec_dict = _spec_dict()
        job_id = coordinator.submit(spec_dict, workers=2)
        coordinator.wait(job_id, timeout=WAIT)
        rows = list(coordinator.records(job_id))
        spec = CampaignSpec.from_dict(spec_dict)
        assert [row["key"] for row in rows] == [
            scenario_key(s) for s in spec.scenarios()
        ]
        stored = store_digest(open_store(coordinator.store_root))
        assert {row["key"]: row["digest"] for row in rows} == stored
        for row in rows:
            assert set(row) >= {"key", "digest", "scenario", "result"}

    def test_kill_one_worker_resumes_bit_identically(self, tmp_path, coordinator):
        # A grid big enough that workers are still mid-shard when the kill
        # lands (64 scenarios across 2 workers).
        spec_dict = _spec_dict(
            name="svc-kill",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["buffer_bytes"] = [131072, 262144]
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=2)
        # Kill shard 0's worker as soon as it has made some progress (so
        # the shard is provably mid-flight, not pending or done).
        deadline = time.monotonic() + WAIT
        killed = False
        while not killed and time.monotonic() < deadline:
            status = coordinator.status(job_id)
            if status["state"] in TERMINAL_STATES:
                break
            shard0 = status["shards"][0]
            if shard0["state"] == "running" and 0 < shard0["completed"] < shard0["total"]:
                killed = coordinator.kill_worker(job_id, 0)
            time.sleep(0.02)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed", status["error"]
        service_digest = store_digest(
            open_store(coordinator.store_root)
        )
        assert service_digest == oracle
        if killed:  # the kill can race with shard completion; when it
            # landed, a replacement worker must have finished the shard
            assert status["restarts"] >= 1
            assert status["shards"][0]["state"] == "done"

    def test_cancel_stops_workers_and_keeps_persisted_records(
        self, tmp_path, coordinator
    ):
        spec_dict = _spec_dict(
            name="svc-cancel",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        job_id = coordinator.submit(spec_dict, workers=2)
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            status = coordinator.status(job_id)
            if status["state"] in TERMINAL_STATES or status["progress"]["completed"] > 0:
                break
            time.sleep(0.02)
        coordinator.cancel(job_id)
        status = coordinator.wait(job_id, timeout=WAIT)
        # Cancellation can race with completion on a fast grid; either
        # terminal state is legitimate, but nothing may be lost.
        assert status["state"] in ("cancelled", "completed")
        persisted = store_digest(open_store(coordinator.store_root))
        assert len(persisted) >= status["progress"]["completed"] > 0
        rows = list(coordinator.records(job_id))
        assert {row["key"] for row in rows} <= set(persisted)

    def test_submit_rejects_bad_specs_before_starting_anything(self, coordinator):
        with pytest.raises(ValueError, match="schemes"):
            coordinator.submit(
                {"name": "bad", "axes": {"schemes": ["no-such-scheme"]}}
            )
        with pytest.raises(ServiceError, match="workers"):
            coordinator.submit(_spec_dict(), workers=0)
        with pytest.raises(ServiceError, match="kind"):
            coordinator.submit(_spec_dict(), kind="nonsense")
        assert coordinator.jobs() == []

    def test_unknown_job_id_raises_service_error(self, coordinator):
        with pytest.raises(ServiceError, match="unknown campaign id"):
            coordinator.status("campaign-9999")

    def test_more_workers_than_scenarios_completes_with_empty_shards(
        self, tmp_path, coordinator
    ):
        spec_dict = _spec_dict(schemes=("fp16",), batch_sizes=(1,))
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=3)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert [shard["total"] for shard in status["shards"]] == [1, 0, 0]
        assert store_digest(open_store(coordinator.store_root)) == oracle

    def test_worker_that_fails_to_spawn_fails_the_job(self, coordinator):
        coordinator._ctx = _FailingStartContext(coordinator._ctx, fail_from=2)
        job_id = coordinator.submit(_spec_dict(), workers=2)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "failed"
        assert "cannot start worker" in status["error"]
        assert "\n" not in status["error"]
        assert all(shard["pid"] is None for shard in status["shards"])
        # The worker that did start is reaped with the job.
        assert not any(proc.is_alive() for proc in coordinator._jobs[job_id].procs.values())

    def test_job_states_vocabulary_is_registered(self):
        from repro.registry import get_registry

        registry = get_registry("job-states")
        assert set(registry.names()) == set(JOB_STATES)
        assert set(TERMINAL_STATES) <= set(JOB_STATES)
        assert registry.describe("running") == JOB_STATES["running"]


class TestHTTPService:
    def test_submit_poll_stream_over_http(self, tmp_path, service):
        co, _server, client = service
        spec_dict = _spec_dict()
        oracle = _oracle_digest(tmp_path, spec_dict)
        health = client.health()
        assert health["status"] == "ok"
        assert health["store_backend"] == "sqlite"
        job_id = client.submit(spec_dict, workers=2)
        status = client.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["workers"] == 2
        assert len(status["shards"]) == 2
        rows = list(client.results(job_id))
        assert {row["key"]: row["digest"] for row in rows} == oracle
        listed = client.jobs()
        assert [job["id"] for job in listed] == [job_id]
        assert listed[0]["state"] == "completed"

    def test_kill_worker_over_http_preserves_bit_identity(self, tmp_path, service):
        co, _server, client = service
        spec_dict = _spec_dict(
            name="svc-http-kill",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = client.submit(spec_dict, workers=2)
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status["state"] in TERMINAL_STATES:
                break
            shard0 = status["shards"][0]
            if shard0["state"] == "running" and shard0["completed"] > 0:
                if client.kill_worker(job_id, shard=0):
                    break
            time.sleep(0.02)
        final = client.wait(job_id, timeout=WAIT)
        assert final["state"] == "completed", final["error"]
        rows = list(client.results(job_id))
        assert {row["key"]: row["digest"] for row in rows} == oracle

    def test_serving_spec_runs_as_single_worker_job(self, service):
        co, _server, client = service
        serving_dict = {
            "name": "svc-serving",
            "model": "bert-base",
            "task": "mnli",
            "schemes": ["fp16"],
            "designs": ["mokey"],
            "buffer_bytes": 262144,
            "trace": {"kind": "poisson", "rate_rps": 200.0, "num_requests": 50, "seed": 0},
            "policy": {"kind": "timeout", "max_batch": 4, "timeout_ms": 5.0},
        }
        job_id = client.submit(serving_dict)  # kind auto-detected
        assert job_id.startswith("serving-")
        status = client.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["workers"] == 1
        rows = list(client.results(job_id))
        assert len(rows) == 1  # one scheme x design combo
        assert rows[0]["scheme"] == "fp16"

    def test_bad_spec_answers_400_and_unknown_id_404(self, service):
        _co, _server, client = service
        with pytest.raises(ServiceError, match="400"):
            client.submit({"name": "bad", "axes": {"designs": ["no-such-design"]}})
        with pytest.raises(ServiceError, match="404"):
            client.status("campaign-4242")
        with pytest.raises(ServiceError, match="404"):
            list(client.results("campaign-4242"))
        with pytest.raises(ServiceError, match="404"):
            client.cancel("campaign-4242")

    def test_cancel_over_http(self, service):
        _co, _server, client = service
        spec_dict = _spec_dict(
            name="svc-http-cancel",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        job_id = client.submit(spec_dict, workers=2)
        client.cancel(job_id)
        final = client.wait(job_id, timeout=WAIT)
        assert final["state"] in ("cancelled", "completed")

    def test_taken_port_raises_one_line_actionable_error(self, service, tmp_path):
        co, server, _client = service
        port = server.server_address[1]
        with pytest.raises(ServiceError) as caught:
            make_server("127.0.0.1", port, co)
        message = str(caught.value)
        assert "\n" not in message
        assert f"cannot bind 127.0.0.1:{port}" in message
        assert "--port" in message

    def test_client_reports_unreachable_daemon_plainly(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="is 'repro serve' running"):
            client.health()
