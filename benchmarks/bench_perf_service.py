"""Perf benchmark of the campaign service (submit → complete wall time).

Writes the ``service`` section of ``BENCH_PERF.json``: how long one fixed
campaign grid takes from HTTP submission to terminal state when executed
by 1 vs 4 worker processes, through the full service path — daemon on an
ephemeral port, coordinator sharding, spawned workers, shared SQLite
store.  The scaling ratio (1-worker time / 4-worker time) is the number
the fan-out design is accountable to; both runs also re-prove the
bit-identity contract (every record digest equals the single-process
oracle's).

The ratio floor is asserted only in full mode **and** on machines with at
least 4 CPUs: with fewer cores the workers time-slice one core and the
ratio is legitimately ~1x (spawn/import overhead included), which is a
property of the host, not a regression.  The measured ratio and the CPU
count are always recorded, so the trajectory stays honest either way.
"""

import os
import threading
import time

from conftest import TINY_MODE, record_perf

from repro.experiments import ArtifactStore, CampaignSpec, run_spec, store_digest
from repro.service import Coordinator, ServiceClient, make_server

if TINY_MODE:
    SCHEMES = ("fp16", "mokey")
    BATCH_SIZES = (1, 2)
    SEQUENCE_LENGTHS = (16, 32)
else:
    SCHEMES = ("fp16", "mokey", "gobo", "q8bert")
    BATCH_SIZES = (1, 2, 4, 8)
    SEQUENCE_LENGTHS = (16, 32, 64, 128)

SCALING_FLOOR = 1.5  # asserted full-mode on >=4-CPU hosts only
WAIT = 1200.0


def _spec_dict(name):
    return {
        "name": name,
        "axes": {
            "models": ["bert-base"],
            "tasks": ["mnli"],
            "schemes": list(SCHEMES),
            "designs": ["mokey"],
            "batch_sizes": list(BATCH_SIZES),
            "buffer_bytes": [262144],
            "sequence_lengths": list(SEQUENCE_LENGTHS),
        },
    }


def _timed_service_run(tmp_path, name, workers):
    """One submit→complete round through a fresh daemon + store."""
    coordinator = Coordinator(tmp_path / name)
    server = make_server("127.0.0.1", 0, coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        started = time.perf_counter()
        job_id = client.submit(_spec_dict(name), workers=workers)
        final = client.wait(job_id, timeout=WAIT, poll=0.05)
        elapsed = time.perf_counter() - started
        assert final["state"] == "completed", final["error"]
        digest = store_digest(ArtifactStore(tmp_path / name))
        return elapsed, final, digest
    finally:
        server.shutdown()
        thread.join(5.0)
        coordinator.drain()
        server.server_close()


def test_perf_service_scaling(tmp_path):
    spec = CampaignSpec.from_dict(_spec_dict("oracle"))
    grid_size = len(spec.scenarios())
    oracle_root = tmp_path / "oracle"
    run_spec(
        spec.with_execution(store=str(oracle_root), resume=True)
    )
    oracle = store_digest(ArtifactStore(oracle_root))

    one_seconds, one_final, one_digest = _timed_service_run(tmp_path, "svc-w1", 1)
    four_seconds, four_final, four_digest = _timed_service_run(tmp_path, "svc-w4", 4)

    # The perf claim rides on the correctness claim: both worker counts
    # must land the oracle's exact keys + digests.
    assert one_digest == oracle
    assert four_digest == oracle
    assert one_final["progress"]["completed"] == grid_size
    assert four_final["progress"]["completed"] == grid_size

    cpu_count = os.cpu_count() or 1
    ratio = one_seconds / four_seconds if four_seconds > 0 else float("inf")
    record_perf(
        "service",
        {
            "grid_size": grid_size,
            "workers_1_seconds": round(one_seconds, 3),
            "workers_4_seconds": round(four_seconds, 3),
            "scaling_ratio": round(ratio, 3),
            "scaling_floor": SCALING_FLOOR,
            "cpu_count": cpu_count,
            "floor_asserted": (not TINY_MODE) and cpu_count >= 4,
            "store_backend": "sqlite",
            "bit_identical_to_oracle": True,
        },
    )
    print(
        f"\nservice scaling: {grid_size}-scenario grid — 1 worker "
        f"{one_seconds:.2f}s, 4 workers {four_seconds:.2f}s "
        f"(ratio {ratio:.2f}x, {cpu_count} CPUs, floor {SCALING_FLOOR}x "
        f"{'asserted' if (not TINY_MODE) and cpu_count >= 4 else 'recorded only'})"
    )
    if not TINY_MODE and cpu_count >= 4:
        assert ratio >= SCALING_FLOOR, (
            f"4-worker service run only {ratio:.2f}x faster than 1-worker "
            f"on {cpu_count} CPUs (floor {SCALING_FLOOR}x)"
        )
