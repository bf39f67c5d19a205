"""The ``campaign-mix`` workload: one client against a fresh store.

The client sends a seeded stream of four operations over the paper's
workloads × batch sizes × designs × buffer sizes:

* ``sweep``: an overlapping ``run_spec`` sub-grid on the default thread
  executor, against the store the CLI would open for a fresh directory;
* ``report``: a grouped or filtered ``query()`` over that store, opened
  as ``repro campaign report`` opens it;
* ``serve``: a ``run_serving`` replay whose batch shapes resolve through
  the same store;
* ``job``: a campaign submitted to an in-process ``repro serve`` daemon
  (two spawned workers, its own store) and waited on to completion.

No request reaches the quantizer or the index-domain engines.
"""

from __future__ import annotations

import operator
import os
import random
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.experiments import AxisGrid, CampaignSpec, ExecutionPolicy, run_spec
from repro.experiments.campaign import run_scenario
from repro.experiments.scenario import KB
from repro.experiments.store import (
    StoreEntry,
    entry_digest,
    open_store,
    scenario_key,
    store_digest,
)
from repro.serving import PolicySpec, ServingSpec, TraceSpec, run_serving
from repro.service.client import ServiceClient
from repro.service.daemon import make_server
from repro.service.jobs import Coordinator
from repro.transformer.model_zoo import PAPER_MODELS

PAPER_WORKLOADS = tuple((model, task, seq) for model, task, seq, _head in PAPER_MODELS)
BATCH_SIZES = (1, 2, 4, 8, 16)
DESIGNS = ("gobo", "mokey", "tensor-cores", "tensor-cores+mokey-oc",
           "tensor-cores+mokey-oc+on")
BUFFERS = (256 * KB, 512 * KB, 1024 * KB, 2048 * KB)
#: One block of the request stream, shuffled per block by the seed: the
#: mix stays fixed so every run measures the same proportions.
BLOCK = ("sweep",) * 8 + ("report",) * 4 + ("serve",) * 2 + ("job",)
#: Values drawn per axis (workloads, batch sizes, designs, buffers): every
#: sweep resolves 108 scenarios of the 800-point universe, every service
#: job 96, so request sizes do not vary with the seed.
SWEEP_GRID = (3, 3, 3, 4)
JOB_GRID = (4, 2, 3, 4)
SMOKE_GRID = (1, 1, 2, 2)
SERVICE_WORKERS = 2
#: Sweep records re-simulated per sweep by the correctness check.
SAMPLED_RECORDS = 2
JOB_TIMEOUT_S = 60.0
_COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


class CampaignMix:
    PRIMARY = "sweep"

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.smoke = smoke
        self.scratch = scratch
        self.rng = random.Random(f"campaign-mix:{seed}")
        # Checks draw from their own stream, so requests depend on the seed only.
        self.check_rng = random.Random(f"campaign-mix-check:{seed}")
        self.block: List[str] = []
        self.server = None
        self.setups = 0
        self.workers = min(2, os.cpu_count() or 1)
        self.serial_runs = 0
        #: Scenarios resolved by sweeps, and the sweeps' seconds.
        self.scenarios = 0
        self.sweep_seconds = 0.0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """A fresh store directory and a freshly started daemon."""
        self.setups += 1
        base = self.scratch / f"setup-{self.setups}"
        self.store = base / "store"
        self.coordinator = Coordinator(
            store=base / "service-store", default_workers=SERVICE_WORKERS
        )
        self.server = make_server("127.0.0.1", 0, self.coordinator)
        self.serve_thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-serve", daemon=True
        )
        self.serve_thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.server_address[1]}")
        self.client.health()

    def _stop_daemon(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.serve_thread.join(10)
        self.coordinator.drain()
        self.server.server_close()
        self.server = None

    def close(self) -> None:
        self._stop_daemon()

    # -- the request stream ----------------------------------------------

    def _grid(self, shape: Tuple[int, int, int, int]) -> AxisGrid:
        """A seeded sub-grid of fixed size: ``shape`` values per axis."""
        axes = (PAPER_WORKLOADS, BATCH_SIZES, DESIGNS, BUFFERS)
        workloads, batches, designs, buffers = (
            tuple(sorted(self.rng.sample(values, count), key=values.index))
            for values, count in zip(axes, shape)
        )
        return AxisGrid(workloads=workloads, batch_sizes=batches, designs=designs,
                        buffer_bytes=buffers)

    def next_request(self, index: int) -> Tuple[str, Any]:
        if not self.block:
            self.block = list(BLOCK)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if kind in ("sweep", "job"):
            shape = (SMOKE_GRID if self.smoke else
                     SWEEP_GRID if kind == "sweep" else JOB_GRID)
            return kind, CampaignSpec(name=f"{kind}-{index}", axes=self._grid(shape))
        if kind == "report":
            return kind, self._report()
        return kind, self._serving()

    def _report(self) -> Dict[str, Any]:
        group_by = self.rng.choice((("design",), ("model", "batch_size"),
                                    ("design", "buffer_bytes"), None))
        filters = [self.rng.choice((
            ("batch_size", ">=", self.rng.choice(BATCH_SIZES)),
            ("design", "==", self.rng.choice(DESIGNS)),
            ("buffer_bytes", "<=", self.rng.choice(BUFFERS)),
        ))]
        if group_by is None:
            return {"filters": filters, "order_by": "-total_cycles", "limit": 20}
        return {"filters": filters, "group_by": group_by, "order_by": "-count"}

    def _serving(self) -> ServingSpec:
        model, task, seq = self.rng.choice(PAPER_WORKLOADS)
        requests = 2000 if self.smoke else 20000
        return ServingSpec(
            model=model, task=task, sequence_length=seq,
            designs=tuple(self.rng.sample(DESIGNS, 2)),
            buffer_bytes=self.rng.choice(BUFFERS),
            trace=TraceSpec(kind=self.rng.choice(("poisson", "bursty")),
                            rate_rps=float(self.rng.choice((100, 300, 1000))),
                            num_requests=requests, seed=self.rng.randrange(1 << 30)),
            policy=PolicySpec(kind="timeout", max_batch=self.rng.choice((8, 16)),
                              timeout_ms=5.0),
            execution=ExecutionPolicy(store=str(self.store)),
        )

    def execute(self, kind: str, request: Any) -> Any:
        if kind == "sweep":
            spec = request.with_execution(
                executor="thread", max_workers=self.workers, store=str(self.store)
            )
            return run_spec(spec)
        if kind == "report":
            found = open_store(self.store).query(**request)
            return list(found)
        if kind == "serve":
            return run_serving(request)
        job_id = self.client.submit(request)
        return self.client.wait(job_id, timeout=JOB_TIMEOUT_S, poll=0.05)

    # -- checks ----------------------------------------------------------

    def check(self, kind: str, request: Any, response: Any) -> List[str]:
        if kind == "sweep":
            return self._check_sweep(request, response)
        if kind == "report":
            return self._check_report(request, response)
        if kind == "serve":
            return [
                f"{record.base.design}: {record.simulated} simulated + "
                f"{record.from_store} from store != "
                f"{len(record.batch_size_counts)} batch shapes"
                for record in response.records
                if record.simulated + record.from_store != len(record.batch_size_counts)
            ]
        return self._check_job(request, response)

    def _check_sweep(self, spec: CampaignSpec, result: Any) -> List[str]:
        expected = spec.scenarios()
        if [record.scenario for record in result] != expected:
            return ["sweep records do not match the grid"]
        problems = []
        for record in self.check_rng.sample(result.records, min(SAMPLED_RECORDS, len(result))):
            stored = entry_digest(StoreEntry(record.scenario, record.result, None, None))
            fresh = entry_digest(
                StoreEntry(record.scenario, run_scenario(record.scenario), None, None)
            )
            if stored != fresh:
                problems.append(f"{record.scenario.label}: record digest differs from a fresh run")
        return problems

    def _check_report(self, request: Dict[str, Any], rows: List[Any]) -> List[str]:
        """Recount the report from the raw records with Python comparisons."""
        (field, op, value), = request["filters"]
        matching = [
            entry for entry in open_store(self.store).records()
            if _COMPARE[op](getattr(entry.scenario, field), value)
        ]
        if "group_by" in request:
            counted = sum(row["count"] for row in rows)
            if counted != len(matching):
                return [f"grouped report counts {counted} records, filter matches {len(matching)}"]
            return []
        cycles = sorted((entry.result.total_cycles for entry in matching), reverse=True)
        if [entry.result.total_cycles for entry in rows] != cycles[: request["limit"]]:
            return ["top-k report differs from the records sorted by total_cycles"]
        return []

    def _check_job(self, spec: CampaignSpec, status: Dict[str, Any]) -> List[str]:
        if status["state"] != "completed":
            return [f"service job ended {status['state']!r}: {status.get('error')}"]
        self.serial_runs += 1
        serial_root = self.scratch / f"serial-{self.serial_runs}"
        run_spec(spec.with_execution(executor="serial", store=str(serial_root)))
        serial = store_digest(open_store(serial_root))
        shutil.rmtree(serial_root, ignore_errors=True)
        keys = {scenario_key(scenario) for scenario in spec.scenarios()}
        service = {
            key: digest
            for key, digest in store_digest(
                open_store(status["store"], backend=status["store_backend"])
            ).items()
            if key in keys
        }
        if service != serial:
            return [f"service store_digest differs from a serial run on "
                    f"{len(set(service.items()) ^ set(serial.items()))} entries"]
        return []

    def final_checks(self) -> List[str]:
        return []

    # -- accounting ------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        return {}

    def program_counts(self, kind: str, response: Any) -> Dict[str, float]:
        if kind == "sweep":
            simulated = response.simulated_count
            return {"simulated": simulated, "sweep_simulated": simulated,
                    "scenarios": len(response)}
        if kind == "serve":
            return {"simulated": response.simulated}
        if kind == "job":
            return {"restarts": response["restarts"], "shards": len(response["shards"])}
        return {}

    def record(self, kind: str, request: Any, response: Any, elapsed: float) -> None:
        if kind == "sweep":
            self.scenarios += len(response)
            self.sweep_seconds += elapsed

    def throughput(self) -> float:
        return self.scenarios / self.sweep_seconds

    def environment(self) -> Dict[str, Any]:
        return {"service_store_backend": self.coordinator.store_backend,
                "sweep_max_workers": self.workers}
