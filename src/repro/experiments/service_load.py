"""Service-plane load: ingest throughput and query latency vs clients.

One harness, :func:`run_service_load`, answers the three questions the
``repro.service`` tentpole is gated on:

1. **Sustained multi-client ingest** — a real :class:`DayuService` on an
   ephemeral port is hammered by the async load generator
   (:mod:`repro.service.loadgen`) with 1..N concurrent keep-alive
   clients uploading real workload traces and querying
   FTG/SDG/findings after every upload; uploads/s, MB/s and latency
   percentiles per client count land in the result table.
2. **Correctness under concurrency** — after every sweep, each run's
   served graphs and findings are byte-compared against the offline
   reference (``compact_profiles`` + the same load, graph and lint
   calls ``dayu-analyze --graph-json --lint`` makes).
3. **Crash recovery** — the service is stopped *without* the graceful
   compaction pass (the ``kill -9`` shape), restarted over the same
   store root, and every run must serve the identical bytes again.

Wall-clock timings are real (the service is real I/O-bound tooling, not
part of the simulation), so the CI gates on these numbers carry margin.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyzer import ParallelAnalyzer, build_ftg, build_sdg
from repro.analyzer.serialize import graph_to_json
from repro.experiments.common import ResultTable, fresh_env
from repro.mapper.columnar import compact_profiles
from repro.service.app import DayuService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.loadgen import run_load
from repro.workloads.registry import build_workload

__all__ = ["ServiceRunner", "make_trace_payloads", "run_service_load"]


class ServiceRunner:
    """A :class:`DayuService` on its own event-loop thread — the
    harness-side twin of running ``dayu-serve`` as a daemon."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = DayuService(config)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.host: str = ""
        self.port: int = 0

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self.host, self.port = self._loop.run_until_complete(
            self.service.start())
        self._ready.set()
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> "ServiceRunner":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service failed to start")
        return self

    def stop(self, compact: bool = False) -> None:
        fut = asyncio.run_coroutine_threadsafe(
            self.service.stop(compact=compact), self._loop)
        fut.result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30)

    def client(self, token: Optional[str] = None) -> ServiceClient:
        return ServiceClient(self.host, self.port, token=token)


def make_trace_payloads(workload: str = "ddmd",
                        scale: float = 0.5,
                        n_nodes: int = 2) -> List[bytes]:
    """Trace one bundled workload in-process; one serialized JSON
    payload per task, exactly what ``dayu-run --out`` would save."""
    env = fresh_env(n_nodes=n_nodes)
    workflow, prepare = build_workload(workload, scale)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    return [p.serialize() for p in env.mapper.profiles.values()]


def _offline_reference(payloads: Sequence[bytes],
                       work_dir: Path) -> Dict[str, bytes]:
    """The offline pipeline's bytes: ``dayu-compact`` the payloads, then
    the same builds/lint ``dayu-analyze --graph-json --lint`` performs."""
    from repro.lint import lint_profiles
    from repro.mapper.persist import load_profile

    compacted = work_dir / "compacted"
    compacted.mkdir(parents=True, exist_ok=True)
    full = [load_profile(p, with_io_records=True) for p in payloads]
    compact_profiles(full, str(compacted / "run.dayuc"))
    profiles = ParallelAnalyzer().load(str(compacted))
    return {
        "ftg": (graph_to_json(build_ftg(profiles)) + "\n").encode(),
        "sdg": (graph_to_json(build_sdg(profiles)) + "\n").encode(),
        "findings": lint_profiles(profiles).to_json().encode(),
    }


def _verify_runs(client: ServiceClient, runs: Sequence[str],
                 reference: Dict[str, bytes]) -> bool:
    for run in runs:
        if client.graph(run, "ftg").encode() != reference["ftg"]:
            return False
        if client.graph(run, "sdg").encode() != reference["sdg"]:
            return False
        if client.findings(run).encode() != reference["findings"]:
            return False
    return True


def run_service_load(
    clients_sweep: Sequence[int] = (1, 2, 4, 8),
    workload: str = "ddmd",
    scale: float = 0.5,
    runs_per_sweep: int = 4,
    work_dir: Optional[str] = None,
) -> dict:
    """Sweep client concurrency against one live service instance."""
    own_dir = work_dir is None
    base = Path(work_dir or tempfile.mkdtemp(prefix="dayu-service-"))
    try:
        payloads = make_trace_payloads(workload, scale)
        reference = _offline_reference(payloads, base)
        trace_bytes = sum(len(p) for p in payloads)

        table = ResultTable(
            title=f"Service ingest/query vs clients ({workload}, "
                  f"{len(payloads)} traces x {runs_per_sweep} runs/sweep)",
            columns=["clients", "uploads", "uploads_per_s", "ingest_mb_per_s",
                     "upload_p99_ms", "query_p50_ms", "query_p99_ms",
                     "identical"],
        )
        runner = ServiceRunner(ServiceConfig(root=str(base / "store"),
                                             compact_after=0)).start()
        rows: List[dict] = []
        all_runs: List[str] = []
        try:
            for clients in clients_sweep:
                jobs: List[Tuple[str, bytes]] = []
                for r in range(runs_per_sweep):
                    run = f"c{clients}-r{r}"
                    jobs.extend((run, payload) for payload in payloads)
                    all_runs.append(run)
                random.Random(clients).shuffle(jobs)
                result = run_load(runner.host, runner.port, jobs,
                                  clients=clients)
                with runner.client() as check:
                    identical = _verify_runs(
                        check, [f"c{clients}-r{r}"
                                for r in range(runs_per_sweep)], reference)
                row = {"clients": clients, "uploads": result.uploads,
                       "uploads_per_s": result.uploads_per_s,
                       "ingest_mb_per_s": result.ingest_mb_per_s,
                       "upload_p99_ms": result.upload_p99_ms,
                       "query_p50_ms": result.query_p50_ms,
                       "query_p99_ms": result.query_p99_ms,
                       "identical": identical and result.errors == 0}
                rows.append(row)
                table.add(**row)
        finally:
            # Stop as a crash would: no graceful compaction pass.
            runner.stop(compact=False)

        # Recovery: a fresh instance over the same root must serve every
        # acknowledged run byte-identically.
        recovered = ServiceRunner(ServiceConfig(root=str(base / "store"),
                                                compact_after=0)).start()
        try:
            with recovered.client() as check:
                listed = [r["run"] for r in check.runs()["runs"]]
                recovery_identical = (sorted(all_runs) == listed
                                      and _verify_runs(check, all_runs,
                                                       reference))
        finally:
            recovered.stop(compact=False)

        table.notes.append(
            "Every sweep's served FTG/SDG/findings byte-checked against "
            "the offline compact+analyze pipeline; recovery re-checks all "
            "runs after a no-compaction stop and restart.")
        return {
            "workload": workload,
            "scale": scale,
            "n_traces": len(payloads),
            "trace_bytes": trace_bytes,
            "runs_per_sweep": runs_per_sweep,
            "rows": rows,
            "peak_uploads_per_s": max(r["uploads_per_s"] for r in rows),
            "peak_ingest_mb_per_s": max(r["ingest_mb_per_s"] for r in rows),
            "worst_query_p99_ms": max(r["query_p99_ms"] for r in rows),
            "identical": all(r["identical"] for r in rows),
            "recovery_identical": recovery_identical,
            "table_markdown": table.to_markdown(),
        }
    finally:
        if own_dir:
            shutil.rmtree(base, ignore_errors=True)
