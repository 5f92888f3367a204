"""The benchmark's four workloads, driven through public ``repro`` entry
points only.

Each workload turns ``--seed`` into its inputs, pays imports and one
warm-up in set-up, then runs passes until the time budget is spent.  A
pass is one unit a user waits for: the whole user journey
(``pipeline``), one trace-to-findings analysis (``trace-analytics``),
one schedule of a large DAG (``schedule-dag``), or one trace upload
followed by a graph query (``service-ingest``).  Every call into a
layer sits in a span named after the layer; untraced passes hand the
workload :data:`~harness.NULL_TRACER` instead.  Every output is checked
on every pass; each check, task and request counts once in
``attempted``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from harness import (
    NULL_TRACER,
    Measurement,
    Tracer,
    backlog_growing,
    nearest_rank,
    tail_percentile,
)
import loadgen

from repro.analyzer import ParallelAnalyzer
from repro.analyzer.serialize import graph_to_json
from repro.cluster.configs import cluster_spec
from repro.experiments.common import fresh_env
from repro.lint.cost import build_cost_context
from repro.lint.engine import cost_findings, lint_workflow
from repro.lint.rules import LintConfig
from repro.mapper.columnar import compact_profiles
from repro.mapper.mapper import DataSemanticMapper, TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.optimizer import solve_placement
from repro.simclock import SimClock, TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile
from repro.workflow.dscheduler import (
    DataflowRunner,
    DataflowScheduler,
    TaskGraph,
    upward_ranks,
)
from repro.workflow.plan import plan_path_resolver, stage_in_plan
from repro.workloads.registry import build_workload

__all__ = ["WORKLOADS", "Checks"]

#: The DY5xx race family alone (the default families off).
RACE_ONLY = LintConfig(enable=("DY5",), disable=("DY1", "DY2", "DY3"))
#: Default families plus races: what ``lint_run`` must match.
WITH_RACE = LintConfig(enable=("DY5",))
#: The DY6xx cost-prophet family.
COST = LintConfig(enable=("DY6",))
#: Simulated-clock accounts reported per layer (``SimClock.accounts()``).
SIM_ACCOUNTS = {
    "vol.sim_s": "dayu.vol.access_tracker",
    "vfd.sim_s": "dayu.vfd.access_tracker",
    "mapper.sim_s": "dayu.characteristic_mapper",
    "posix.sim_s": "posix_io",
}
#: The accounts fig9 counts as DaYu's own simulated cost (the monitor
#: subscriber is application time there, so it stays out).
DAYU_ACCOUNTS = ("dayu.input_parser", "dayu.vol.access_tracker",
                 "dayu.vfd.access_tracker", "dayu.characteristic_mapper")
SETUP_REPEATS = 3
#: ``route`` labels of ``dayu-serve``'s request histogram.
UPLOAD_ROUTES = ("^/runs/(?P<run>[^/]+)/traces$",)
QUERY_ROUTES = ("^/runs/(?P<run>[^/]+)/(?P<kind>ftg|sdg)$",
                "^/runs/(?P<run>[^/]+)/findings$")
#: Seed-independent pipeline outputs recorded on the benchmark's base
#: commit (output digest and simulated values).
EXPECTED = Path(__file__).resolve().parent / "expected.json"


class Checks:
    """Output checks: every call is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        """``attempted`` operations (tasks, requests...), ``failed`` bad."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.notes) < 20:
                self.notes.append(f"{what} ({failed} of {attempted})")


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def _reset(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _drop_alert(alert) -> None:
    """Streaming-lint alerts are counted by the monitor; not printed."""


def _analyze(tr, analyzer: ParallelAnalyzer, profiles) -> Dict[str, object]:
    """FTG/SDG + canonical graph JSON + default and race lint."""
    with tr.span("analyzer.ftg"):
        ftg = analyzer.build_ftg(profiles)
    with tr.span("analyzer.sdg"):
        sdg = analyzer.build_sdg(profiles)
    with tr.span("analyzer.graph_json"):
        ftg_json = graph_to_json(ftg)
        sdg_json = graph_to_json(sdg)
    with tr.span("lint.batch"):
        batch = analyzer.lint(profiles)
    with tr.span("lint.race"):
        race = analyzer.lint(profiles, RACE_ONLY)
    return {
        "ftg": ftg_json,
        "sdg": sdg_json,
        "batch": batch.to_json(),
        "race": race.to_json(),
        "findings": batch.findings + race.findings,
        "sdg_nodes": sdg.number_of_nodes(),
        "sdg_edges": sdg.number_of_edges(),
    }


def _same_text(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return all(a[k] == b[k] for k in ("ftg", "sdg", "batch", "race"))


# ----------------------------------------------------------------------
# Batch workloads: pipeline, trace-analytics, schedule-dag
# ----------------------------------------------------------------------
class BatchWorkload:
    """Runs :meth:`run_pass` back to back until the budget is spent.

    In a traced run, odd passes are traced and even ones are not, so the
    tracing overhead compares passes made under the same conditions.
    """

    min_passes = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.checks = Checks()
        self._first: Optional[Dict[str, float]] = None

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        raise NotImplementedError

    def run_pass(self, tr) -> Dict[str, float]:
        raise NotImplementedError

    def setup(self) -> float:
        """Build the inputs (median of several builds) and warm up."""
        inputs_s = _median_seconds(self.make_inputs, SETUP_REPEATS)
        t0 = time.perf_counter()
        self._pass(NULL_TRACER)
        return inputs_s + time.perf_counter() - t0

    def _pass(self, tr) -> Dict[str, float]:
        counters = self.run_pass(tr)
        if self._first is None:
            self._first = counters
        else:
            self.checks.expect(counters == self._first,
                               f"{self.name}: pass outputs differ from "
                               f"the first pass's")
        return counters

    def measure(self, seconds: float, traced: bool) -> Measurement:
        m = Measurement()
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            gc.collect()
            if traced and i % 2:
                tr = Tracer()
                with tr.span("pass"):
                    m.counters = self._pass(tr)
                m.traced.append(tr.spans)
            else:
                t0 = time.perf_counter()
                m.counters = self._pass(NULL_TRACER)
                m.walls.append(time.perf_counter() - t0)
            i += 1
            enough = (len(m.walls) >= self.min_passes
                      and (not traced or len(m.traced) >= self.min_passes))
            if enough and time.perf_counter() >= deadline:
                return m

    def close(self) -> None:
        pass


class Pipeline(BatchWorkload):
    """The pyflextrkr user journey, stage run to planned re-run."""

    name = "pipeline"
    workload = "pyflextrkr"
    scale = 1.0
    nodes = 2

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.expected = json.loads(EXPECTED.read_text())
        self.load_rank: Dict[str, int] = {}

    def sizes(self) -> Dict[str, object]:
        return {"workload": self.workload, "scale": self.scale,
                "nodes": self.nodes, "tasks": len(self.load_rank)}

    def make_inputs(self) -> None:
        # The seed only decides the order the loader meets the traces in.
        workflow, _ = build_workload(self.workload, self.scale)
        names = sorted(t.name for t in workflow.all_tasks())
        random.Random(self.seed).shuffle(names)
        self.load_rank = {name: i for i, name in enumerate(names)}

    def run_pass(self, tr) -> Dict[str, float]:
        checks = self.checks
        traces, run_dir = self.work / "traces", self.work / "run"
        _reset(traces, run_dir)
        with tr.span("workflow.run_stage"):
            env = fresh_env(n_nodes=self.nodes, monitor=True,
                            on_alert=_drop_alert)
            workflow, prepare = build_workload(self.workload, self.scale)
            if prepare is not None:
                prepare(env.cluster)
            result = env.runner.run(workflow)
        with tr.span("monitor.finish"):
            env.monitor.finish()
        with tr.span("mapper.save"):
            written = env.mapper.save_to_host_dir(str(traces))
        trace_bytes = sum(os.path.getsize(p) for p in written)
        for p in map(Path, written):
            p.rename(p.with_name(f"{self.load_rank[p.stem]:04d}-{p.name}"))

        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        with tr.span("mapper.load"):
            profiles = analyzer.load(str(traces))
        run_file = run_dir / "run.dayuc"
        with tr.span("mapper.compact"):
            compact_profiles(profiles, str(run_file))
        from_json = _analyze(tr, analyzer, profiles)
        with tr.span("mapper.load"):
            compacted = analyzer.load(str(run_dir))
        from_run = _analyze(tr, analyzer, compacted)
        checks.expect(_same_text(from_json, from_run),
                      "pipeline: graphs/lint from JSON traces differ from "
                      "the compacted run's")

        spec = cluster_spec("gpu", self.nodes)
        static_wf, _ = build_workload(self.workload, self.scale)
        with tr.span("lint.static"):
            static = lint_workflow(static_wf)
        with tr.span("lint.cost"):
            cctx = build_cost_context(static_wf, spec)
            cost = cost_findings(cctx, COST)
        with tr.span("optimizer.solve"):
            plan = solve_placement(static_wf, spec, workload=self.workload,
                                   scale=self.scale)
        with tr.span("workflow.run_event"):
            env2 = fresh_env(n_nodes=self.nodes)
            workflow2, prepare2 = build_workload(self.workload, self.scale)
            if prepare2 is not None:
                prepare2(env2.cluster)
            stage_in_plan(env2.cluster, plan)
            runner = DataflowRunner(env2.cluster, env2.mapper,
                                    dependency_mode="dataflow",
                                    pins=plan.tasks,
                                    path_resolver=plan_path_resolver(plan))
            planned = runner.run(workflow2)

        n_tasks = len(workflow.all_tasks())
        checks.count(n_tasks, len(result.failures) + n_tasks - len(profiles),
                     "pipeline: stage run lost tasks")
        states = runner.last_engine.terminal_states()
        checks.count(n_tasks, sum(s != "memory" for s in states.values())
                     + n_tasks - len(states),
                     "pipeline: planned re-run lost tasks")
        accounts = env.clock.accounts()
        bus = env.monitor.stats()["bus"]
        counters = {
            "sim_makespan_s": result.wall_time,
            "sim_makespan_planned_s": planned.wall_time,
            "sim_dayu_overhead_pct": 100.0 * sum(
                accounts.get(a, 0.0) for a in DAYU_ACCOUNTS)
            / env.clock.now,
            "trace_bytes": trace_bytes,
            **{k: accounts.get(a, 0.0) for k, a in SIM_ACCOUNTS.items()},
            "vfd.io_records": sum(len(p.io_records) for p in profiles),
            "mapper.compact_bytes": run_file.stat().st_size,
            "analyzer.sdg_nodes": from_json["sdg_nodes"],
            "analyzer.sdg_edges": from_json["sdg_edges"],
            "lint.findings": (len(from_json["findings"])
                              + len(static.findings) + len(cost)),
            "optimizer.pins": len(plan.tasks),
            "monitor.events": bus["total_published"],
            "monitor.dropped": sum(s["dropped"]
                                   for s in bus["subscribers"].values()),
            "workflow.tasks": n_tasks + len(workflow2.all_tasks()),
            "workflow.steals": runner.last_engine.steals,
            "workflow.decisions": runner.last_engine.decisions,
        }
        digest = _digest(from_json["ftg"], from_json["sdg"],
                         from_json["batch"], from_json["race"],
                         static.to_json(),
                         json.dumps(sorted(f.fingerprint for f in cost)))
        self._check_expected(digest, counters)
        return counters

    def _check_expected(self, digest: str,
                        counters: Dict[str, float]) -> None:
        """Graphs, findings and simulated values equal the recorded ones:
        they are seed-independent, so every seed must reproduce them."""
        exp = self.expected
        self.checks.expect(digest == exp.get("digest"),
                           f"pipeline: output digest {digest} differs from "
                           f"the recorded one")
        for key, value in exp.get("counters", {}).items():
            self.checks.expect(counters.get(key) == value,
                               f"pipeline: {key} = {counters.get(key)!r}, "
                               f"recorded {value!r}")
        self.observed = {"digest": digest, "counters": counters}


class TraceAnalytics(BatchWorkload):
    """A seeded ~1k-node synthetic run from trace write to findings."""

    name = "trace-analytics"
    n_tasks = 100
    files_per_task = 15
    n_files = 850
    datasets_per_file = 2
    records_per_stat = 2

    def sizes(self) -> Dict[str, object]:
        return {"tasks": self.n_tasks, "files": self.n_files,
                "files_per_task": self.files_per_task,
                "datasets_per_file": self.datasets_per_file,
                "records_per_stat": self.records_per_stat}

    def make_inputs(self) -> None:
        mapper = DataSemanticMapper(SimClock())
        for profile in synthetic_profiles(
                random.Random(self.seed), self.n_tasks, self.files_per_task,
                self.n_files, self.datasets_per_file, self.records_per_stat):
            mapper.profiles[profile.task] = profile
        self.mapper = mapper

    def run_pass(self, tr) -> Dict[str, float]:
        traces, run_dir = self.work / "traces", self.work / "run"
        _reset(traces, run_dir)
        with tr.span("mapper.save"):
            self.mapper.save_to_host_dir(str(traces),
                                         trace_format="columnar")
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        with tr.span("mapper.load"):
            profiles = analyzer.load(str(traces))
        run_file = run_dir / "run.dayuc"
        with tr.span("mapper.compact"):
            compact_profiles(profiles, str(run_file))
        out = _analyze(tr, analyzer, profiles)
        stats: Dict[str, int] = {}
        with tr.span("lint.pushdown"):
            pushed = analyzer.lint_run(str(run_file), config=WITH_RACE,
                                       stats_out=stats)
        batch = sorted(out["findings"], key=lambda f: f.sort_key())
        self.checks.expect(
            [f.to_json_dict() for f in pushed.findings]
            == [f.to_json_dict() for f in batch],
            "trace-analytics: pushdown findings differ from batch findings")
        self.checks.expect(len(profiles) == self.n_tasks,
                           "trace-analytics: profiles lost on load")
        compact_bytes = run_file.stat().st_size
        skipped = stats["rules_skipped"]
        return {
            "trace_bytes": compact_bytes,
            "mapper.compact_bytes": compact_bytes,
            "vfd.io_records": sum(len(p.io_records) for p in profiles),
            "analyzer.sdg_nodes": out["sdg_nodes"],
            "analyzer.sdg_edges": out["sdg_edges"],
            "lint.findings": len(pushed.findings),
            "lint.pushdown_skip_ratio":
                skipped / (stats["rules_evaluated"] + skipped),
            "digest": int(_digest(out["ftg"], out["sdg"], out["batch"],
                                  out["race"])[:12], 16),
        }


def synthetic_profiles(rng: random.Random, n_tasks: int, files_per_task: int,
                       n_files: int, datasets_per_file: int,
                       records_per_stat: int) -> List[TaskProfile]:
    """Seeded task profiles shaped like the analyzer scale-out fixture.

    Each task touches ``files_per_task`` of ``n_files`` shared files and
    writes a third of its objects, reading the rest, one 4 KiB page per
    operation.  Statistics, page regions, file sessions and per-op
    records agree with each other, so the trace sanitizer (DY3xx) has
    nothing to report; task spans overlap a little, so the race rules
    have concurrent writers to consider.
    """
    page = 4096
    profiles = []
    for t in range(n_tasks):
        task = f"task_{t:04d}"
        start = t + rng.uniform(0.0, 0.6)
        end = start + rng.uniform(0.8, 1.2)
        stats, records, objects, sessions = [], [], [], []
        for file_idx in sorted(rng.sample(range(n_files), files_per_task)):
            file = f"/pfs/synth/file_{file_idx:05d}.h5"
            session = FileSession(task=task, file=file, open_time=start,
                                  close_time=end)
            for d in range(datasets_per_file):
                s = DatasetIoStats(task=task, file=file,
                                   data_object=f"/ds{d}")
                n = records_per_stat
                nbytes = n * page
                first_page = d * n
                if rng.random() < 1 / 3:
                    op = s.first_raw_op = "write"
                    s.writes, s.bytes_written = n, nbytes
                    session.write_ops += n
                    session.write_bytes += nbytes
                else:
                    op = s.first_raw_op = "read"
                    s.reads, s.bytes_read = n, nbytes
                    session.read_ops += n
                    session.read_bytes += nbytes
                meta = sum(1 for i in range(n) if i % 8 == 0)
                s.metadata_ops, s.metadata_bytes = meta, meta * page
                s.data_ops, s.data_bytes = n - meta, (n - meta) * page
                s.io_time = n * 1e-5
                s.first_start = start
                s.last_end = start + (n - 1) * 1e-4 + 1e-5
                s.regions = {first_page + i: 1 for i in range(n)}
                stats.append(s)
                for i in range(n):
                    records.append(VfdIoRecord(
                        task=task, file=file, op=op,
                        offset=(first_page + i) * page, nbytes=page,
                        start=start + i * 1e-4, duration=1e-5,
                        access_type=(IoClass.METADATA if i % 8 == 0
                                     else IoClass.RAW),
                        data_object=s.data_object))
                objects.append(DataObjectProfile(
                    task=task, file=file, object_name=s.data_object,
                    acquired=start, released=end, open_count=1,
                    shape=(n * page // 4,), dtype="float32",
                    layout="contiguous", nbytes=nbytes,
                    reads=s.reads, writes=s.writes))
            sessions.append(session)
        profiles.append(TaskProfile(
            task=task, span=TimeSpan(start, end),
            files=[sess.file for sess in sessions],
            object_profiles=objects, file_sessions=sessions,
            io_records=records, dataset_stats=stats))
    return profiles


class ScheduleDag(BatchWorkload):
    """Upward ranks + event-scheduler simulation of a seeded layered DAG."""

    name = "schedule-dag"
    n_tasks = 30_000
    width = 256
    fan_in = 3
    nodes = 8
    slots_per_node = 16

    def sizes(self) -> Dict[str, object]:
        return {"tasks": self.n_tasks, "width": self.width,
                "fan_in": self.fan_in, "nodes": self.nodes,
                "slots_per_node": self.slots_per_node}

    def make_inputs(self) -> None:
        self.graph, self.durations = layered_dag(
            random.Random(self.seed), self.n_tasks, self.width, self.fan_in)

    def run_pass(self, tr) -> Dict[str, float]:
        with tr.span("workflow.rank"):
            ranks = upward_ranks(self.graph, self.durations)
        with tr.span("workflow.simulate"):
            engine = DataflowScheduler(
                self.graph,
                slots={f"n{i}": self.slots_per_node
                       for i in range(self.nodes)},
                policy="locality", priorities=ranks)
            schedule = engine.simulate(self.durations)
        states = engine.terminal_states()
        self.checks.expect(
            len(states) == self.n_tasks
            and all(s == "memory" for s in states.values())
            and schedule.decisions == self.n_tasks,
            "schedule-dag: not exactly one terminal state per task")
        return {
            "sim_makespan_s": schedule.makespan,
            "workflow.decisions": schedule.decisions,
            "workflow.steals": schedule.steals,
            "workflow.tasks": self.n_tasks,
        }


def layered_dag(rng: random.Random, n_tasks: int, width: int, fan_in: int):
    """A seeded DAG shaped like ``build_synthetic_dag``: layers of
    ``width`` tasks, each depending on up to ``fan_in`` random tasks of
    the previous layer, with seeded edge volumes and durations."""
    graph = TaskGraph()
    for i in range(n_tasks):
        graph.add_task(f"t{i}", stage=f"layer{i // width}")
    for i in range(width, n_tasks):
        layer_start = (i // width - 1) * width
        prev = range(layer_start, min(layer_start + width, n_tasks))
        for j in rng.sample(prev, min(fan_in, len(prev))):
            graph.add_edge(f"t{j}", f"t{i}",
                           volume=rng.randint(1, 7) * 4096)
    durations = {f"t{i}": rng.randint(1, 11) * 0.25 for i in range(n_tasks)}
    return graph, durations


# ----------------------------------------------------------------------
# service-ingest: dayu-serve in its own process, open-loop uploads
# ----------------------------------------------------------------------
class ServiceIngest:
    """Seeded ddmd trace uploads at fixed rates against ``dayu-serve``.

    The generator is open-loop over two keep-alive connections: upload
    ``k`` is due at ``k / rate`` whatever happened before it, and every
    upload is followed on its connection by ftg, sdg and findings
    queries of the run it touched.  A pass is one upload with its
    queries, timed from the upload's due time to the last answer.
    """

    name = "service-ingest"
    workload = "ddmd"
    scale = 1.0
    connections = 2
    #: Half the sustained rate the sweep finds on a 2-vCPU machine (40/s),
    #: so queueing shows in ``wall_s``.
    nominal_rate = 20.0
    sweep_rates = (20.0, 30.0, 40.0, 50.0, 60.0, 70.0)
    sweep_step_s = 2.0
    #: Upload p90 limit for a rate to count as sustained.
    limit_ms = 100.0
    kinds = ("ftg", "sdg", "findings")

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.checks = Checks()
        self.rng = random.Random(seed)
        self.server: Optional[subprocess.Popen] = None
        self.runs: List[str] = []

    def sizes(self) -> Dict[str, object]:
        return {"workload": self.workload, "scale": self.scale,
                "traces_per_run": len(self.payloads),
                "connections": self.connections,
                "nominal_rate": self.nominal_rate,
                "sweep_rates": list(self.sweep_rates)}

    def make_inputs(self) -> None:
        traces = self.work / "traces"
        _reset(traces)
        env = fresh_env()
        workflow, prepare = build_workload(self.workload, self.scale)
        if prepare is not None:
            prepare(env.cluster)
        env.runner.run(workflow)
        written = env.mapper.save_to_host_dir(str(traces))
        self.payloads = [Path(p).read_bytes() for p in sorted(written)]
        # What offline dayu-compact + dayu-analyze make of the same run.
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        run_dir = self.work / "offline"
        _reset(run_dir)
        compact_profiles(analyzer.load(str(traces)),
                         str(run_dir / "run.dayuc"))
        profiles = ParallelAnalyzer(max_workers=1).load(str(run_dir))
        self.reference = {
            "ftg": (graph_to_json(analyzer.build_ftg(profiles))
                    + "\n").encode(),
            "sdg": (graph_to_json(analyzer.build_sdg(profiles))
                    + "\n").encode(),
            "findings": analyzer.lint(profiles).to_json().encode(),
        }

    def setup(self) -> float:
        inputs_s = _median_seconds(self.make_inputs, SETUP_REPEATS)
        t0 = time.perf_counter()
        self._start_server()
        # Back to back: a paced warm-up would count the generator's
        # own waiting as set-up.
        self._open_loop("warmup", math.inf, 1)
        return inputs_s + time.perf_counter() - t0

    def _start_server(self) -> None:
        store, port_file = self.work / "store", self.work / "port"
        _reset(store)
        port_file.unlink(missing_ok=True)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = open(self.work / "serve.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", str(store),
             "--host", "127.0.0.1", "--port", "0",
             "--port-file", str(port_file)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("dayu-serve did not come up; see "
                                   f"{self.work / 'serve.log'}")
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def _jobs(self, phase: str, n_runs: int) -> List[loadgen.Job]:
        jobs = []
        for r in range(n_runs):
            run = f"{phase}-{r}"
            self.runs.append(run)
            order = list(range(len(self.payloads)))
            self.rng.shuffle(order)
            jobs.extend(loadgen.Job(run, self.payloads[k]) for k in order)
        return jobs

    def _open_loop(self, phase: str, rate: float, n_runs: int,
                   trace_block: int = 0) -> loadgen.OpenLoopResult:
        result = asyncio.run(loadgen.open_loop(
            "127.0.0.1", self.port, self._jobs(phase, n_runs), self.kinds,
            rate, self.connections, trace_block))
        for ok in result.ok:
            self.checks.expect(ok, f"service-ingest: {phase} request failed")
        return result

    def _runs_for(self, seconds: float, rate: float) -> int:
        return max(1, round(seconds * rate / len(self.payloads)))

    def measure(self, seconds: float, traced: bool) -> Measurement:
        """``seconds`` at the nominal rate; a traced run traces blocks
        of two jobs out of four there, then sweeps the fixed rates for
        ``sweep_step_s`` each to find the sustained rate."""
        m = Measurement()
        runs = self._runs_for(seconds, self.nominal_rate)
        if not traced:
            m.walls = self._open_loop("nominal", self.nominal_rate,
                                      runs).walls
        else:
            before = self._scrape()
            res = self._open_loop("nominal", self.nominal_rate, runs,
                                  trace_block=2)
            after = self._scrape()
            m.walls = [w for w, t in zip(res.walls, res.traced) if not t]
            m.traced = res.traces
            m.counters.update(self._latency_counters(res, m.detail))
            m.counters.update(self._server_counters(before, after))
            m.counters.update(self._sweep(m.detail))
        self._verify_runs()
        return m

    def _latency_counters(self, res: loadgen.OpenLoopResult,
                          detail: Dict[str, object]) -> Dict[str, float]:
        out = {}
        for kind, samples in (("upload", res.upload_s),
                              ("query", res.query_s)):
            ms = [s * 1e3 for s in samples]
            out[f"{kind}_p50_ms"] = nearest_rank(ms, 50)
            out[f"{kind}_p90_ms"] = nearest_rank(ms, 90)
            detail[f"{kind}_tail"] = tail_percentile(ms)
        out["loadgen.lateness_ms_p90"] = nearest_rank(
            [s * 1e3 for s in res.lateness_s], 90)
        out["loadgen.backlog_max"] = max(res.backlog)
        return out

    def _sweep(self, detail: Dict[str, object]) -> Dict[str, float]:
        """Fixed-rate steps; the highest rate whose upload p90 meets the
        limit with every request answered and no growing backlog."""
        sustained = 0.0
        steps = []
        for rate in self.sweep_rates:
            res = self._open_loop(f"rate{rate:g}", rate,
                                  self._runs_for(self.sweep_step_s, rate))
            p90 = nearest_rank([s * 1e3 for s in res.upload_s], 90)
            growing = backlog_growing(res.backlog)
            ok = all(res.ok) and p90 <= self.limit_ms and not growing
            steps.append({"rate": rate, "upload_p90_ms": p90,
                          "samples": len(res.upload_s),
                          "backlog_growing": growing, "meets_limit": ok})
            if ok:
                sustained = rate
        detail["sweep"] = steps
        return {"sustained_uploads_per_s": sustained}

    def _scrape(self) -> Dict[str, float]:
        text = asyncio.run(loadgen.fetch("127.0.0.1", self.port, "/metrics"))
        return loadgen.parse_prometheus(text)

    def _server_counters(self, before: Dict[str, float],
                         after: Dict[str, float]) -> Dict[str, float]:
        """Server-side mean latency per route group and ingested bytes
        over the nominal phase, from two ``/metrics`` scrapes."""
        def delta(key: str) -> float:
            return after.get(key, 0.0) - before.get(key, 0.0)

        def mean_ms(routes) -> float:
            hist = "dayu_service_request_seconds"
            total = sum(delta(f'{hist}_sum{{route="{r}"}}') for r in routes)
            count = sum(delta(f'{hist}_count{{route="{r}"}}') for r in routes)
            return 1e3 * total / count if count else 0.0

        return {
            "service.upload_server_ms": mean_ms(UPLOAD_ROUTES),
            "service.query_server_ms": mean_ms(QUERY_ROUTES),
            "service.ingest_bytes": delta(
                'dayu_service_ingest_bytes_total{tenant="public"}'),
        }

    def _verify_runs(self) -> None:
        """Every run served equals the offline bytes, byte for byte."""
        async def fetch_all():
            async with loadgen.Connection("127.0.0.1", self.port) as conn:
                for run in self.runs:
                    for kind in self.kinds:
                        status, body = await conn.request(
                            "GET", f"/runs/{run}/{kind}")
                        self.checks.expect(
                            status == 200 and body == self.reference[kind],
                            f"service-ingest: {run}/{kind} differs from "
                            "the offline pipeline")

        asyncio.run(fetch_all())

    def close(self) -> None:
        """Stop ``dayu-serve`` (SIGTERM, then SIGKILL) and wait for it."""
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.log.close()
            self.server = None


WORKLOADS = {
    "pipeline": Pipeline,
    "trace-analytics": TraceAnalytics,
    "service-ingest": ServiceIngest,
    "schedule-dag": ScheduleDag,
}
