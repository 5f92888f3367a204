"""Tests of the benchmark driver's own helpers.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import loadgen
import run
from harness import (
    Measurement,
    Span,
    Tracer,
    backlog_growing,
    check_metrics,
    due_latency,
    lateness,
    nearest_rank,
    self_times,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_tail_percentile_picks_highest_with_ten_beyond():
    samples = list(range(1, 101))          # 100 samples
    assert tail_percentile(samples) == (90.0, 90, 100)
    samples = list(range(1, 1001))         # 1000 samples
    assert tail_percentile(samples) == (99.0, 990, 1000)
    samples = list(range(1, 21))           # 20: only the median qualifies
    assert tail_percentile(samples) == (50.0, 10, 20)


def test_tail_percentile_reports_none_below_ten_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([]) is None


def test_nearest_rank():
    assert nearest_rank([5, 1, 3], 50) == 3
    assert nearest_rank([5, 1, 3], 100) == 5
    assert nearest_rank([7], 90) == 7


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_leaves_residual():
    spans = [
        Span("pass", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 2.0, 3.0, 1),       # nested in a
        Span("c", 6.0, 9.0, 0),
    ]
    charged, residual = self_times(spans)
    assert charged == pytest.approx({"a": 3.0, "b": 1.0, "c": 3.0})
    assert residual == pytest.approx(3.0)
    assert sum(charged.values()) + residual == pytest.approx(10.0)


def test_self_time_sums_per_layer_over_repeated_spans():
    spans = [
        Span("pass", 0.0, 4.0, -1),
        Span("load", 0.0, 1.0, 0),
        Span("load", 2.0, 3.5, 0),
    ]
    charged, residual = self_times(spans)
    assert charged == pytest.approx({"load": 2.5})
    assert residual == pytest.approx(1.5)


@pytest.mark.parametrize("spans", [
    # overlapping siblings
    [Span("pass", 0.0, 10.0, -1), Span("x", 1.0, 6.0, 0),
     Span("y", 4.0, 8.0, 0)],
    # a child outliving its parent
    [Span("pass", 0.0, 10.0, -1), Span("x", 1.0, 6.0, 0),
     Span("y", 5.0, 7.0, 1)],
])
def test_self_time_rejects_spans_that_do_not_nest(spans):
    with pytest.raises(ValueError):
        self_times(spans)


def test_tracer_records_nesting():
    tr = Tracer()
    with tr.span("pass"):
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        with tr.span("outer"):
            pass
    assert [s.name for s in tr.spans] == ["pass", "outer", "inner", "outer"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    charged, residual = self_times(tr.spans)
    root = tr.spans[0]
    assert sum(charged.values()) + residual == pytest.approx(
        root.end - root.start)


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
def test_due_latency_and_lateness():
    assert due_latency(due=1.0, done=1.25) == pytest.approx(0.25)
    assert lateness(due=1.0, dispatched=1.004) == pytest.approx(0.004)
    assert lateness(due=1.0, dispatched=0.999) == 0.0


def test_backlog_growing():
    assert not backlog_growing([0, 1, 0, 1, 0, 1])
    assert backlog_growing([0, 0, 1, 2, 4, 6])
    assert not backlog_growing([3, 4])


class _StallServer:
    """HTTP stub answering 200 to everything, the first request after a
    stall of ``stall`` seconds."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.seen = 0

    async def handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:
                h = await reader.readline()
                if h in (b"\r\n", b""):
                    break
                name, _, value = h.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
            self.seen += 1
            if self.seen == 1:
                await asyncio.sleep(self.stall)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()
        writer.close()


def test_open_loop_charges_stall_to_requests_queued_behind_it():
    async def scenario():
        stub = _StallServer(stall=0.3)
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        jobs = [loadgen.Job("r", b"x") for _ in range(8)]
        async with server:
            return await loadgen.open_loop("127.0.0.1", port, jobs,
                                           ("ftg", "sdg"), rate=20.0,
                                           connections=1, trace_block=2)

    res = asyncio.run(scenario())
    assert all(res.ok)
    # Job 1 was due 50 ms after job 0 but waited out the 300 ms stall on
    # the only connection: its latency counts from its due time.
    assert res.upload_s[1] >= 0.24
    assert res.walls[1] >= res.upload_s[1]
    # The dispatcher itself stayed on schedule while the stall lasted.
    assert max(res.lateness_s) < 0.1
    assert max(res.backlog) >= 2
    assert len(res.query_s) == 2 * len(res.ok)
    # Jobs alternate in blocks of two untraced and two traced; each traced
    # job has a pass span from its due time, with one upload span and one
    # span per query.
    assert res.traced == [False, False, True, True] * 2
    traced_walls = [w for w, t in zip(res.walls, res.traced) if t]
    assert len(res.traces) == 4
    for spans in res.traces:
        assert [s.name for s in spans] == ["pass", "service.upload",
                                           "service.query", "service.query"]
        assert [s.parent for s in spans] == [-1, 0, 0, 0]
        root = spans[0]
        assert root.end - root.start == pytest.approx(
            traced_walls.pop(0), abs=1e-3)
        self_times(spans)  # nests


# ----------------------------------------------------------------------
# Metrics emitted against BENCHMARK.json
# ----------------------------------------------------------------------
def test_per_layer_emits_every_metric_with_its_unit():
    tr = Tracer()
    layer_spans = sorted({e["name"][:-2] for e in SPEC["per_layer"]
                          if e["unit"] == "s"
                          and not e["name"].startswith("bench.")})
    with tr.span("pass"):
        for name in layer_spans:
            with tr.span(name):
                time.sleep(0.0001)
    m = Measurement(walls=[1.0], traced=[tr.spans],
                    counters={"workflow.decisions": 10})
    values = run._per_layer(m, SPEC["per_layer"])
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in SPEC["per_layer"]}
    assert check_metrics(metrics, SPEC["per_layer"]) == []
    root = tr.spans[0]
    layer_sum = sum(values[f"{n}_s"] for n in layer_spans)
    assert layer_sum + values["bench.residual_s"] == pytest.approx(
        root.end - root.start)
    assert values["bench.traced_wall_s"] == pytest.approx(
        root.end - root.start)


def test_check_metrics_flags_missing_wrong_unit_and_extra():
    spec = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
    problems = check_metrics({"a": {"value": 1.0, "unit": "ms"},
                              "c": {"value": 1.0, "unit": "s"}}, spec)
    assert problems == ["a: unit 'ms', expected 's'", "missing metric b",
                        "unexpected metric c"]


def test_every_per_layer_metric_names_what_it_should_move():
    layers = json.loads((HERE / "layers.json").read_text())
    workloads = {w["name"] for w in SPEC["workloads"]} | {"all"}
    names = {e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(layers) == {e["name"] for e in SPEC["per_layer"]}
    for metric, target in layers.items():
        assert target["workload"] in workloads, metric
        assert set(target["moves"]) <= names, metric


def test_driver_prints_every_metric_by_name_with_unit(tmp_path):
    """One short schedule-dag run per mode, through the real command."""
    root = HERE.parent
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "schedule-dag", "--seed", "7", "--seconds", "0",
             "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert check_metrics(result["metrics"], SPEC[key]) == []
