"""Open-loop HTTP/1.1 load generator for ``dayu-serve`` (stdlib only).

Requests are due on a fixed schedule, ``k / rate`` seconds after the
start, whether or not earlier ones have been answered.  A dispatcher
hands each upload out when it falls due; a fixed pool of keep-alive
connections works through them, each sending the upload and then the
queries that read the run back.  Latency counts from the due time, so time a
request spends queued behind a stall is charged to it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple

from harness import NULL_TRACER, Span, Tracer, due_latency, lateness

__all__ = ["Job", "OpenLoopResult", "Connection", "open_loop", "fetch",
           "parse_prometheus"]


class Job(NamedTuple):
    run: str
    payload: bytes


@dataclass
class OpenLoopResult:
    #: Per job, in due order: every request answered 200.
    ok: List[bool] = field(default_factory=list)
    #: Per job: upload due time to last query answered (the pass wall).
    walls: List[float] = field(default_factory=list)
    #: Per job: upload latency from its due time.
    upload_s: List[float] = field(default_factory=list)
    #: Per query: latency from when it was due (the previous answer).
    query_s: List[float] = field(default_factory=list)
    #: Per job: how late the dispatcher handed it out.
    lateness_s: List[float] = field(default_factory=list)
    #: Requests due but unanswered, sampled at each dispatch.
    backlog: List[int] = field(default_factory=list)
    #: Per job, in due order: whether it was traced.
    traced: List[bool] = field(default_factory=list)
    #: Spans of each traced job, root first.
    traces: List[List[Span]] = field(default_factory=list)


class Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length framing)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def __aenter__(self) -> "Connection":
        await self.open()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.writer = None

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


async def open_loop(host: str, port: int, jobs: Sequence[Job],
                    queries: Sequence[str], rate: float, connections: int,
                    trace_block: int = 0) -> OpenLoopResult:
    """Run ``jobs`` at ``rate`` per second over ``connections``; after
    each upload, GET ``/runs/<run>/<q>`` for every ``q`` in ``queries``.
    ``rate`` = inf makes every job due at once (back to back).

    With ``trace_block`` = n > 0, jobs alternate in blocks of n untraced
    and n traced ones.  A traced job runs its requests inside the spans
    of its own :class:`~harness.Tracer`: a ``pass`` root from the job's
    due time, a ``service.upload`` child and one ``service.query`` child
    per query.  With an even n, each connection gets traced and untraced
    jobs even when the connections take jobs in turn.
    """
    n = len(jobs)
    res = OpenLoopResult(ok=[False] * n, walls=[0.0] * n,
                         upload_s=[0.0] * n, traced=[False] * n)
    queue: asyncio.Queue = asyncio.Queue()
    outstanding = 0

    async def dispatch(t0: float) -> None:
        nonlocal outstanding
        for k in range(n):
            due = t0 + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            res.lateness_s.append(lateness(due, time.perf_counter()))
            res.backlog.append(outstanding)
            outstanding += 1
            queue.put_nowait((k, due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def requests(conn: Connection, job: Job, tr,
                       marks: List[float]) -> bool:
        with tr.span("service.upload"):
            status, _ = await conn.request(
                "POST", f"/runs/{job.run}/traces", job.payload)
        ok = status == 200
        marks.append(time.perf_counter())
        for q in queries:
            with tr.span("service.query"):
                status, _ = await conn.request("GET", f"/runs/{job.run}/{q}")
            ok = ok and status == 200
            marks.append(time.perf_counter())
        return ok

    async def work(conn: Connection) -> None:
        nonlocal outstanding
        while True:
            item = await queue.get()
            if item is None:
                return
            k, due = item
            traced = bool(trace_block) and (k // trace_block) % 2 == 1
            tr = Tracer() if traced else NULL_TRACER
            marks = [time.perf_counter()]
            try:
                with tr.span("pass"):
                    res.ok[k] = await requests(conn, jobs[k], tr, marks)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                # A broken request counts as failed; reconnect and go on.
                marks.append(time.perf_counter())
                await conn.close()
                await conn.open()
            res.upload_s[k] = due_latency(due, marks[1])
            res.query_s.extend(due_latency(a, b)
                               for a, b in zip(marks[1:], marks[2:]))
            res.walls[k] = due_latency(due, marks[-1])
            if traced:
                # The pass counts from the due time, as untraced walls do.
                tr.spans[0] = tr.spans[0]._replace(start=due)
                res.traces.append(tr.spans)
            res.traced[k] = traced
            outstanding -= 1

    conns = [Connection(host, port) for _ in range(connections)]
    for c in conns:
        await c.open()
    try:
        workers = [asyncio.create_task(work(c)) for c in conns]
        await dispatch(time.perf_counter())
        await asyncio.gather(*workers)
    finally:
        for c in conns:
            await c.close()
    return res


async def fetch(host: str, port: int, path: str) -> str:
    async with Connection(host, port) as conn:
        status, body = await conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body.decode()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line of an exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out
