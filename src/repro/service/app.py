"""``repro.service`` — the DaYu ingest + query plane (stdlib-only).

A :class:`DayuService` is a long-running asyncio HTTP/1.1 server that
accepts streamed trace uploads from many concurrent clients, folds them
into per-run incremental :class:`~repro.service.state.RunState`
(the same :class:`~repro.analyzer.graphs.GraphBuilder` machinery and
lint finisher the offline analyzer uses — each uploaded profile is
folded and profile-linted once, whatever order it arrives in),
persists every accepted byte durably
(:class:`~repro.service.store.RunStore`), and serves the analysis back:

====== ============================ =======================================
method path                         meaning
====== ============================ =======================================
GET    ``/healthz``                 liveness (no auth)
GET    ``/metrics``                 Prometheus text exposition (no auth)
GET    ``/runs``                    this tenant's runs
GET    ``/runs/<run>``              one run's summary
POST   ``/runs/<run>/traces``       upload one trace (json/.dayuc;
                                    ``Content-Length`` or chunked)
GET    ``/runs/<run>/ftg``          canonical FTG JSON
GET    ``/runs/<run>/sdg``          canonical SDG JSON
GET    ``/runs/<run>/findings``     lint report JSON (baseline-suppressed)
POST   ``/runs/<run>/compact``      fold incoming traces into run.dayuc
DELETE ``/runs/<run>``              drop the run, free its quota
GET    ``/baseline``                this tenant's lint baseline
PUT    ``/baseline``                install a lint baseline
====== ============================ =======================================

The wire format for uploads is exactly the on-disk trace format — JSON
interchange or the columnar form (``DYC1``, single trace or whole
compacted run) — classified by
:func:`~repro.mapper.persist.sniff_trace_format` from the first four
bytes; a body too short to carry the magic is rejected with the typed
``unknown-trace-format`` error, one in the retired row-binary format
(``DYU1``) with ``retired-trace-format``, a body that sniffs but does
not decode with ``malformed-trace``, and in none of these cases is
quota charged or disk touched.

Multi-tenancy: a bearer token (``Authorization: Bearer <t>`` or
``X-DaYu-Token: <t>``) maps to a tenant; every run, byte of quota, and
baseline is namespaced per tenant.  With no tokens configured the
service is single-tenant (``default_tenant``) and unauthenticated.

All state mutation happens synchronously between awaits on the single
event loop, so concurrent clients interleave only at request
boundaries; :class:`RunState` keys every profile by its canonical
``(start, task)`` place, so every query is byte-identical to the offline
``dayu-compact`` + ``dayu-analyze`` pipeline regardless of upload
interleaving, without refolding or re-linting the run per query.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mapper import columnar
from repro.mapper.persist import (
    RetiredTraceFormat,
    UnknownTraceFormat,
    load_profile,
    sniff_trace_format,
)
from repro.monitor.export import MetricsRegistry
from repro.service.errors import (
    AuthRequired,
    BadRequest,
    HeadersTooLarge,
    MalformedTrace,
    NotFound,
    PayloadTooLarge,
    RequestTimeout,
    RetiredTrace,
    ServiceError,
    TruncatedTrace,
    UnknownRun,
)
from repro.service.state import RunState
from repro.service.store import RunStore, TenantQuota

__all__ = ["ServiceConfig", "DayuService"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: Caps on one header or chunked-trailer block (request line excluded); a
#: request over either gets 431 ``headers-too-large`` and loses its
#: connection.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 16 * 1024

#: Seconds a request's headers and body may take once its request line
#: has arrived; a slower request gets 408 ``request-timeout`` and loses
#: its connection.  Idle keep-alive time between requests is unbounded.
REQUEST_DEADLINE_S = 10.0

#: Run states held in memory, least recently used dropped first.  A
#: dropped run is rebuilt from the durable store on its next request,
#: so the cap bounds the server's memory (a ddmd-1.0 run state is
#: ~1.1 MiB), not what it can answer.
MAX_LIVE_RUNS = 16

#: Request-latency buckets: 100µs .. ~1.6s, powers of four.
_LATENCY_BUCKETS = (1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 1.024e-1, 4.096e-1,
                    1.6384,)


@dataclass
class ServiceConfig:
    """Everything ``dayu-serve`` can be configured with."""

    root: str
    #: token -> tenant.  Empty = single-tenant, unauthenticated.
    tokens: Dict[str, str] = field(default_factory=dict)
    #: Tenant served when no tokens are configured.
    default_tenant: str = "public"
    #: Default per-tenant quota (None fields = unlimited).
    quota: TenantQuota = field(default_factory=TenantQuota)
    #: Per-tenant quota overrides.
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: Auto-compact a run once this many incoming uploads accumulate
    #: (0 = compact only on explicit POST .../compact or shutdown).
    compact_after: int = 64
    #: Hard cap on one upload body.
    max_body_bytes: int = 64 * 1024 * 1024


class _Request:
    __slots__ = ("method", "path", "headers", "body", "close")

    def __init__(self, method: str, path: str, headers: Dict[str, str],
                 body: bytes, close: bool) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.close = close


class DayuService:
    """The ingest + query plane over one :class:`RunStore` root.

    Use :meth:`start` / :meth:`stop` around an asyncio loop, or the
    ``dayu-serve`` CLI (:mod:`repro.service.cli`) as a daemon.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = RunStore(config.root, default_quota=config.quota,
                              quotas=config.quotas)
        #: (tenant, run) -> state, least recently used first; populated
        #: lazily from the store, so a restarted server recovers every
        #: durably accepted run and a dropped one comes back on demand.
        self._states: "OrderedDict[Tuple[str, str], RunState]" = (
            OrderedDict())
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection handlers; :meth:`stop` closes them.
        self._handlers: Set[asyncio.Task] = set()
        self._build_metrics()
        self._routes = [
            (re.compile(r"^/healthz$"), {"GET": self._h_healthz}, False),
            (re.compile(r"^/metrics$"), {"GET": self._h_metrics}, False),
            (re.compile(r"^/runs$"), {"GET": self._h_runs}, True),
            (re.compile(r"^/runs/(?P<run>[^/]+)/traces$"),
             {"POST": self._h_upload}, True),
            (re.compile(r"^/runs/(?P<run>[^/]+)/(?P<kind>ftg|sdg)$"),
             {"GET": self._h_graph}, True),
            (re.compile(r"^/runs/(?P<run>[^/]+)/findings$"),
             {"GET": self._h_findings}, True),
            (re.compile(r"^/runs/(?P<run>[^/]+)/compact$"),
             {"POST": self._h_compact}, True),
            (re.compile(r"^/runs/(?P<run>[^/]+)$"),
             {"GET": self._h_run_info, "DELETE": self._h_delete}, True),
            (re.compile(r"^/baseline$"),
             {"GET": self._h_get_baseline, "PUT": self._h_put_baseline},
             True),
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        self._m_requests = m.counter(
            "dayu_service_requests_total",
            "HTTP requests served, by route and status.",
            ("method", "route", "status"))
        self._m_latency = m.histogram(
            "dayu_service_request_seconds",
            "Wall-clock request latency by route.",
            ("route",), buckets=_LATENCY_BUCKETS)
        self._m_ingest_bytes = m.counter(
            "dayu_service_ingest_bytes_total",
            "Accepted upload bytes, by tenant.", ("tenant",))
        self._m_ingest_traces = m.counter(
            "dayu_service_ingest_traces_total",
            "Accepted trace uploads, by tenant.", ("tenant",))
        self._m_errors = m.counter(
            "dayu_service_errors_total",
            "Typed service errors, by error code.", ("code",))
        self._m_runs = m.gauge(
            "dayu_service_runs", "Live runs, by tenant.", ("tenant",))
        self._m_profiles = m.gauge(
            "dayu_service_profiles",
            "Profiles held in run states, by tenant.", ("tenant",))
        self._m_reloads = m.counter(
            "dayu_service_state_reloads_total",
            "Run states rebuilt from the store (after a restart or after "
            "the run was dropped from memory), by tenant.", ("tenant",))

    def _bump_gauges(self, tenant: str) -> None:
        self._m_runs.set(len(self.store.runs(tenant)), tenant=tenant)
        self._m_profiles.set(
            sum(len(s.profiles) for (t, _), s in self._states.items()
                if t == tenant),
            tenant=tenant)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port) — pass
        ``port=0`` for an ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_conn, host, port)
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def stop(self, compact: bool = True) -> None:
        """Stop serving; with ``compact`` (default), fold every run's
        incoming files into its run file first (smallest durable form).

        Open keep-alive and stalled connections are closed before the
        compaction, so no request is served after :meth:`stop`."""
        if self._server is not None:
            self._server.close()
            while self._handlers:
                handlers = list(self._handlers)
                for handler in handlers:
                    handler.cancel()
                await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if compact:
            self.compact_all()

    def compact_all(self) -> int:
        """Compact every run of every tenant; returns runs compacted."""
        n = 0
        for tenant in self.store.tenants():
            for run in self.store.runs(tenant):
                if self.store.compact(tenant, run):
                    n += 1
        return n

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client went away mid-request
                except (ValueError, ServiceError) as exc:
                    # Unparseable request or oversized body: answer if we
                    # can, then drop the connection (framing is lost).
                    err = (exc if isinstance(exc, ServiceError)
                           else BadRequest(f"malformed request: {exc}"))
                    await self._respond(writer, err.status,
                                        json.dumps(err.to_json_dict()) + "\n",
                                        close=True)
                    break
                if request is None:
                    break
                status, body = self._dispatch(request)
                await self._respond(writer, status, body,
                                    close=request.close)
                if request.close:
                    break
        except ConnectionError:
            pass
        finally:
            self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self,
                            reader: asyncio.StreamReader) -> Optional[_Request]:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise ValueError(f"bad request line {line!r}")
        try:
            headers, body = await asyncio.wait_for(
                self._read_head_and_body(reader), REQUEST_DEADLINE_S)
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"request not received within {REQUEST_DEADLINE_S} s",
                deadline_s=REQUEST_DEADLINE_S) from None
        close = headers.get("connection", "").lower() == "close"
        return _Request(method.upper(), target, headers, body, close)

    async def _read_head_and_body(self, reader: asyncio.StreamReader
                                  ) -> Tuple[Dict[str, str], bytes]:
        headers = await _read_fields(reader)
        cap = self.config.max_body_bytes
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks: List[bytes] = []
            total = 0
            while True:
                size_line = await _read_line(reader)
                try:
                    size = int(size_line.split(b";")[0].strip(), 16)
                except ValueError:
                    size = -1
                if size < 0:
                    raise BadRequest(f"bad chunk size {size_line!r}")
                if size == 0:
                    await _read_fields(reader)  # trailers: dropped
                    break
                total += size
                if total > cap:
                    raise PayloadTooLarge(
                        f"chunked body exceeds {cap} bytes", max_bytes=cap)
                chunks.append(await reader.readexactly(size))
                if await reader.readexactly(2) != b"\r\n":
                    raise BadRequest("chunk data not followed by CRLF")
            return headers, b"".join(chunks)
        length = int(headers.get("content-length", "0") or "0")
        if length < 0:
            raise BadRequest(f"negative Content-Length {length}")
        if length > cap:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds {cap}",
                max_bytes=cap, content_length=length)
        return headers, (await reader.readexactly(length) if length else b"")

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: str, content_type: str = "application/json",
                       close: bool = False) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: _Request) -> Tuple[int, str]:
        started = time.perf_counter()
        route_label = "unmatched"
        try:
            for pattern, methods, needs_auth in self._routes:
                match = pattern.match(request.path)
                if not match:
                    continue
                route_label = pattern.pattern
                handler = methods.get(request.method)
                if handler is None:
                    raise ServiceErrorWithStatus(
                        405, "method-not-allowed",
                        f"{request.method} not allowed on {request.path}")
                kwargs = match.groupdict()
                if needs_auth:
                    kwargs["tenant"] = self._authenticate(request.headers)
                result = handler(request, **kwargs)
                status, body = result if isinstance(result, tuple) \
                    else (200, result)
                if not isinstance(body, str):
                    body = json.dumps(body, indent=2, sort_keys=True) + "\n"
                return self._finish(request, route_label, started,
                                    status, body)
            raise NotFound(f"no such endpoint: "
                           f"{request.method} {request.path}")
        except ServiceError as exc:
            self._m_errors.inc(code=exc.code)
            body = json.dumps(exc.to_json_dict(), sort_keys=True) + "\n"
            return self._finish(request, route_label, started,
                                exc.status, body)
        except Exception as exc:  # pragma: no cover - defensive
            err = ServiceError(f"internal error: {exc!r}")
            self._m_errors.inc(code=err.code)
            body = json.dumps(err.to_json_dict(), sort_keys=True) + "\n"
            return self._finish(request, route_label, started, 500, body)

    def _finish(self, request: _Request, route: str, started: float,
                status: int, body: str) -> Tuple[int, str]:
        self._m_requests.inc(method=request.method, route=route,
                             status=str(status))
        self._m_latency.observe(time.perf_counter() - started, route=route)
        return status, body

    def _authenticate(self, headers: Dict[str, str]) -> str:
        if not self.config.tokens:
            return self.config.default_tenant
        token = headers.get("x-dayu-token", "")
        if not token:
            auth = headers.get("authorization", "")
            if auth.lower().startswith("bearer "):
                token = auth[7:].strip()
        if not token:
            raise AuthRequired("missing bearer token")
        tenant = self.config.tokens.get(token)
        if tenant is None:
            raise AuthRequired("unknown token")
        return tenant

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def _state(self, tenant: str, run: str,
               create: bool = False) -> RunState:
        key = (tenant, run)
        state = self._states.get(key)
        if state is None:
            if self.store.run_exists(tenant, run):
                state = self._reload(tenant, run)
            elif create:
                state = RunState()
            else:
                raise UnknownRun(
                    f"unknown run {run!r} for tenant {tenant!r}",
                    tenant=tenant, run=run)
        self._keep(key, state)
        return state

    def _reload(self, tenant: str, run: str) -> RunState:
        """Rebuild a run's state from what the store durably holds."""
        self._m_reloads.inc(tenant=tenant)
        return RunState(self.store.load_profiles(tenant, run))

    def _keep(self, key: Tuple[str, str], state: RunState) -> None:
        """Hold ``state`` as the most recently used run; drop the least
        recently used ones beyond :data:`MAX_LIVE_RUNS`."""
        states = self._states
        states[key] = state
        states.move_to_end(key)
        while len(states) > MAX_LIVE_RUNS:
            states.popitem(last=False)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _h_healthz(self, request: _Request):
        return {"status": "ok"}

    def _h_metrics(self, request: _Request):
        return 200, self.metrics.render_prometheus()

    def _h_runs(self, request: _Request, tenant: str):
        # A listing reads live states where they are and the store where
        # they are not: it neither reorders nor refills the live set.
        runs = []
        for run in self.store.runs(tenant):
            state = self._states.get((tenant, run))
            if state is None:
                state = RunState(self.store.load_profiles(tenant, run))
            runs.append({"run": run, **state.summary()})
        quota = self.store.quota_for(tenant)
        return {
            "tenant": tenant,
            "runs": runs,
            "bytes_used": self.store.bytes_used(tenant),
            "quota": {"max_bytes": quota.max_bytes,
                      "max_runs": quota.max_runs},
        }

    def _h_run_info(self, request: _Request, tenant: str, run: str):
        state = self._state(tenant, run)
        return {"run": run, **state.summary()}

    def _h_upload(self, request: _Request, tenant: str, run: str):
        self.store.run_dir(tenant, run)  # validate names before decoding
        payload = request.body
        try:
            fmt = sniff_trace_format(payload, source="<upload>")
        except UnknownTraceFormat:
            raise TruncatedTrace(
                f"{len(payload)} byte(s) is too short to be a DaYu trace "
                "(need at least 4 bytes of magic; empty or truncated "
                "upload?)", size=len(payload))
        except RetiredTraceFormat as exc:
            raise RetiredTrace(str(exc), size=len(payload)) from exc
        try:
            if fmt == "columnar":
                profiles = columnar.decode_run(payload,
                                               with_io_records=False)
            else:
                profiles = [load_profile(payload, with_io_records=False)]
        except Exception as exc:
            raise MalformedTrace(
                f"payload sniffed as {fmt} but failed to decode: {exc}",
                format=fmt) from exc
        # Snapshot (or lazily recover) the state *before* the append
        # lands on disk, else the fold would see its own upload as a
        # pre-existing task and count it as a duplicate.
        key = (tenant, run)
        state = self._states.get(key)
        if state is None and self.store.run_exists(tenant, run):
            state = self._reload(tenant, run)
        receipt = self.store.append(tenant, run, payload, fmt)
        if state is None:
            state = RunState()
        self._keep(key, state)
        added = state.add_profiles(profiles)
        self._m_ingest_bytes.inc(len(payload), tenant=tenant)
        self._m_ingest_traces.inc(tenant=tenant)
        self._bump_gauges(tenant)
        if (self.config.compact_after
                and len(self.store.incoming(tenant, run))
                >= self.config.compact_after):
            self.store.compact(tenant, run)
        return {
            "run": run,
            "seq": receipt.seq,
            "format": fmt,
            "bytes": receipt.nbytes,
            "profiles": sorted(p.task for p in profiles),
            "added": added,
        }

    def _h_graph(self, request: _Request, tenant: str, run: str, kind: str):
        return 200, self._state(tenant, run).graph_json(kind)

    def _h_findings(self, request: _Request, tenant: str, run: str):
        state = self._state(tenant, run)
        return 200, state.findings_json(
            baseline=self.store.baseline(tenant),
            baseline_version=self.store.baseline_version(tenant))

    def _h_compact(self, request: _Request, tenant: str, run: str):
        if not self.store.run_exists(tenant, run):
            raise UnknownRun(f"unknown run {run!r} for tenant {tenant!r}",
                             tenant=tenant, run=run)
        nbytes = self.store.compact(tenant, run)
        return {"run": run, "compacted_bytes": nbytes,
                "bytes_used": self.store.bytes_used(tenant)}

    def _h_delete(self, request: _Request, tenant: str, run: str):
        freed = self.store.delete_run(tenant, run)
        self._states.pop((tenant, run), None)
        self._bump_gauges(tenant)
        return {"run": run, "freed_bytes": freed}

    def _h_get_baseline(self, request: _Request, tenant: str):
        path = self.store.baseline_path(tenant)
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        return 200, text

    def _h_put_baseline(self, request: _Request, tenant: str):
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequest(f"baseline must be UTF-8 text: {exc}")
        accepted = self.store.set_baseline(tenant, text)
        return {"fingerprints": accepted}


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line; a stream that ends mid-line is a cut-off request."""
    line = await reader.readline()
    if not line.endswith(b"\n"):
        raise asyncio.IncompleteReadError(line, None)
    return line


def _headers_too_large() -> HeadersTooLarge:
    return HeadersTooLarge(
        f"header block exceeds {MAX_HEADER_LINES} lines or "
        f"{MAX_HEADER_BYTES} bytes",
        max_lines=MAX_HEADER_LINES, max_bytes=MAX_HEADER_BYTES)


async def _read_fields(reader: asyncio.StreamReader) -> Dict[str, str]:
    """A header (or trailer) block up to its blank line, capped at
    :data:`MAX_HEADER_LINES` lines and :data:`MAX_HEADER_BYTES` bytes."""
    fields: Dict[str, str] = {}
    n_lines = n_bytes = 0
    while True:
        try:
            raw = await _read_line(reader)
        except ValueError:  # one line past the reader's buffer limit
            raise _headers_too_large() from None
        if raw in (b"\r\n", b"\n"):
            return fields
        n_lines += 1
        n_bytes += len(raw)
        if n_lines > MAX_HEADER_LINES or n_bytes > MAX_HEADER_BYTES:
            raise _headers_too_large()
        name, _, value = raw.decode("latin-1").partition(":")
        fields[name.strip().lower()] = value.strip()


class ServiceErrorWithStatus(ServiceError):
    """Ad-hoc typed error with an explicit status/code (405 etc.)."""

    def __init__(self, status: int, code: str, message: str,
                 **details: object) -> None:
        super().__init__(message, **details)
        self.status = status
        self.code = code
