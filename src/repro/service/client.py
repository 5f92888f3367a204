"""``dayu-client`` — upload traces to and query a running ``dayu-serve``.

The Python surface is :class:`ServiceClient` (synchronous, one
keep-alive connection, stdlib ``http.client``); the CLI wraps it::

    dayu-client URL upload RUN TRACE...      # files or trace directories
    dayu-client URL runs
    dayu-client URL get RUN {ftg|sdg|findings|info} [--out FILE]
    dayu-client URL compact RUN
    dayu-client URL delete RUN
    dayu-client URL baseline [--set FILE]
    dayu-client URL metrics

``--token`` authenticates (sent as ``Authorization: Bearer``);
``--chunked`` streams uploads with chunked transfer-encoding instead of
``Content-Length``.  Errors follow the repo-wide exit-code table: bad
usage or unreadable inputs exit 2 with a one-line diagnosis, a server
rejection exits 1 with the server's typed error code.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["ServiceClient", "ServiceClientError", "client_main"]

_CHUNK = 64 * 1024


class ServiceClientError(Exception):
    """A non-2xx reply; carries the server's typed error."""

    def __init__(self, status: int, code: str, message: str,
                 details: Optional[dict] = None) -> None:
        super().__init__(f"[{status}] {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.details = details or {}


def _chunks(data: bytes) -> Iterator[bytes]:
    for off in range(0, len(data), _CHUNK):
        yield data[off:off + _CHUNK]


class ServiceClient:
    """Synchronous client over one keep-alive HTTP connection."""

    def __init__(self, host: str, port: int,
                 token: Optional[str] = None, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.token = token
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    @classmethod
    def from_url(cls, url: str, token: Optional[str] = None,
                 timeout: float = 30.0) -> "ServiceClient":
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// service URLs supported, "
                             f"got {url!r}")
        return cls(parts.hostname or "127.0.0.1", parts.port or 80,
                   token=token, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 chunked: bool = False) -> Tuple[int, bytes]:
        headers: Dict[str, str] = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if chunked and body is not None:
            headers["Transfer-Encoding"] = "chunked"
            self._conn.request(method, path, body=_chunks(body),
                               headers=headers, encode_chunked=True)
        else:
            self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        return response.status, payload

    def _json(self, method: str, path: str, body: Optional[bytes] = None,
              chunked: bool = False) -> dict:
        status, payload = self._request(method, path, body, chunked)
        if status >= 300:
            raise self._error(status, payload)
        return json.loads(payload)

    def _text(self, method: str, path: str) -> str:
        status, payload = self._request(method, path)
        if status >= 300:
            raise self._error(status, payload)
        return payload.decode("utf-8")

    @staticmethod
    def _error(status: int, payload: bytes) -> ServiceClientError:
        try:
            doc = json.loads(payload)
            return ServiceClientError(status, doc.get("error", "unknown"),
                                      doc.get("message", ""),
                                      doc.get("details"))
        except (ValueError, AttributeError):
            return ServiceClientError(status, "unknown",
                                      payload.decode("utf-8", "replace"))

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def upload(self, run: str, payload: bytes,
               chunked: bool = False) -> dict:
        """Upload one serialized trace (json/.dayuc bytes)."""
        return self._json("POST", f"/runs/{run}/traces", payload,
                          chunked=chunked)

    def runs(self) -> dict:
        return self._json("GET", "/runs")

    def run_info(self, run: str) -> dict:
        return self._json("GET", f"/runs/{run}")

    def graph(self, run: str, kind: str) -> str:
        """Canonical ``ftg``/``sdg`` JSON text, exactly as served."""
        return self._text("GET", f"/runs/{run}/{kind}")

    def findings(self, run: str) -> str:
        return self._text("GET", f"/runs/{run}/findings")

    def compact(self, run: str) -> dict:
        return self._json("POST", f"/runs/{run}/compact")

    def delete(self, run: str) -> dict:
        return self._json("DELETE", f"/runs/{run}")

    def metrics(self) -> str:
        return self._text("GET", "/metrics")

    def baseline(self) -> str:
        return self._text("GET", "/baseline")

    def set_baseline(self, text: str) -> dict:
        return self._json("PUT", "/baseline", text.encode("utf-8"))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _collect_traces(specs: List[str]) -> List[Path]:
    from repro.mapper.persist import TRACE_SUFFIXES

    out: List[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            found = sorted(q for q in p.iterdir()
                           if q.suffix in TRACE_SUFFIXES)
            if not found:
                raise FileNotFoundError(
                    f"no saved profiles (*.json/*.dayuc) in {spec!r}")
            out.extend(found)
        elif p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"trace path {spec!r} does not exist")
    return out


def client_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dayu-client",
        description="Upload traces to and query a dayu-serve daemon.")
    parser.add_argument("url", help="service URL, e.g. http://127.0.0.1:8423")
    parser.add_argument("--token", default=None,
                        help="bearer token (selects the tenant)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_upload = sub.add_parser("upload", help="upload trace files or dirs")
    p_upload.add_argument("run")
    p_upload.add_argument("traces", nargs="+",
                          help="trace files or directories of traces")
    p_upload.add_argument("--chunked", action="store_true",
                          help="stream with chunked transfer-encoding")

    sub.add_parser("runs", help="list this tenant's runs")

    p_get = sub.add_parser("get", help="fetch a run artifact")
    p_get.add_argument("run")
    p_get.add_argument("kind", choices=["ftg", "sdg", "findings", "info"])
    p_get.add_argument("--out", default=None,
                       help="write to FILE (atomic) instead of stdout")

    p_compact = sub.add_parser("compact", help="compact a run's store")
    p_compact.add_argument("run")

    p_delete = sub.add_parser("delete", help="delete a run")
    p_delete.add_argument("run")

    p_base = sub.add_parser("baseline", help="get or set the lint baseline")
    p_base.add_argument("--set", dest="set_file", default=None,
                        metavar="FILE", help="install baseline from FILE")

    sub.add_parser("metrics", help="scrape /metrics")

    args = parser.parse_args(argv)

    try:
        client = ServiceClient.from_url(args.url, token=args.token)
    except ValueError as exc:
        print(f"dayu-client: {exc}", file=sys.stderr)
        return 2

    try:
        with client:
            return _run_command(client, args)
    except ServiceClientError as exc:
        print(f"dayu-client: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"dayu-client: cannot reach {args.url}: {exc}",
              file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"dayu-client: {exc}", file=sys.stderr)
        return 2


def _run_command(client: ServiceClient, args: argparse.Namespace) -> int:
    if args.command == "upload":
        paths = _collect_traces(args.traces)
        total = 0
        for path in paths:
            receipt = client.upload(args.run, path.read_bytes(),
                                    chunked=args.chunked)
            total += receipt["bytes"]
            print(f"uploaded {path.name}: seq={receipt['seq']} "
                  f"format={receipt['format']} "
                  f"profiles={len(receipt['profiles'])} "
                  f"added={receipt['added']}")
        print(f"done: {len(paths)} trace(s), {total} bytes")
        return 0
    if args.command == "runs":
        print(json.dumps(client.runs(), indent=2, sort_keys=True))
        return 0
    if args.command == "get":
        if args.kind == "info":
            text = json.dumps(client.run_info(args.run), indent=2,
                              sort_keys=True) + "\n"
        elif args.kind == "findings":
            text = client.findings(args.run)
        else:
            text = client.graph(args.run, args.kind)
        if args.out:
            from repro.ioutil import atomic_write_text

            atomic_write_text(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.command == "compact":
        print(json.dumps(client.compact(args.run), indent=2, sort_keys=True))
        return 0
    if args.command == "delete":
        print(json.dumps(client.delete(args.run), indent=2, sort_keys=True))
        return 0
    if args.command == "baseline":
        if args.set_file:
            path = Path(args.set_file)
            if not path.is_file():
                raise FileNotFoundError(
                    f"baseline file {args.set_file!r} does not exist")
            result = client.set_baseline(path.read_text(encoding="utf-8"))
            print(f"installed baseline: {result['fingerprints']} "
                  "fingerprint(s)")
        else:
            sys.stdout.write(client.baseline())
        return 0
    if args.command == "metrics":
        sys.stdout.write(client.metrics())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(client_main())
