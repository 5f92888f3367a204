"""Tests for ``repro.service`` — the streaming ingest + query plane.

Covers the atomic-write helpers (:mod:`repro.ioutil`), the durable
multi-tenant :class:`RunStore`, the deterministic :class:`RunState`
fold, the HTTP surface end to end (via a real server on an ephemeral
port), and the acceptance property: seeded interleavings of N
concurrent uploading clients produce FTG/SDG/findings byte-identical
to the offline ``dayu-compact`` + ``dayu-analyze`` pipeline — including
after a simulated ``kill -9`` and restart.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import ioutil
from repro.cli import analyze_main, run_main
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.mapper.compact import compact_main
from repro.mapper.persist import load_profiles_from_host_dir
from repro.posix import SimFS
from repro.service import DayuService, RunState, RunStore, ServiceConfig, TenantQuota
from repro.service.client import ServiceClient, ServiceClientError, client_main
from repro.service.errors import BadName, QuotaExceeded, UnknownRun
from repro.service.loadgen import percentile, run_load
from repro.simclock import SimClock
from repro.storage import Mount, make_device

#: Magic of the retired row-binary trace format plus a few frame bytes.
RETIRED_TRACE = b"DYU1\x02\x01\x00"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ddmd(tmp_path_factory):
    """A small ddmd run plus its offline reference artifacts:
    ``dayu-compact`` over the traces, then ``dayu-analyze
    --graph-json --lint`` over the compacted run."""
    base = tmp_path_factory.mktemp("ddmd")
    traces = base / "traces"
    assert run_main(["ddmd", "--out", str(traces), "--scale", "0.25",
                     "--nodes", "2"]) == 0
    compacted = base / "compacted"
    compacted.mkdir()
    assert compact_main([str(traces), "--out",
                         str(compacted / "run.dayuc")]) == 0
    ref = base / "ref"
    assert analyze_main([str(compacted), "--out", str(ref),
                         "--graph-json", "--lint"]) == 0
    return {
        "traces": traces,
        "ftg": (ref / "ftg.json").read_bytes(),
        "sdg": (ref / "sdg.json").read_bytes(),
        "lint": (ref / "lint.json").read_bytes(),
    }


@pytest.fixture()
def small_profiles():
    """Three tiny profiles with distinct spans (producer/consumer/reader)."""
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    mapper = DataSemanticMapper(clock, DaYuConfig())
    with mapper.task("producer") as ctx:
        f = ctx.open(fs, "/d.h5", "w")
        f.create_dataset("x", shape=(64,), dtype="f8", layout="chunked",
                         chunks=(16,), data=np.arange(64.0))
        f.close()
    with mapper.task("consumer") as ctx:
        f = ctx.open(fs, "/d.h5", "r")
        f["x"].read()
        f.close()
    with mapper.task("reader") as ctx:
        f = ctx.open(fs, "/d.h5", "r")
        f["x"].read()
        f.close()
    return list(mapper.profiles.values())


class ServiceThread:
    """Run a :class:`DayuService` event loop in a background thread so
    synchronous test code (and the async load generator, on its own
    loop) can talk to a real listening socket."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = DayuService(config)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.host = self.port = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self.host, self.port = self._loop.run_until_complete(
            self.service.start())
        self._ready.set()
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"
        return self

    def stop(self, compact: bool = False) -> None:
        """Graceful stop; ``compact=False`` leaves the store exactly as
        acknowledged — the closest a test gets to ``kill -9``."""
        fut = asyncio.run_coroutine_threadsafe(
            self.service.stop(compact=compact), self._loop)
        fut.result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)

    def client(self, token=None) -> ServiceClient:
        return ServiceClient(self.host, self.port, token=token)


@pytest.fixture()
def server(tmp_path):
    st = ServiceThread(ServiceConfig(root=str(tmp_path / "store"),
                                     compact_after=0)).start()
    yield st
    st.stop()


def start_daemon(store: Path, port_file: Path, log: Path):
    """Start ``python -m repro.service.cli`` as its own process; returns
    it with the port it announced through ``--port-file``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", str(store),
             "--port-file", str(port_file)],
            cwd=str(Path(__file__).resolve().parents[1]),
            env=env, stdout=out, stderr=subprocess.STDOUT)
    deadline = time.time() + 30
    while not port_file.exists():  # written atomically once bound
        if proc.poll() is not None or time.time() > deadline:
            stop_daemon(proc)
            raise AssertionError("dayu-serve did not come up:\n"
                                 + log.read_text())
        time.sleep(0.05)
    return proc, int(port_file.read_text())


def stop_daemon(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


# ----------------------------------------------------------------------
# ioutil: atomic writers
# ----------------------------------------------------------------------
class TestAtomicWriters:
    def test_text_bytes_json_round_trip(self, tmp_path):
        ioutil.atomic_write_text(tmp_path / "a.txt", "hi\n")
        assert (tmp_path / "a.txt").read_text() == "hi\n"
        ioutil.atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        ioutil.atomic_write_json(tmp_path / "c.json", {"b": 1, "a": 2},
                                 sort_keys=True)
        text = (tmp_path / "c.json").read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_no_tmp_droppings_after_success(self, tmp_path):
        ioutil.atomic_write_text(tmp_path / "a.txt", "x")
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["a.txt"]

    def test_unserializable_json_leaves_no_file(self, tmp_path):
        target = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            ioutil.atomic_write_json(target, {"x": {1, 2}})
        assert not target.exists()
        assert not any(ioutil.is_tmp_dropping(p.name)
                       for p in tmp_path.iterdir())

    def test_replace_is_atomic_over_existing(self, tmp_path):
        target = tmp_path / "a.txt"
        ioutil.atomic_write_text(target, "old")
        ioutil.atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_is_tmp_dropping(self):
        assert ioutil.is_tmp_dropping(".tmp-abc123")
        assert not ioutil.is_tmp_dropping("run.dayuc")


# ----------------------------------------------------------------------
# RunStore
# ----------------------------------------------------------------------
class TestRunStore:
    def test_append_sequences_and_accounting(self, tmp_path, small_profiles):
        store = RunStore(tmp_path / "s")
        p = small_profiles[0]
        r1 = store.append("t", "r", p.serialize(), "json")
        r2 = store.append("t", "r", p.serialize_columnar(), "columnar")
        assert (r1.seq, r2.seq) == (1, 2)
        assert r1.path.endswith("000001.json")
        assert r2.path.endswith("000002.dayuc")
        assert store.bytes_used("t") == r1.nbytes + r2.nbytes

    def test_byte_quota_rejects_before_disk(self, tmp_path, small_profiles):
        store = RunStore(tmp_path / "s",
                         default_quota=TenantQuota(max_bytes=10))
        payload = small_profiles[0].serialize()
        with pytest.raises(QuotaExceeded) as exc:
            store.append("t", "r", payload, "json")
        assert exc.value.details["max_bytes"] == 10
        assert store.bytes_used("t") == 0
        assert not store.run_exists("t", "r")

    def test_run_quota(self, tmp_path, small_profiles):
        store = RunStore(tmp_path / "s",
                         default_quota=TenantQuota(max_runs=1))
        payload = small_profiles[0].serialize()
        store.append("t", "r1", payload, "json")
        with pytest.raises(QuotaExceeded):
            store.append("t", "r2", payload, "json")
        store.append("t", "r1", payload, "json")  # existing run still OK

    def test_bad_names_rejected(self, tmp_path):
        store = RunStore(tmp_path / "s")
        with pytest.raises(BadName):
            store.append("t", "../escape", b"{}", "json")
        with pytest.raises(BadName):
            store.append("bad/tenant", "r", b"{}", "json")

    def test_scan_gc_and_seq_resume(self, tmp_path, small_profiles):
        root = tmp_path / "s"
        store = RunStore(root)
        payload = small_profiles[0].serialize()
        store.append("t", "r", payload, "json")
        store.append("t", "r", small_profiles[1].serialize(),
                     "json")
        # A writer died mid-upload: only its tmp dropping remains.
        dropping = store.incoming_dir("t", "r") / ".tmp-deadbeef"
        dropping.write_bytes(b"partial")
        reopened = RunStore(root)
        assert not dropping.exists()
        receipt = reopened.append("t", "r",
                                  small_profiles[2].serialize(),
                                  "json")
        assert receipt.seq == 3
        assert reopened.bytes_used("t") == store.bytes_used("t") \
            + receipt.nbytes

    def test_duplicate_task_dedup(self, tmp_path, small_profiles):
        store = RunStore(tmp_path / "s")
        payload = small_profiles[0].serialize()
        store.append("t", "r", payload, "json")
        store.append("t", "r", payload, "json")
        profiles = store.load_profiles("t", "r")
        assert [p.task for p in profiles] == [small_profiles[0].task]

    def test_compact_preserves_profiles_and_shrinks(self, tmp_path,
                                                    small_profiles):
        store = RunStore(tmp_path / "s")
        for p in small_profiles:
            store.append("t", "r", p.serialize(), "json")
        before = {p.task for p in store.load_profiles("t", "r")}
        used_before = store.bytes_used("t")
        nbytes = store.compact("t", "r")
        assert nbytes > 0
        assert store.incoming("t", "r") == []
        assert store.run_file("t", "r").exists()
        assert {p.task for p in store.load_profiles("t", "r")} == before
        assert store.bytes_used("t") == nbytes < used_before
        assert store.compact("t", "r") == 0  # nothing new

    def test_crash_between_compact_and_cleanup(self, tmp_path,
                                               small_profiles):
        """run.dayuc written but incoming not yet deleted: every task
        still counts exactly once (run file wins)."""
        store = RunStore(tmp_path / "s")
        payload = small_profiles[0].serialize()
        store.append("t", "r", payload, "json")
        store.compact("t", "r")
        # Re-materialize the absorbed incoming file, as if the crash
        # happened between the rename and the unlink.
        leftover = store.incoming_dir("t", "r") / "000001.json"
        leftover.write_bytes(payload)
        reopened = RunStore(tmp_path / "s")
        profiles = reopened.load_profiles("t", "r")
        assert [p.task for p in profiles] == [small_profiles[0].task]

    def test_delete_run_frees_quota(self, tmp_path, small_profiles):
        store = RunStore(tmp_path / "s")
        store.append("t", "r", small_profiles[0].serialize(),
                     "json")
        freed = store.delete_run("t", "r")
        assert freed > 0
        assert store.bytes_used("t") == 0
        with pytest.raises(UnknownRun):
            store.load_profiles("t", "r")

    def test_baseline_round_trip_and_version(self, tmp_path):
        store = RunStore(tmp_path / "s")
        assert store.baseline("t") == set()
        assert store.baseline_version("t") == 0
        n = store.set_baseline("t", "abc123  # DY103 foo\n")
        assert n == 1
        assert store.baseline("t") == {"abc123"}
        assert store.baseline_version("t") == 1


# ----------------------------------------------------------------------
# RunState determinism
# ----------------------------------------------------------------------
class TestRunState:
    def test_any_arrival_order_same_bytes(self, ddmd):
        profiles = load_profiles_from_host_dir(str(ddmd["traces"]),
                                               with_io_records=False)
        reference = RunState(sorted(profiles,
                                    key=lambda p: (p.span.start, p.task)))
        ref_ftg = reference.graph_json("ftg")
        ref_sdg = reference.graph_json("sdg")
        ref_findings = reference.findings_json()
        for seed in range(5):
            shuffled = list(profiles)
            random.Random(seed).shuffle(shuffled)
            state = RunState()
            # Deliver in uneven chunks, like interleaved uploads.
            rng = random.Random(seed + 100)
            i = 0
            while i < len(shuffled):
                n = rng.randint(1, 3)
                state.add_profiles(shuffled[i:i + n])
                i += n
            assert state.graph_json("ftg") == ref_ftg, f"seed {seed}"
            assert state.graph_json("sdg") == ref_sdg, f"seed {seed}"
            assert state.findings_json() == ref_findings, f"seed {seed}"

    def test_each_profile_folded_and_linted_once(self, ddmd, monkeypatch):
        from collections import Counter

        import repro.lint.engine as engine
        from repro.analyzer.graphs import GraphBuilder

        profiles = load_profiles_from_host_dir(str(ddmd["traces"]),
                                               with_io_records=False)
        random.Random(7).shuffle(profiles)
        # What a from-scratch fold of each upload prefix answers.
        expected = []
        for i in range(1, len(profiles) + 1):
            fresh = RunState(sorted(profiles[:i],
                                    key=lambda p: (p.span.start, p.task)))
            expected.append((fresh.graph_json("ftg"),
                             fresh.graph_json("sdg"),
                             fresh.findings_json()))

        folds, linted = Counter(), Counter()
        add_profile = GraphBuilder.add_profile
        run_profile_rules = engine.run_profile_rules

        def counting_add(self, profile, key=None):
            folds[self.kind, profile.task] += 1
            return add_profile(self, profile, key=key)

        def counting_rules(profile, config):
            linted[profile.task] += 1
            return run_profile_rules(profile, config)

        monkeypatch.setattr(GraphBuilder, "add_profile", counting_add)
        monkeypatch.setattr(engine, "run_profile_rules", counting_rules)
        state = RunState()
        for profile, answers in zip(profiles, expected):
            state.add_profiles([profile])
            assert (state.graph_json("ftg"), state.graph_json("sdg"),
                    state.findings_json()) == answers, profile.task
        tasks = [p.task for p in profiles]
        assert folds == Counter({(kind, task): 1 for kind in ("ftg", "sdg")
                                 for task in tasks})
        assert linted == Counter(tasks)
        assert state.graph_json("sdg").encode() == ddmd["sdg"]
        assert state.findings_json().encode() == ddmd["lint"]

    def test_findings_memo_follows_baseline(self, ddmd):
        profiles = load_profiles_from_host_dir(str(ddmd["traces"]),
                                               with_io_records=False)
        state = RunState(profiles)
        plain = state.findings_json()
        report = json.loads(plain)
        assert report["findings"], "expected lint findings"
        fingerprint = report["findings"][0]["fingerprint"]
        after = json.loads(state.findings_json(baseline={fingerprint},
                                               baseline_version=1))
        assert after["suppressed"] == [fingerprint]
        assert fingerprint not in {f["fingerprint"]
                                   for f in after["findings"]}
        # A cleared baseline is a new version: nothing suppressed again.
        assert state.findings_json(baseline=set(),
                                   baseline_version=2) == plain

    def test_duplicate_tasks_ignored(self, small_profiles):
        state = RunState(small_profiles)
        v = state.version
        assert state.add_profiles(small_profiles) == 0
        assert state.version == v

    def test_incremental_matches_refold(self, small_profiles):
        ordered = sorted(small_profiles,
                         key=lambda p: (p.span.start, p.task))
        # In-order: pure incremental fold, no rebuild.
        inc = RunState()
        for p in ordered:
            inc.add_profiles([p])
        # Reverse order: every add lands before the folded prefix.
        rev = RunState()
        for p in reversed(ordered):
            rev.add_profiles([p])
        assert inc.graph_json("ftg") == rev.graph_json("ftg")
        assert inc.graph_json("sdg") == rev.graph_json("sdg")


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class TestServiceHttp:
    def test_healthz_and_unknown_endpoint(self, server):
        with server.client() as c:
            assert c.healthz() == {"status": "ok"}
            with pytest.raises(ServiceClientError) as exc:
                c._json("GET", "/nope")
            assert exc.value.status == 404
            assert exc.value.code == "not-found"

    def test_upload_all_three_formats(self, server, small_profiles):
        # JSON and columnar are accepted; the retired row-binary format
        # gets its own typed 400 and stores nothing.
        with server.client() as c:
            p1, p2, p3 = small_profiles
            r = c.upload("r", p1.serialize())
            assert (r["format"], r["added"]) == ("json", 1)
            with pytest.raises(ServiceClientError) as exc:
                c.upload("r", RETIRED_TRACE)
            assert exc.value.status == 400
            assert exc.value.code == "retired-trace-format"
            r = c.upload("r", p3.serialize_columnar())
            assert (r["format"], r["added"]) == ("columnar", 1)
            info = c.run_info("r")
            assert info["profiles"] == 2
            assert info["tasks"] == sorted([p1.task, p3.task])

    def test_truncated_upload_typed_error(self, server):
        with server.client() as c:
            for payload in (b"", b"DY"):
                with pytest.raises(ServiceClientError) as exc:
                    c.upload("r", payload)
                assert exc.value.status == 400
                assert exc.value.code == "unknown-trace-format"
                assert exc.value.details["size"] == len(payload)
            # Nothing was stored for the rejected uploads.
            assert c.runs()["runs"] == []

    def test_malformed_upload_typed_error(self, server):
        with server.client() as c:
            with pytest.raises(ServiceClientError) as exc:
                c.upload("r", b"DYC1garbage-after-magic")
            assert exc.value.code == "malformed-trace"
            assert exc.value.details["format"] == "columnar"
            assert c.runs()["bytes_used"] == 0

    def test_chunked_upload_equivalent(self, server, small_profiles):
        with server.client() as c:
            payload = small_profiles[0].serialize()
            r = c.upload("r", payload, chunked=True)
            assert r["added"] == 1 and r["bytes"] == len(payload)
            # Same trace re-uploaded plainly: stored, but folds to 0 new.
            assert c.upload("r", payload)["added"] == 0

    def test_unknown_run_and_bad_name(self, server):
        with server.client() as c:
            with pytest.raises(ServiceClientError) as exc:
                c.graph("ghost", "ftg")
            assert exc.value.code == "unknown-run"
            with pytest.raises(ServiceClientError) as exc:
                c.upload("..", b"{}")
            assert exc.value.code == "bad-name"

    def test_method_not_allowed(self, server):
        with server.client() as c:
            with pytest.raises(ServiceClientError) as exc:
                c._json("DELETE", "/runs")
            assert exc.value.status == 405

    def test_metrics_exposition(self, server, small_profiles):
        with server.client() as c:
            c.upload("r", small_profiles[0].serialize())
            c.graph("r", "ftg")
            text = c.metrics()
        samples = {}
        for line in text.splitlines():
            assert line.startswith(("#", "dayu_")), line
            if not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        assert samples['dayu_service_ingest_traces_total{tenant="public"}'] \
            == 1.0
        assert any(k.startswith("dayu_service_requests_total")
                   for k in samples)
        assert any(k.startswith("dayu_service_request_seconds_bucket")
                   for k in samples)

    def test_delete_run(self, server, small_profiles):
        with server.client() as c:
            c.upload("r", small_profiles[0].serialize())
            assert c.delete("r")["freed_bytes"] > 0
            with pytest.raises(ServiceClientError) as exc:
                c.run_info("r")
            assert exc.value.code == "unknown-run"


def _raw_exchange(server, data: bytes, timeout: float = 5.0):
    """Send ``data`` on a fresh connection, half-close it, and read until
    the server closes.  Returns ``(status, json_body)`` of the first
    response, or ``None`` when the server closed without answering."""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        received = b""
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server stopped reading early: its answer may be queued
        try:
            while True:
                part = sock.recv(65536)
                if not part:
                    break
                received += part
        except ConnectionResetError:
            pass
    if not received:
        return None
    head, _, rest = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                  if line.lower().startswith("content-length:"))
    return status, json.loads(rest[:length])


def _upload_request(body: bytes, chunked: bool) -> bytes:
    head = "POST /runs/fuzz/traces HTTP/1.1\r\nHost: dayu\r\n"
    if not chunked:
        return (head + f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    frames = b"".join(b"%x\r\n%s\r\n" % (len(body[i:i + 64]), body[i:i + 64])
                      for i in range(0, len(body), 64))
    return (head + "Transfer-Encoding: chunked\r\n\r\n").encode() \
        + frames + b"0\r\n\r\n"


class TestHttpFuzz:
    """Mutated uploads over a real connection: every one is answered
    with a typed JSON 4xx or a closed connection, never a hang, a 2xx
    or a crashed server."""

    @staticmethod
    def _mutations(body: bytes, seed: int):
        rng = random.Random(seed)
        for chunked in (False, True):
            full = _upload_request(body, chunked)
            # Truncation at (and one byte around) every CRLF, plus a few
            # seeded cuts inside the body.
            cuts = set()
            at = full.find(b"\r\n")
            while at != -1:
                cuts.update((at, at + 1, at + 2))
                at = full.find(b"\r\n", at + 2)
            start = full.index(b"\r\n\r\n") + 4
            cuts.update(rng.randrange(start, len(full)) for _ in range(8))
            for cut in sorted(c for c in cuts if 0 < c < len(full)):
                yield f"truncated-{'chunked' if chunked else 'plain'}@{cut}", \
                    full[:cut]
        head = b"POST /runs/fuzz/traces HTTP/1.1\r\n"
        n_lines = rng.randrange(101, 3000)
        yield "header-line-flood", head + b"".join(
            b"X-Pad-%d: x\r\n" % i for i in range(n_lines)) + b"\r\n" + body
        yield "header-byte-flood", head + b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"y" * 2000) for i in range(9)) \
            + b"\r\n" + body
        for size in (b"zz", b"-5", b"", b" ", b"1" * 20,
                     b"%x" % rng.randrange(1 << 40, 1 << 60)):
            yield f"chunk-size-{size[:8]!r}", head \
                + b"Transfer-Encoding: chunked\r\n\r\n" + size + b"\r\n" \
                + body[:16] + b"\r\n0\r\n\r\n"
        for length in (b"-1", b"abc", b"%d" % rng.randrange(1 << 40, 1 << 62),
                       b"%d" % (len(body) + 10)):
            yield f"content-length-{length[:8]!r}", head \
                + b"Content-Length: " + length + b"\r\n\r\n" + body
        chunked_req = _upload_request(body, True)
        first_frame_end = chunked_req.index(b"\r\n", chunked_req.index(
            b"\r\n\r\n") + 4) + 2 + 64
        yield "chunk-crlf-replaced", chunked_req[:first_frame_end] + b"XX" \
            + chunked_req[first_frame_end + 2:]
        yield "chunk-crlf-missing", chunked_req[:first_frame_end] \
            + chunked_req[first_frame_end + 2:]
        yield "no-blank-line", head \
            + b"Content-Length: %d\r\n" % len(body) + body
        yield "trailer-flood", chunked_req[:-2] + b"".join(
            b"X-Trailer-%d: z\r\n" % i for i in range(200)) + b"\r\n"

    def test_mutated_uploads_get_typed_4xx_or_close(self, server,
                                                    small_profiles):
        body = small_profiles[0].serialize()
        assert len(body) > 200  # several 64-byte chunks
        seen = set()
        for label, data in self._mutations(body, seed=17):
            started = time.monotonic()
            reply = _raw_exchange(server, data)
            assert time.monotonic() - started < 5.0, label
            if reply is None:
                seen.add("closed")
                continue
            status, payload = reply
            assert 400 <= status < 500, (label, status, payload)
            assert isinstance(payload.get("error"), str), (label, payload)
            seen.add(payload["error"])
        # Each guard fired at least once, and nothing was stored.
        assert {"closed", "bad-request", "headers-too-large",
                "payload-too-large"} <= seen
        with server.client() as c:
            assert c.healthz() == {"status": "ok"}
            assert c.runs()["runs"] == []

    def test_header_caps_answer_431(self, server):
        for data in (b"GET /healthz HTTP/1.1\r\n"
                     + b"X-A: b\r\n" * 101 + b"\r\n",
                     b"GET /healthz HTTP/1.1\r\n"
                     + (b"X-A: " + b"b" * 4000 + b"\r\n") * 5 + b"\r\n",
                     b"GET /healthz HTTP/1.1\r\n"
                     + b"X-A: " + b"b" * 70_000 + b"\r\n\r\n"):
            status, payload = _raw_exchange(server, data)
            assert status == 431
            assert payload["error"] == "headers-too-large"
        # At the caps the request is still served.
        status, payload = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 100
            + b"\r\n")
        assert (status, payload) == (200, {"status": "ok"})

    def test_bad_chunk_terminator_rejected(self, server):
        data = (b"POST /runs/fuzz/traces HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"4\r\nDYC1XX0\r\n\r\n")
        status, payload = _raw_exchange(server, data)
        assert status == 400 and payload["error"] == "bad-request"
        assert "CRLF" in payload["message"]


def test_stalled_requests_answer_408_within_deadline(server, monkeypatch):
    """Clients that send upload headers plus 3 of 100 promised body
    bytes, then stall, get a JSON 408 (or a closed connection) once the
    request deadline passes; the server keeps serving and stores
    nothing."""
    from repro.service import app

    deadline = 0.5
    monkeypatch.setattr(app, "REQUEST_DEADLINE_S", deadline)
    stalled = []
    for _ in range(20):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=deadline + 4.0)
        sock.sendall(b"POST /runs/stall/traces HTTP/1.1\r\n"
                     b"Content-Length: 100\r\n\r\nDYC")
        stalled.append(sock)
    started = time.monotonic()
    for sock in stalled:
        with sock:
            received = b""
            while True:
                part = sock.recv(65536)
                if not part:
                    break
                received += part
        if received:
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408 "), head
            assert json.loads(body)["error"] == "request-timeout"
    assert time.monotonic() - started < deadline + 2.0
    with server.client() as c:
        assert c.healthz() == {"status": "ok"}
        assert c.runs()["runs"] == []


def test_stop_closes_live_connections(tmp_path):
    """``stop()`` closes an idle keep-alive connection and a stalled
    upload before it compacts: it returns within 1 s, both clients read
    EOF, and no connection handler is left on the loop."""
    st = ServiceThread(ServiceConfig(root=str(tmp_path / "store"),
                                     compact_after=0)).start()
    loop = st._loop

    async def other_tasks():
        return [t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()]

    def live_tasks():
        return asyncio.run_coroutine_threadsafe(other_tasks(), loop).result(5)

    def handlers():
        return [t for t in live_tasks()
                if t.get_coro().__name__ == "_handle_conn"]

    idle = socket.create_connection((st.host, st.port), timeout=2.0)
    stalled = socket.create_connection((st.host, st.port), timeout=2.0)
    try:
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: dayu\r\n\r\n")
        received = b""
        while b"\r\n\r\n" not in received:
            received += idle.recv(65536)
        assert received.startswith(b"HTTP/1.1 200 "), received
        head, _, body = received.partition(b"\r\n\r\n")
        length = next(int(line.split(b":", 1)[1])
                      for line in head.split(b"\r\n")[1:]
                      if line.lower().startswith(b"content-length:"))
        while len(body) < length:
            body += idle.recv(65536)
        stalled.sendall(b"POST /runs/stall/traces HTTP/1.1\r\n"
                        b"Content-Length: 100\r\n\r\nDYC")
        deadline = time.monotonic() + 5.0
        while len(handlers()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(handlers()) == 2

        started = time.monotonic()
        asyncio.run_coroutine_threadsafe(
            st.service.stop(compact=True), loop).result(5)
        assert time.monotonic() - started < 1.0
        for sock in (idle, stalled):
            assert sock.recv(65536) == b""
        assert live_tasks() == []
    finally:
        idle.close()
        stalled.close()
        loop.call_soon_threadsafe(loop.stop)
        st._thread.join(10)


class TestTenancy:
    @pytest.fixture()
    def multi(self, tmp_path):
        config = ServiceConfig(
            root=str(tmp_path / "store"),
            tokens={"tok-a": "alice", "tok-b": "bob"},
            quotas={"bob": TenantQuota(max_bytes=100)},
            compact_after=0)
        st = ServiceThread(config).start()
        yield st
        st.stop()

    def test_auth_required_and_unknown_token(self, multi):
        with multi.client() as c:
            with pytest.raises(ServiceClientError) as exc:
                c.runs()
            assert exc.value.status == 401
        with multi.client(token="wrong") as c:
            with pytest.raises(ServiceClientError) as exc:
                c.runs()
            assert exc.value.code == "unauthorized"

    def test_tenants_are_isolated(self, multi, small_profiles):
        with multi.client(token="tok-a") as alice:
            alice.upload("r", small_profiles[0].serialize())
            assert [r["run"] for r in alice.runs()["runs"]] == ["r"]
        with multi.client(token="tok-b") as bob:
            assert bob.runs()["runs"] == []
            with pytest.raises(ServiceClientError) as exc:
                bob.graph("r", "ftg")
            assert exc.value.code == "unknown-run"

    def test_per_tenant_quota(self, multi, small_profiles):
        payload = small_profiles[0].serialize()
        with multi.client(token="tok-b") as bob:
            with pytest.raises(ServiceClientError) as exc:
                bob.upload("r", payload)
            assert exc.value.status == 413
            assert exc.value.code == "quota-exceeded"
        # Alice's default quota is unlimited.
        with multi.client(token="tok-a") as alice:
            assert alice.upload("r", payload)["added"] == 1

    def test_per_tenant_baseline_suppression(self, multi, ddmd):
        with multi.client(token="tok-a") as alice:
            for path in sorted(ddmd["traces"].iterdir()):
                alice.upload("ddmd", path.read_bytes())
            report = json.loads(alice.findings("ddmd"))
            assert report["findings"], "expected lint findings"
            fingerprint = report["findings"][0]["fingerprint"]
            alice.set_baseline(f"{fingerprint}  # accepted\n")
            after = json.loads(alice.findings("ddmd"))
            assert fingerprint in after["suppressed"]
            assert fingerprint not in {f["fingerprint"]
                                       for f in after["findings"]}
            assert alice.baseline().startswith(fingerprint)
        # Bob's view of the same fingerprints is unaffected (his quota
        # blocks uploads, so just check his baseline is independent).
        with multi.client(token="tok-b") as bob:
            assert bob.baseline() == ""


# ----------------------------------------------------------------------
# Acceptance: concurrent ingest determinism + recovery
# ----------------------------------------------------------------------
class TestByteIdentity:
    def _assert_identical(self, client, run, ddmd):
        assert client.graph(run, "ftg").encode() == ddmd["ftg"]
        assert client.graph(run, "sdg").encode() == ddmd["sdg"]
        assert client.findings(run).encode() == ddmd["lint"]

    def test_concurrent_clients_match_offline(self, server, ddmd):
        payloads = [p.read_bytes()
                    for p in sorted(ddmd["traces"].iterdir())]
        for seed, clients in ((0, 2), (1, 4), (2, 6)):
            run = f"run-seed{seed}"
            jobs = [(run, payload) for payload in payloads]
            random.Random(seed).shuffle(jobs)
            result = run_load(server.host, server.port, jobs,
                              clients=clients)
            assert result.errors == 0
            assert result.uploads == len(payloads)
            assert result.queries == 3 * len(payloads)
            with server.client() as c:
                self._assert_identical(c, run, ddmd)

    def test_dropped_run_reloads_offline_bytes(self, server, ddmd):
        """More runs than :data:`MAX_LIVE_RUNS`: only the most recent
        stay in memory, and a dropped run is rebuilt from the store on
        its next query with the offline bytes.  Uploads and queries of
        live runs never reload."""
        from repro.service.app import MAX_LIVE_RUNS

        service = server.service
        reloads = service.metrics.get("dayu_service_state_reloads_total")
        payloads = [p.read_bytes()
                    for p in sorted(ddmd["traces"].iterdir())]
        runs = [f"run-{i:02d}" for i in range(MAX_LIVE_RUNS + 2)]
        with server.client() as c:
            for run in runs:
                for payload in payloads:
                    c.upload(run, payload)
                c.graph(run, "ftg")
            assert list(service._states) == [
                ("public", run) for run in runs[-MAX_LIVE_RUNS:]]
            assert reloads.value(tenant="public") == 0
            self._assert_identical(c, runs[0], ddmd)
            assert reloads.value(tenant="public") == 1
            assert len(service._states) == MAX_LIVE_RUNS
            assert next(reversed(service._states)) == ("public", runs[0])
            self._assert_identical(c, runs[-1], ddmd)
            assert reloads.value(tenant="public") == 1

    def test_run_listing_leaves_live_runs_alone(self, server, ddmd):
        """``GET /runs`` over more than :data:`MAX_LIVE_RUNS` runs
        summarises every run without reloading a dropped one into
        memory or reordering the live ones."""
        from repro.service.app import MAX_LIVE_RUNS

        service = server.service
        reloads = service.metrics.get("dayu_service_state_reloads_total")
        payloads = [p.read_bytes()
                    for p in sorted(ddmd["traces"].iterdir())]
        runs = [f"run-{i:02d}" for i in range(MAX_LIVE_RUNS + 2)]
        with server.client() as c:
            for run in runs:
                for payload in payloads:
                    c.upload(run, payload)
            live = list(service._states)
            assert live == [("public", run) for run in runs[-MAX_LIVE_RUNS:]]
            for _ in range(2):
                rows = c.runs()["runs"]
                assert [r["run"] for r in rows] == runs
                assert len(rows[-1]["tasks"]) == len(payloads)
                assert all(r["tasks"] == rows[-1]["tasks"] for r in rows)
                assert list(service._states) == live
            assert reloads.value(tenant="public") == 0
            c.graph(runs[-1], "ftg")
            assert reloads.value(tenant="public") == 0

    def test_kill_and_restart_recovers_every_run(self, tmp_path, ddmd):
        root = str(tmp_path / "store")
        payloads = [p.read_bytes()
                    for p in sorted(ddmd["traces"].iterdir())]
        first = ServiceThread(ServiceConfig(root=root,
                                            compact_after=0)).start()
        with first.client() as c:
            for payload in payloads:
                c.upload("full", payload)
            for payload in payloads:
                c.upload("compacted", payload)
            c.compact("compacted")
        # No graceful compaction pass: the store holds exactly what was
        # acknowledged, as after kill -9.
        first.stop(compact=False)

        second = ServiceThread(ServiceConfig(root=root,
                                             compact_after=0)).start()
        try:
            with second.client() as c:
                names = [r["run"] for r in c.runs()["runs"]]
                assert names == ["compacted", "full"]
                self._assert_identical(c, "full", ddmd)
                self._assert_identical(c, "compacted", ddmd)
        finally:
            second.stop()

    def test_daemon_matches_offline_and_survives_sigkill(self, tmp_path,
                                                         ddmd):
        """A real ``dayu-serve`` process under four concurrent clients
        serves the offline bytes and counts every trace in ``/metrics``;
        killed with SIGKILL and restarted on the same store, it serves
        the same bytes again."""
        store = tmp_path / "store"
        payloads = [p.read_bytes()
                    for p in sorted(ddmd["traces"].iterdir())]
        jobs = [("live", payload) for payload in payloads]
        random.Random(42).shuffle(jobs)
        proc, port = start_daemon(store, tmp_path / "port",
                                  tmp_path / "serve.log")
        try:
            result = run_load("127.0.0.1", port, jobs, clients=4)
            assert result.errors == 0
            with ServiceClient("127.0.0.1", port) as c:
                self._assert_identical(c, "live", ddmd)
                samples = {}
                for line in c.metrics().splitlines():
                    assert line.startswith(("#", "dayu_")), line
                    if not line.startswith("#"):
                        name, value = line.rsplit(" ", 1)
                        samples[name] = float(value)
            assert samples['dayu_service_ingest_traces_total'
                           '{tenant="public"}'] == len(payloads)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            stop_daemon(proc)

        proc, port = start_daemon(store, tmp_path / "port2",
                                  tmp_path / "serve.log")
        try:
            with ServiceClient("127.0.0.1", port) as c:
                assert [r["run"] for r in c.runs()["runs"]] == ["live"]
                self._assert_identical(c, "live", ddmd)
        finally:
            stop_daemon(proc)

    def test_auto_compaction_preserves_identity(self, tmp_path, ddmd):
        st = ServiceThread(ServiceConfig(root=str(tmp_path / "store"),
                                         compact_after=3)).start()
        try:
            with st.client() as c:
                for p in sorted(ddmd["traces"].iterdir()):
                    c.upload("r", p.read_bytes())
                # 6 uploads with compact_after=3: incoming was folded.
                assert len(st.service.store.incoming("public", "r")) < 6
                self._assert_identical(c, "r", ddmd)
        finally:
            st.stop()


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
class TestClientCli:
    def test_upload_get_round_trip(self, server, ddmd, tmp_path, capsys):
        url = f"http://{server.host}:{server.port}"
        assert client_main([url, "upload", "r",
                            str(ddmd["traces"])]) == 0
        out = capsys.readouterr().out
        assert "done: 6 trace(s)" in out
        out_file = tmp_path / "ftg.json"
        assert client_main([url, "get", "r", "ftg",
                            "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == ddmd["ftg"]
        assert client_main([url, "runs"]) == 0
        assert '"r"' in capsys.readouterr().out
        assert client_main([url, "metrics"]) == 0
        assert "dayu_service_ingest_bytes_total" in capsys.readouterr().out
        assert client_main([url, "compact", "r"]) == 0

    def test_missing_trace_path_exits_2(self, server, tmp_path, capsys):
        url = f"http://{server.host}:{server.port}"
        assert client_main([url, "upload", "r",
                            str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_server_rejection_exits_1(self, server, tmp_path, capsys):
        url = f"http://{server.host}:{server.port}"
        bad = tmp_path / "bad.dayuc"
        bad.write_bytes(b"DY")
        assert client_main([url, "upload", "r", str(bad)]) == 1
        assert "unknown-trace-format" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        assert client_main(["http://127.0.0.1:1", "runs"]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestRetiredTraceFormat:
    def test_row_binary_trace_rejected_everywhere(self, server, tmp_path,
                                                  capsys):
        """A retired row-binary trace gets one typed error, naming the
        file, from every reader: exit 2 from dayu-analyze, dayu-lint and
        dayu-compact, and a 400 from dayu-serve."""
        from repro.lint.cli import lint_main

        traces = tmp_path / "traces"
        traces.mkdir()
        path = traces / "t0.dayu"
        path.write_bytes(RETIRED_TRACE)
        for prog, main, argv in (
                ("dayu-analyze", analyze_main,
                 [str(traces), "--out", str(tmp_path / "g")]),
                ("dayu-lint", lint_main, [str(traces)]),
                ("dayu-compact", compact_main,
                 [str(traces), "--out", str(tmp_path / "run.dayuc")])):
            assert main(argv) == 2, prog
            err = capsys.readouterr().err
            assert err.startswith(f"{prog}: {path}: ")
            assert "retired format" in err
        with server.client() as c:
            with pytest.raises(ServiceClientError) as exc:
                c.upload("r", RETIRED_TRACE)
            assert exc.value.status == 400
            assert exc.value.code == "retired-trace-format"
            assert c.runs()["runs"] == []


class TestServeCli:
    def test_daemon_lifecycle(self, tmp_path, ddmd):
        proc, port = start_daemon(tmp_path / "store", tmp_path / "port",
                                  tmp_path / "serve.log")
        try:
            with ServiceClient("127.0.0.1", port) as c:
                assert c.healthz() == {"status": "ok"}
                trace = next(iter(sorted(ddmd["traces"].iterdir())))
                assert c.upload("r", trace.read_bytes())["added"] == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            # Graceful shutdown compacted the run.
            store = RunStore(tmp_path / "store")
            assert store.run_file("public", "r").exists()
            assert store.incoming("public", "r") == []
        finally:
            stop_daemon(proc)

    def test_bad_token_file_exits_with_diagnosis(self, tmp_path):
        from repro.service.cli import serve_main

        with pytest.raises(SystemExit) as exc:
            serve_main([str(tmp_path / "store"), "--tokens",
                        str(tmp_path / "missing.json")])
        assert "cannot read token map" in str(exc.value)


class TestLoadgenHelpers:
    def test_percentile_nearest_rank(self):
        assert percentile([], 99) == 0.0
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
