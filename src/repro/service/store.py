"""The durable, multi-tenant run store behind ``dayu-serve``.

Disk layout, rooted at the service's ``--root`` directory::

    <root>/<tenant>/baseline              accepted-finding fingerprints
    <root>/<tenant>/runs/<run>/run.dayuc  compacted run file (atomic)
    <root>/<tenant>/runs/<run>/incoming/  one file per accepted upload
        000001.json / 000002.dayuc / ...

Durability contract: an upload is written to ``incoming/`` with
:func:`repro.ioutil.atomic_write_bytes` *before* the HTTP 200 is sent,
so every acknowledged trace survives ``kill -9``.  A writer killed
mid-upload leaves only a ``.tmp-*`` dropping, which the startup scan
garbage-collects.  Compaction folds ``run.dayuc`` + ``incoming/`` into a
fresh ``run.dayuc`` via the same
:func:`~repro.mapper.columnar.compact_profiles` the ``dayu-compact`` CLI
uses (itself atomic), then deletes the absorbed incoming files — a crash
between the two steps only leaves traces that are *also* in the run
file, and :meth:`load_profiles` deduplicates by task on recovery, so a
restarted server rebuilds exactly the state it acknowledged.

Tenancy: every byte is namespaced under one tenant; quotas
(:class:`TenantQuota`) cap stored bytes and live runs per tenant, and
the per-tenant ``baseline`` file suppresses accepted lint findings the
same way ``dayu-lint --baseline`` does.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.ioutil import atomic_write_bytes, atomic_write_text, is_tmp_dropping
from repro.service.errors import BadName, QuotaExceeded, UnknownRun

__all__ = ["TenantQuota", "StoredTrace", "RunStore", "NAME_RE"]

#: Allowed tenant and run identifiers (also safe path components).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Extension per sniffed wire format.
_EXT = {"json": ".json", "columnar": ".dayuc"}

#: The compacted run file inside a run directory.
RUN_FILE = "run.dayuc"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource caps (``None`` = unlimited)."""

    max_bytes: Optional[int] = None
    max_runs: Optional[int] = None


@dataclass(frozen=True)
class StoredTrace:
    """Receipt for one durably accepted upload."""

    tenant: str
    run: str
    seq: int
    format: str
    nbytes: int
    path: str


def _validate(name: str, what: str) -> str:
    if not NAME_RE.match(name or ""):
        raise BadName(f"bad {what} {name!r}: must match {NAME_RE.pattern}",
                      **{what: name})
    return name


class RunStore:
    """Filesystem-backed tenant/run trace storage with quotas.

    All methods are synchronous and are called from the service event
    loop between awaits (or from recovery before serving), so per-run
    sequence counters and byte accounting never race.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        default_quota: TenantQuota = TenantQuota(),
        quotas: Optional[Dict[str, TenantQuota]] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        # tenant -> stored bytes (incoming + run files); kept incremental.
        self._bytes: Dict[str, int] = {}
        # (tenant, run) -> next incoming sequence number.
        self._seq: Dict[tuple, int] = {}
        # tenant -> baseline file version (bumped on set_baseline; lets
        # run states invalidate rendered findings caches).
        self._baseline_version: Dict[str, int] = {}
        self.scan()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def tenant_dir(self, tenant: str) -> Path:
        return self.root / _validate(tenant, "tenant")

    def run_dir(self, tenant: str, run: str) -> Path:
        return self.tenant_dir(tenant) / "runs" / _validate(run, "run")

    def incoming_dir(self, tenant: str, run: str) -> Path:
        return self.run_dir(tenant, run) / "incoming"

    def run_file(self, tenant: str, run: str) -> Path:
        return self.run_dir(tenant, run) / RUN_FILE

    # ------------------------------------------------------------------
    # Startup scan / recovery
    # ------------------------------------------------------------------
    def scan(self) -> None:
        """(Re)build byte and sequence accounting from disk.

        Garbage-collects ``.tmp-*`` droppings left by writers that died
        before their atomic rename; everything else is authoritative.
        """
        self._bytes.clear()
        self._seq.clear()
        for tenant in self.tenants():
            total = 0
            for run in self.runs(tenant):
                rdir = self.run_dir(tenant, run)
                run_file = rdir / RUN_FILE
                if run_file.exists():
                    total += run_file.stat().st_size
                max_seq = 0
                inc = rdir / "incoming"
                if inc.is_dir():
                    for p in sorted(inc.iterdir()):
                        if is_tmp_dropping(p.name):
                            p.unlink(missing_ok=True)
                            continue
                        total += p.stat().st_size
                        try:
                            max_seq = max(max_seq, int(p.stem))
                        except ValueError:
                            continue
                self._seq[(tenant, run)] = max_seq + 1
            self._bytes[tenant] = total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and NAME_RE.match(p.name))

    def runs(self, tenant: str) -> List[str]:
        runs = self.tenant_dir(tenant) / "runs"
        if not runs.is_dir():
            return []
        return sorted(p.name for p in runs.iterdir()
                      if p.is_dir() and NAME_RE.match(p.name))

    def bytes_used(self, tenant: str) -> int:
        return self._bytes.get(tenant, 0)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def incoming(self, tenant: str, run: str) -> List[Path]:
        inc = self.incoming_dir(tenant, run)
        if not inc.is_dir():
            return []
        return sorted(p for p in inc.iterdir()
                      if not is_tmp_dropping(p.name))

    def run_exists(self, tenant: str, run: str) -> bool:
        return self.run_dir(tenant, run).is_dir()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append(self, tenant: str, run: str, payload: bytes,
               fmt: str) -> StoredTrace:
        """Durably accept one upload (already sniffed as ``fmt``).

        Enforces the tenant's quotas *before* touching disk and writes
        the incoming file atomically; when this returns, the trace
        survives any crash.
        """
        quota = self.quota_for(tenant)
        used = self.bytes_used(tenant)
        if quota.max_bytes is not None and used + len(payload) > quota.max_bytes:
            raise QuotaExceeded(
                f"tenant {tenant!r} byte quota exceeded: "
                f"{used} + {len(payload)} > {quota.max_bytes}",
                tenant=tenant, used_bytes=used, upload_bytes=len(payload),
                max_bytes=quota.max_bytes)
        new_run = not self.run_exists(tenant, run)
        if new_run and quota.max_runs is not None:
            n_runs = len(self.runs(tenant))
            if n_runs + 1 > quota.max_runs:
                raise QuotaExceeded(
                    f"tenant {tenant!r} run quota exceeded: "
                    f"{n_runs} + 1 > {quota.max_runs}",
                    tenant=tenant, runs=n_runs, max_runs=quota.max_runs)

        inc = self.incoming_dir(tenant, run)
        inc.mkdir(parents=True, exist_ok=True)
        seq = self._seq.get((tenant, run), 1)
        path = inc / f"{seq:06d}{_EXT[fmt]}"
        atomic_write_bytes(path, payload)
        self._seq[(tenant, run)] = seq + 1
        self._bytes[tenant] = used + len(payload)
        return StoredTrace(tenant=tenant, run=run, seq=seq, format=fmt,
                           nbytes=len(payload), path=str(path))

    # ------------------------------------------------------------------
    # Load / compact
    # ------------------------------------------------------------------
    def load_profiles(self, tenant: str, run: str,
                      with_io_records: bool = False) -> List:
        """Every profile of a run — compacted file plus incoming files —
        in the service's canonical total order: ``(start time, task)``.

        Each task counts once: the compacted copy wins over incoming
        files (covers a crash between compaction's rename and its
        incoming cleanup), and among incoming files the earliest
        sequence number wins (re-uploading a task is idempotent).
        """
        from repro.mapper.persist import load_profiles_path

        if not self.run_exists(tenant, run):
            raise UnknownRun(f"unknown run {run!r} for tenant {tenant!r}",
                             tenant=tenant, run=run)
        profiles: List = []
        seen_tasks: Set[str] = set()
        run_file = self.run_file(tenant, run)
        if run_file.exists():
            profiles = load_profiles_path(str(run_file),
                                          with_io_records=with_io_records)
            seen_tasks = {p.task for p in profiles}
        for path in self.incoming(tenant, run):
            for p in load_profiles_path(str(path),
                                        with_io_records=with_io_records):
                if p.task in seen_tasks:
                    continue
                seen_tasks.add(p.task)
                profiles.append(p)
        profiles.sort(key=lambda p: (p.span.start, p.task))
        return profiles

    def compact(self, tenant: str, run: str) -> int:
        """Fold incoming files into ``run.dayuc``; returns bytes written.

        The new run file is written atomically before any incoming file
        is removed, so a crash at any point loses nothing.  Returns 0 if
        there was nothing new to absorb.
        """
        from repro.mapper.columnar import compact_profiles

        incoming = self.incoming(tenant, run)
        if not incoming:
            return 0
        # Full fidelity: compaction must preserve per-op records for
        # byte-exact lint even though graph queries never read them.
        profiles = self.load_profiles(tenant, run, with_io_records=True)
        run_file = self.run_file(tenant, run)
        old = run_file.stat().st_size if run_file.exists() else 0
        nbytes = compact_profiles(profiles, str(run_file))
        freed = old
        for path in incoming:
            freed += path.stat().st_size
            path.unlink()
        self._bytes[tenant] = self.bytes_used(tenant) - freed + nbytes
        return nbytes

    def delete_run(self, tenant: str, run: str) -> int:
        """Remove a run and free its quota; returns bytes freed."""
        import shutil

        rdir = self.run_dir(tenant, run)
        if not rdir.is_dir():
            raise UnknownRun(f"unknown run {run!r} for tenant {tenant!r}",
                             tenant=tenant, run=run)
        freed = sum(p.stat().st_size for p in rdir.rglob("*") if p.is_file())
        shutil.rmtree(rdir)
        self._bytes[tenant] = max(self.bytes_used(tenant) - freed, 0)
        self._seq.pop((tenant, run), None)
        return freed

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def baseline_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / "baseline"

    def baseline(self, tenant: str) -> Set[str]:
        """The tenant's accepted-finding fingerprints (empty when unset)."""
        from repro.lint.engine import parse_baseline

        path = self.baseline_path(tenant)
        if not path.exists():
            return set()
        return parse_baseline(path.read_text(encoding="utf-8"))

    def set_baseline(self, tenant: str, text: str) -> int:
        """Install a tenant baseline (``dayu-lint`` baseline format);
        returns the number of fingerprints accepted."""
        from repro.lint.engine import parse_baseline

        fingerprints = parse_baseline(text)
        self.tenant_dir(tenant).mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.baseline_path(tenant), text)
        self._baseline_version[tenant] = self.baseline_version(tenant) + 1
        return len(fingerprints)

    def baseline_version(self, tenant: str) -> int:
        return self._baseline_version.get(tenant, 0)
