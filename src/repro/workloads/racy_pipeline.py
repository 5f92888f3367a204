"""The racy-pipeline workload: DY5xx race-detector ground truth.

Every scenario the happens-before rule family (:mod:`repro.lint.race`)
must classify, seeded deliberately and nothing else:

- **true WAW race** — ``jet_a`` and ``jet_b`` each (re)create ``/jets``
  in the same file from the same parallel stage, no reads anywhere, so
  neither the dependency DAG nor the schedule orders them.  DY501 must
  convict with an overlap and a reorder witness.
- **barrier-masked WAW race** — ``mask_early`` (produce stage) and
  ``mask_late`` (refine stage) both rewrite ``/mask``.  The stage
  barrier orders them as executed, but no dataflow dependency does:
  DY501 still convicts, and the pair appears in the DY504
  schedule-sensitivity report as a must-preserve edge.
- **disjoint-selection trap** — ``half_lo`` / ``half_hi`` write
  byte-disjoint halves of ``/field`` (declared via hyperslab
  selections).  Unordered, yes — but provably non-overlapping, so DY501
  must *downgrade* to a warning, not convict.
- **read-write race** — ``probe`` reads ``/series`` in the produce
  stage; ``amend`` read-modify-writes it one barrier later.  Nothing
  dataflow-orders probe's read against amend's write: DY502.
- **metadata race** — ``grow_log`` resizes ``/log`` (pure metadata
  mutation) while ``shape_probe`` reads its data in the same stage:
  DY503.
- **retry-exposed race** — ``bump_state`` read-modify-writes
  ``/state`` and, under :func:`racy_fault_spec`, loses its first
  attempt to a transient device error.  The retry succeeds, but the
  attempt history (``WorkflowResult.attempts``) proves the update is
  non-idempotent under replay: DY505, given ``--attempts``.

The init tasks write every pre-existing file *with data* and the
consumers read them, so all intended orderings are dependency-carried in
both the trace-derived DAG and the static contract DAG — the seeded
races are the **only** dependency-concurrent conflicts, which is what
makes the workload a ground-truth fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.spec import DeviceFault, FaultSpec
from repro.workflow.contracts import (
    TaskContract,
    creates,
    reads,
    resizes,
    writes,
)
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import TaskRuntime

__all__ = ["RacyParams", "build_racy_pipeline", "racy_fault_spec"]


@dataclass(frozen=True)
class RacyParams:
    """Racy-pipeline configuration.

    Attributes:
        data_dir: Shared-mount directory for all files.
        elems: Elements per dataset (``/field`` gets twice this so the
            halves split evenly).
    """

    data_dir: str = "/beegfs/racy"
    elems: int = 1024

    def __post_init__(self) -> None:
        if self.elems < 2:
            raise ValueError("racy-pipeline needs at least 2 elements")

    @property
    def waw_path(self) -> str:
        return f"{self.data_dir}/waw.h5"

    @property
    def mask_path(self) -> str:
        return f"{self.data_dir}/mask.h5"

    @property
    def disjoint_path(self) -> str:
        return f"{self.data_dir}/disjoint.h5"

    @property
    def rw_path(self) -> str:
        return f"{self.data_dir}/rw.h5"

    @property
    def meta_path(self) -> str:
        return f"{self.data_dir}/meta.h5"

    @property
    def retry_path(self) -> str:
        return f"{self.data_dir}/retry.h5"

    @property
    def field_elems(self) -> int:
        return 2 * (self.elems // 2) * 2  # even split, twice the base


def build_racy_pipeline(params: RacyParams | None = None) -> Workflow:
    """setup → produce (parallel) → refine (parallel) → final."""
    from repro.hdf5 import Selection

    p = params or RacyParams()
    n = p.elems
    half = p.field_elems // 2

    def _filler(seed: int, count: int) -> np.ndarray:
        return np.random.default_rng(seed).random(count, dtype=np.float32)

    # -- setup: every pre-existing file, written with data so the
    # consumers' reads become dependency edges ------------------------
    def init_meta(rt: TaskRuntime) -> None:
        f = rt.open(p.meta_path, "w")
        f.create_dataset("/log", shape=(n,), dtype="f4", layout="chunked",
                         chunks=(max(n // 8, 1),), data=_filler(1, n))
        f.close()

    def init_state(rt: TaskRuntime) -> None:
        f = rt.open(p.retry_path, "w")
        f.create_dataset("/state", shape=(n,), dtype="f4",
                         data=_filler(2, n))
        f.close()

    def init_series(rt: TaskRuntime) -> None:
        f = rt.open(p.rw_path, "w")
        f.create_dataset("/series", shape=(n,), dtype="f4",
                         data=_filler(3, n))
        f.close()

    # -- produce -------------------------------------------------------
    def jet_writer(seed: int):
        def fn(rt: TaskRuntime) -> None:
            f = rt.open(p.waw_path, "w")
            f.create_dataset("/jets", shape=(n,), dtype="f4",
                             data=_filler(seed, n))
            f.close()
        return fn

    def mask_writer(seed: int):
        def fn(rt: TaskRuntime) -> None:
            f = rt.open(p.mask_path, "w")
            f.create_dataset("/mask", shape=(n,), dtype="f4",
                             data=_filler(seed, n))
            f.close()
        return fn

    def probe(rt: TaskRuntime) -> None:
        f = rt.open(p.rw_path, "r")
        f["/series"].read()
        f.close()

    # -- refine --------------------------------------------------------
    def half_writer(seed: int, start: int):
        def fn(rt: TaskRuntime) -> None:
            f = rt.open(p.disjoint_path, "w")
            ds = f.create_dataset("/field", shape=(p.field_elems,),
                                  dtype="f4")
            ds.write(_filler(seed, half),
                     Selection.hyperslab(((start, half),)))
            f.close()
        return fn

    def shape_probe(rt: TaskRuntime) -> None:
        f = rt.open(p.meta_path, "r")
        f["/log"].read()
        f.close()

    def grow_log(rt: TaskRuntime) -> None:
        f = rt.open(p.meta_path, "r+")
        f["/log"].resize((2 * n,))
        f.close()

    def amend(rt: TaskRuntime) -> None:
        f = rt.open(p.rw_path, "r+")
        series = f["/series"].read()
        f["/series"].write(np.asarray(series, dtype=np.float32) * 0.5)
        f.close()

    def bump_state(rt: TaskRuntime) -> None:
        f = rt.open(p.retry_path, "r+")
        state = f["/state"].read()
        f["/state"].write(np.asarray(state, dtype=np.float32) + 1.0)
        f.close()

    # -- final ---------------------------------------------------------
    def audit_state(rt: TaskRuntime) -> None:
        f = rt.open(p.retry_path, "r")
        f["/state"].read()
        f.close()

    def _full(op, path: str, dataset: str):
        return op(path, dataset, elements=n)

    return Workflow("racy_pipeline", [
        Stage("setup", [
            Task("racy_init_meta", init_meta, contract=TaskContract.declare(
                creates(p.meta_path, "/log", shape=(n,), dtype="f4",
                        layout="chunked", elements=n))),
            Task("racy_init_state", init_state,
                 contract=TaskContract.declare(
                     creates(p.retry_path, "/state", shape=(n,),
                             dtype="f4", elements=n))),
            Task("racy_init_series", init_series,
                 contract=TaskContract.declare(
                     creates(p.rw_path, "/series", shape=(n,),
                             dtype="f4", elements=n))),
        ], parallel=False),
        Stage("produce", [
            Task("racy_jet_a", jet_writer(11),
                 contract=TaskContract.declare(
                     creates(p.waw_path, "/jets", shape=(n,), dtype="f4",
                             elements=n))),
            Task("racy_jet_b", jet_writer(12),
                 contract=TaskContract.declare(
                     creates(p.waw_path, "/jets", shape=(n,), dtype="f4",
                             elements=n))),
            Task("racy_mask_early", mask_writer(13),
                 contract=TaskContract.declare(
                     creates(p.mask_path, "/mask", shape=(n,), dtype="f4",
                             elements=n))),
            Task("racy_probe", probe, contract=TaskContract.declare(
                _full(reads, p.rw_path, "/series"))),
        ]),
        Stage("refine", [
            Task("racy_mask_late", mask_writer(14),
                 contract=TaskContract.declare(
                     creates(p.mask_path, "/mask", shape=(n,), dtype="f4",
                             elements=n))),
            Task("racy_half_lo", half_writer(15, 0),
                 contract=TaskContract.declare(
                     creates(p.disjoint_path, "/field",
                             shape=(p.field_elems,), dtype="f4",
                             elements=0),
                     writes(p.disjoint_path, "/field", elements=half,
                            select=((0, half),)))),
            Task("racy_half_hi", half_writer(16, half),
                 contract=TaskContract.declare(
                     creates(p.disjoint_path, "/field",
                             shape=(p.field_elems,), dtype="f4",
                             elements=0),
                     writes(p.disjoint_path, "/field", elements=half,
                            select=((half, half),)))),
            Task("racy_shape_probe", shape_probe,
                 contract=TaskContract.declare(
                     _full(reads, p.meta_path, "/log"))),
            # The conditional read models the resize consulting the
            # current shape — it carries the init_meta → grow_log
            # dependency in the static DAG exactly as the superblock
            # read does in the traced one, without promising raw I/O.
            Task("racy_grow_log", grow_log, contract=TaskContract.declare(
                resizes(p.meta_path, "/log", shape=(2 * n,)),
                reads(p.meta_path, "/log", conditional=True))),
            Task("racy_amend", amend, contract=TaskContract.declare(
                _full(reads, p.rw_path, "/series"),
                _full(writes, p.rw_path, "/series"))),
            Task("racy_bump_state", bump_state,
                 contract=TaskContract.declare(
                     _full(reads, p.retry_path, "/state"),
                     _full(writes, p.retry_path, "/state"))),
        ]),
        Stage("final", [
            Task("racy_audit_state", audit_state,
                 contract=TaskContract.declare(
                     _full(reads, p.retry_path, "/state"))),
        ], parallel=False),
    ])


def racy_fault_spec(params: RacyParams | None = None,
                    backoff: float = 0.25,
                    n_nodes: int = 2) -> FaultSpec:
    """The fault plan that makes ``bump_state`` lose its first attempt.

    A deterministic fault-free dry run (same cluster shape, same
    simulated clock) locates ``bump_state``'s execution window; the spec
    then opens a ``rate=1.0`` transient *write* fault on ``retry.h5``
    over exactly that window.  Attempt one's state write lands inside it
    and fails; the retry, pushed past the window end by the ``backoff``
    wait, succeeds.  Nothing else writes the file inside the window
    (``audit_state`` only reads), so exactly one task retries.

    Pair with ``RetryPolicy(backoff_base=backoff)`` (and a backoff
    factor ≥ 1) on the runner that consumes this spec.
    """
    from repro.cluster.configs import gpu_cluster
    from repro.mapper.config import DaYuConfig
    from repro.mapper.mapper import DataSemanticMapper
    from repro.simclock import SimClock
    from repro.workflow.dscheduler import DataflowRunner

    p = params or RacyParams()
    clock = SimClock()
    cluster = gpu_cluster(clock, n_nodes=n_nodes)
    mapper = DataSemanticMapper(clock, DaYuConfig())
    runner = DataflowRunner(cluster, mapper, placement="round_robin")
    result = runner.run(build_racy_pipeline(p))
    span = result.profiles["racy_bump_state"].span
    margin = 0.2 * backoff
    if span.end - span.start + margin >= backoff:
        raise ValueError(
            "bump_state runs longer than the retry backoff; the fault "
            "window cannot separate the two attempts — raise backoff")
    return FaultSpec(seed=11, device_faults=(
        DeviceFault(p.retry_path, "transient", rate=1.0, ops="write",
                    start=span.start, end=span.end + margin),
    ))
