"""Every simulated output of the traced I/O stack, pinned by digest.

A speed-up of the HDF5 → VOL → VFD → POSIX stack (or of the clock,
devices and mapper beneath it) must not move one simulated second, one
account addition or one trace byte.  Each case runs one bundled
workload in process and hashes its canonical outputs:

- every task profile's saved JSON and columnar bytes, in save order;
- the ``WorkflowResult`` JSON;
- ``SimClock.now`` and ``repr(sorted(accounts().items()))``;
- the POSIX ``op_log`` (op, path, offset, nbytes, start, cost, device);
- with the monitor on, the ``series.json``, ``alerts.json`` and
  ``bus.json`` bytes ``dayu-monitor`` would write.

The digests were recorded before the stack's per-operation cost was
cut; a faster stack must reproduce every one.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.common import fresh_env
from repro.workloads.registry import WORKLOADS, build_workload

SCALE = 0.05


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _monitor_artifacts(monitor) -> dict:
    """The bytes ``dayu-monitor`` writes for series, alerts and bus."""
    confirmed = {f.fingerprint for f in monitor.findings}
    return {
        "series.json": json.dumps(monitor.dynamics.to_json_dict(), indent=2),
        "alerts.json": json.dumps([
            {"time": a.time, "retracted": a.retracted,
             "confirmed": a.finding.fingerprint in confirmed,
             **a.finding.to_json_dict()}
            for a in monitor.alerts], indent=2),
        "bus.json": json.dumps(monitor.bus.stats(), indent=2),
    }


def canonical_outputs(workload: str, scale: float = SCALE, *,
                      deps: str = "stage", placement: str = "round_robin",
                      monitor: bool = False, faults=None,
                      retry: int = 0) -> dict:
    """Run ``workload`` once and return the digest of each output."""
    env = fresh_env(n_nodes=2, monitor=monitor)
    env.runner.placement = placement
    env.runner.dependency_mode = deps
    workflow, prepare = build_workload(workload, scale)
    if prepare is not None:
        prepare(env.cluster)
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector

        emit = env.monitor.publish if env.monitor is not None else None
        injector = FaultInjector(faults, env.cluster, emit=emit).arm()
        env.runner.faults = injector
    if retry:
        from repro.workflow.runner import RetryPolicy

        env.runner.retry_policy = RetryPolicy(max_attempts=retry + 1)
    result = env.runner.run(workflow)
    if env.monitor is not None:
        env.monitor.finish()
    if injector is not None:
        injector.disarm()

    json_h, columnar_h = hashlib.sha256(), hashlib.sha256()
    for name, profile in env.mapper.profiles.items():
        for h, payload in ((json_h, profile.serialize()),
                           (columnar_h, profile.serialize_columnar())):
            h.update(name.encode() + b"\0")
            h.update(payload)
    op_log = json.dumps([
        [r.op, r.path, r.offset, r.nbytes, r.start, r.cost, r.device]
        for r in env.cluster.fs.op_log]).encode()
    out = {
        "traces.json": json_h.hexdigest(),
        "traces.dayuc": columnar_h.hexdigest(),
        "result.json": _sha(json.dumps(result.to_json_dict(),
                                       sort_keys=True).encode()),
        "clock.now": repr(env.clock.now),
        "accounts": _sha(repr(sorted(env.clock.accounts().items())).encode()),
        "op_log": _sha(op_log),
    }
    if env.monitor is not None:
        out.update((name, _sha(text.encode())) for name, text
                   in _monitor_artifacts(env.monitor).items())
    return out


def _chaos_run() -> dict:
    from repro.workloads.chaos import ChaosParams, chaos_fault_spec

    spec = chaos_fault_spec(ChaosParams(), rate=0.10, seed=7)
    return canonical_outputs("chaos", 1.0, faults=spec, retry=2)


_MODES = {
    "stage": {},
    "stage-monitor": {"monitor": True},
    "dataflow-locality": {"deps": "dataflow", "placement": "locality"},
}

_CASES = {
    **{f"{w}/{mode}": (lambda w=w, kw=kw: canonical_outputs(w, **kw))
       for w in WORKLOADS for mode, kw in _MODES.items()},
    "chaos-seed7-retry2": _chaos_run,
    "pyflextrkr-1.0/stage-monitor":
        lambda: canonical_outputs("pyflextrkr", 1.0, monitor=True),
}


def case_digest(case: str) -> str:
    """One SHA-256 over the case's per-output digests."""
    return _sha(json.dumps(_CASES[case](), sort_keys=True).encode())


#: Recorded before the traced I/O stack's per-operation cost was cut.
_DIGESTS = {
    "arldm/dataflow-locality":
        "cb679971082fbac1c39da309afed809c3ed8f2559746f24cc9ac074d30f1143e",
    "arldm/stage":
        "cb679971082fbac1c39da309afed809c3ed8f2559746f24cc9ac074d30f1143e",
    "arldm/stage-monitor":
        "579c81caca378730f46c73deaed264d8524dbf773d09e6ce7cc7a253c509bd25",
    "chaos-seed7-retry2":
        "9ba5b5ccc17577c3b6c7c2f61c3c0061c55b1e23530b3c1c3d5bfbf2c430cbac",
    "chaos/dataflow-locality":
        "a368a98c075efe0caeab4ba1ae11889834d5fd1afcaba2d04444dd6b05364826",
    "chaos/stage":
        "9b7de48e477de40e9d299738102f30111e61e3cfd3fc1388628c0727616a1c20",
    "chaos/stage-monitor":
        "f3e3a8ae18cdb326066826af7016033b25b6fe18018d9d60568aa886ce5f9bfe",
    "climate/dataflow-locality":
        "a4958824a12da4399cda6c0c5bdd2f8af382df2d87fad29e7356249001ed546c",
    "climate/stage":
        "d387d8611f62a507cceff4d8763e475c7fdde06d3975554fd66683eeda0fbaee",
    "climate/stage-monitor":
        "0936a3e6ac59c8d6d36e13d55c441466010cca6591d799dda88fe196ddebd42e",
    "corner-hazards/dataflow-locality":
        "397c9f039c650939f9b16eec7d394474f6d9c645d450ced0cbed7018602d848a",
    "corner-hazards/stage":
        "714d18e2a71f267ff333a2b3419244bcbb3c8b26bcf830ed9b1defdb495f1f2b",
    "corner-hazards/stage-monitor":
        "373833c7918d2c881af340109195affe481aeb68144ae09ecfe782628f938e7a",
    "corner/dataflow-locality":
        "35c2e188275cf2d06e3750c4a8024002f9850a3cc5829de302d0537fffdb585d",
    "corner/stage":
        "35c2e188275cf2d06e3750c4a8024002f9850a3cc5829de302d0537fffdb585d",
    "corner/stage-monitor":
        "e98362b611b291a1fb210ae41a690b649f6a411da96d93bdfd45f528605cd657",
    "ddmd/dataflow-locality":
        "34f28ad33f9469fbd27053c3e81fcfe2d5f601cd1bbdcb6ea0f6670183ef1c46",
    "ddmd/stage":
        "c088f65e8ac60f3279f3e6ee88081f0a029938e291dfc9002f4b486527d85e03",
    "ddmd/stage-monitor":
        "25ac559b0de3d03ad10632288f09e2209210f1ae761fdec271f7edc3206de31e",
    "h5bench-shared/dataflow-locality":
        "7cd88e5d25bbf482916dc6c315b8ba8c74b29d2dcfa6f84c640fcf67c0de64b8",
    "h5bench-shared/stage":
        "7cd88e5d25bbf482916dc6c315b8ba8c74b29d2dcfa6f84c640fcf67c0de64b8",
    "h5bench-shared/stage-monitor":
        "1ab3aded95f27c30abf21b9d8543cf887159f98d5c4337766b846ebc4450b2a4",
    "h5bench/dataflow-locality":
        "cbeb9e101d107a2cf7a75d3920514bd1fa2b3fd9abfe71e548fbc081c1528311",
    "h5bench/stage":
        "cbeb9e101d107a2cf7a75d3920514bd1fa2b3fd9abfe71e548fbc081c1528311",
    "h5bench/stage-monitor":
        "72e95e051745e6f2b87c3cb5594de77f9956caa009d4b5374edba9eed638b694",
    "perf-hazards/dataflow-locality":
        "062ce180448e9aafa7bef8987cf50a8bc7426635fcf63eeb389403facbd6bb37",
    "perf-hazards/stage":
        "93bee875d7f1debb73b8cf88fd30561101ba12e27ff4ea8e1eb8856308674c6c",
    "perf-hazards/stage-monitor":
        "075c3de4fd9304d73affe9286d4a60238fea11d7ced51ae047020aec5342e6ca",
    "pyflextrkr-1.0/stage-monitor":
        "84d099a0fdf5213e290163a992832b994306594ca49d31729d5e1eeb2eddab80",
    "pyflextrkr/dataflow-locality":
        "481f41545c132ffda65fe2c4035467247983f32b155ccff4215821f748ba8eab",
    "pyflextrkr/stage":
        "481f41545c132ffda65fe2c4035467247983f32b155ccff4215821f748ba8eab",
    "pyflextrkr/stage-monitor":
        "807362becf3f2a93c0382dd3b27cd99a8c047bacb5542353c9290160b93e03e6",
    "racy-pipeline/dataflow-locality":
        "1720893da924b16870d4e3abfd7356cf1ecb7d3515f643cce498916f5c565dd9",
    "racy-pipeline/stage":
        "4e9cd811e12c5ac75e36b44e27401bfbef4d5257749e30224974f57b7c9e555d",
    "racy-pipeline/stage-monitor":
        "55791f3d3e6f3af7d99fe1bdb70034b7c2509ce02ea132b63075facac587c49a",
}


class TestSimulatedOutputIdentity:
    def test_every_case_has_a_recorded_digest(self):
        assert sorted(_DIGESTS) == sorted(_CASES)

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_outputs_match_recorded_digest(self, case):
        assert case_digest(case) == _DIGESTS[case]
