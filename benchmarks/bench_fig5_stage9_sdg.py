"""Figure 5: the PyFLEXTRKR stage-9 SDG exposing data scattering.

Regenerates the SDG and checks the observation: many small datasets
(sub-500-byte) per file causing frequent metadata access.
"""

from repro.analyzer import NodeKind, build_sdg
from repro.experiments.common import fresh_env
from repro.lint import ADVISORY, lint_profiles
from repro.workloads.pyflextrkr import (
    PyflextrkrParams,
    build_pyflextrkr,
    prepare_pyflextrkr_inputs,
)


def test_fig5_stage9_sdg(run_once):
    def build():
        env = fresh_env(n_nodes=2)
        params = PyflextrkrParams(data_dir="/beegfs/flex", n_files=4,
                                  grid=2048, n_parallel=2,
                                  small_datasets=32, small_elems=100,
                                  speed_reads=23)
        prepare_pyflextrkr_inputs(env.cluster, params)
        env.runner.run(build_pyflextrkr(params))
        stage9 = [p for n, p in env.mapper.profiles.items()
                  if n.startswith("run_speed")]
        return build_sdg(stage9), lint_profiles(stage9, ADVISORY)

    sdg, report = run_once(build)
    # The SDG's dataset layer is crowded with tiny datasets.
    dataset_nodes = [n for n, a in sdg.nodes(data=True)
                     if a["kind"] == NodeKind.DATASET.value
                     and "speed_" in a["label"]]
    assert len(dataset_nodes) >= 32
    scattering = [f for f in report.findings if f.code == "DY706"]
    assert scattering
    assert all(f.evidence["avg_bytes"] < 500 for f in scattering)
