"""Figure 4: the PyFLEXTRKR nine-stage FTG with its circled observations.

Regenerates the graph and checks the three circled findings: the stage-3
write-after-read, the stage-6 time-dependent inputs, and stage-1 output
reuse by multiple downstream stages.
"""

from repro.analyzer import build_ftg, file_node
from repro.experiments.common import fresh_env
from repro.lint import ADVISORY, lint_profiles
from repro.workloads.pyflextrkr import (
    PyflextrkrParams,
    build_pyflextrkr,
    prepare_pyflextrkr_inputs,
)


def test_fig4_ftg(run_once):
    def build():
        env = fresh_env(n_nodes=2)
        params = PyflextrkrParams(data_dir="/beegfs/flex", n_files=8,
                                  grid=4096, n_parallel=4)
        prepare_pyflextrkr_inputs(env.cluster, params)
        env.runner.run(build_pyflextrkr(params))
        profiles = list(env.mapper.profiles.values())
        return build_ftg(profiles), lint_profiles(profiles, ADVISORY), params

    ftg, report, params = run_once(build)
    # Circle 1: stage-3 write-after-read.
    war = [f for f in report.findings if f.code == "DY702"]
    assert any("run_gettracks" in f.tasks for f in war)
    # Circle 2: terrain inputs only needed mid-workflow.
    tdi = [f for f in report.findings if f.code == "DY704"]
    assert any("terrain" in f.subject for f in tdi)
    # Circle 3: stage-1 outputs reused by multiple downstream stages.
    feature = file_node(params.feature(0))
    assert ftg.nodes[feature]["reused"]
    assert len(list(ftg.successors(feature))) >= 3
