"""Figure 6: the DDMD four-stage FTG with its circled observations.

Checks: aggregate and inference read all simulated data (circles 1 and 3),
training reads the aggregated output plus one simulation file (circle 2),
and training/inference share no data dependency.
"""

from repro.analyzer import build_ftg, file_node, task_node
from repro.experiments.common import fresh_env
from repro.lint import ADVISORY, lint_profiles
from repro.workloads.ddmd import DdmdParams, build_ddmd


def test_fig6_ddmd_ftg(run_once):
    def build():
        env = fresh_env(n_nodes=2)
        params = DdmdParams(data_dir="/beegfs/ddmd", n_sim_tasks=12,
                            frames=128, epochs=10, chunk_elems=128)
        env.runner.run(build_ddmd(params))
        profiles = list(env.mapper.profiles.values())
        return (build_ftg(profiles), lint_profiles(profiles, ADVISORY),
                params)

    ftg, report, params = run_once(build)
    agg, tr, inf = "aggregate_0000", "training_0000", "inference_0000"
    # Circles 1 and 3: aggregate and inference read every simulation file.
    for i in range(params.n_sim_tasks):
        sim = file_node(params.sim_file(0, i))
        assert ftg.has_edge(sim, task_node(agg))
        assert ftg.has_edge(sim, task_node(inf))
    # Circle 2: training reads the aggregated file and only one sim file.
    training_inputs = [u for u in ftg.predecessors(task_node(tr))]
    sim_inputs = [u for u in training_inputs if "task0" in u and "stage" in u]
    assert file_node(params.aggregated(0)) in training_inputs
    assert len(sim_inputs) == 1
    # Embedding files show the read-after-write reuse the paper circles.
    raw = [f for f in report.findings if f.code == "DY703"]
    assert any("embeddings-epoch-5" in f.subject for f in raw)
