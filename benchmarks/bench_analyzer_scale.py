"""Workflow Analyzer scalability (paper Section VII-B).

Paper: "<15 seconds to analyze a graph with 1k nodes and 6k edges, and
<2 seconds to construct the corresponding FTG and SDG in HTML format."
Real wall-clock time (the Analyzer is offline tooling).

The end-to-end trace-to-graphs timing over the same synthetic workflow
lives in ``bench_columnar.py``.
"""

from repro.experiments.analyzer_scale import SyntheticScale, run_analyzer_scale


def test_analyzer_thousand_node_graph(run_once):
    result = run_once(run_analyzer_scale, SyntheticScale())
    assert result["ftg_nodes"] >= 1000
    assert result["ftg_edges"] >= 3000
    assert result["analyze_seconds"] < 15.0
    assert result["render_seconds"] < 10.0
    assert result["html_bytes"] > 0
