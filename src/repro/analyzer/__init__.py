"""The Workflow Analyzer — DaYu core component #2 (paper Section V).

Connects data accesses to workflow tasks as decorated dependence graphs:

- :func:`~repro.analyzer.graphs.build_ftg` — **File-Task Graphs**: files
  and tasks as nodes, directed read/write edges carrying access statistics
  (the paper's Figure 4 and 6).
- :func:`~repro.analyzer.graphs.build_sdg` — **Semantic Dataflow Graphs**:
  FTGs enriched with a data-object layer and optional file-address-region
  nodes (the paper's Figures 3, 5, 7, 8).
- :mod:`~repro.analyzer.resolution` — resolution adjustment: grouping and
  aggregating nodes by task, stage, time, or location when graphs get
  complex.
- :mod:`~repro.analyzer.html_export` / :mod:`~repro.analyzer.dot_export` —
  interactive self-contained HTML/SVG and Graphviz DOT renderings.
"""

from repro.analyzer.compare import (
    RunComparison,
    RunSummary,
    compare_runs,
    summarize_run,
)
from repro.analyzer.dot_export import to_dot
from repro.analyzer.graphs import (
    GraphBuilder,
    NodeKind,
    build_ftg,
    build_sdg,
    dataset_node,
    file_node,
    mark_data_reuse,
    merge_edge_stats,
    opt_max,
    opt_min,
    region_node,
    task_node,
)
from repro.analyzer.html_export import to_html
from repro.analyzer.parallel import ParallelAnalyzer
from repro.analyzer.ordering import (
    CyclicDependencyError,
    dependency_dag,
    find_dependency_cycle,
    infer_task_order,
)
from repro.analyzer.resolution import aggregate_by, condense_regions
from repro.analyzer.serialize import (
    graph_from_json,
    graph_from_json_dict,
    graph_to_json,
    graph_to_json_dict,
)

__all__ = [
    "NodeKind",
    "GraphBuilder",
    "build_ftg",
    "build_sdg",
    "merge_edge_stats",
    "opt_min",
    "opt_max",
    "task_node",
    "file_node",
    "dataset_node",
    "region_node",
    "mark_data_reuse",
    "ParallelAnalyzer",
    "aggregate_by",
    "condense_regions",
    "to_dot",
    "to_html",
    "compare_runs",
    "summarize_run",
    "RunComparison",
    "RunSummary",
    "dependency_dag",
    "find_dependency_cycle",
    "infer_task_order",
    "CyclicDependencyError",
    "graph_to_json",
    "graph_from_json",
    "graph_to_json_dict",
    "graph_from_json_dict",
]
