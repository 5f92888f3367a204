"""Cost-prophet tests: model laws, DY6xx conviction, DY65x drift, plans.

The static cost model is deliberately linear so its laws are provable —
and therefore fuzzable.  The seeded property tests here pin them down:

1. **Monotonicity** — more bytes (or more operations, or more
   contention) on the same device is never cheaper.
2. **Serial additivity** — splitting one batch into serial chains costs
   exactly the sum of the parts.
3. **Critical-path bound** — the node-weighted critical path is a lower
   bound on *any* legal schedule's predicted makespan, for random DAGs
   and random legal orders, and for the race detector's reorder-witness
   orders (real legal schedules of a real workflow).

Around them: the perf-hazards ground truth is convicted by every DY60x
rule pre-run, every other bundled workload stays DY60x-clean, the DY65x
drift rules fire exactly when the prediction is stale, ``dayu-lint
--diff --cost`` over a compacted run is byte-identical to the row path,
and solved plans round-trip and beat the naive placement when executed.
"""

import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.configs import cluster_spec
from repro.lint import LintConfig, lint_workflow
from repro.lint.cost import (
    build_cost_context,
    build_cost_drift_context,
    critical_path,
    schedule_makespan,
)
from repro.lint.engine import cost_findings, run_costdrift_rules
from repro.storage.devices import DEVICE_CATALOG, predicted_cost
from repro.workloads.registry import WORKLOADS, build_workload

SPEC = cluster_spec("gpu", 2)
COST = LintConfig(enable=("DY6*",))

_devices = st.sampled_from(sorted(DEVICE_CATALOG))
_ops = st.integers(0, 1 << 12)
_bytes = st.integers(0, 1 << 28)


# ----------------------------------------------------------------------
# Law 1: monotonicity
# ----------------------------------------------------------------------
@given(_devices, _ops, _bytes, _bytes, st.integers(1, 64))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cost_monotone_in_bytes(dev, ops, b1, extra, conc):
    d = DEVICE_CATALOG[dev]
    lo = predicted_cost(d, read_ops=ops, read_bytes=b1, concurrency=conc)
    hi = predicted_cost(d, read_ops=ops, read_bytes=b1 + extra,
                        concurrency=conc)
    assert hi >= lo


@given(_devices, _ops, st.integers(0, 1 << 10), _bytes)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cost_monotone_in_ops_and_concurrency(dev, ops, extra, nbytes):
    d = DEVICE_CATALOG[dev]
    assert (predicted_cost(d, write_ops=ops + extra, write_bytes=nbytes)
            >= predicted_cost(d, write_ops=ops, write_bytes=nbytes))
    assert (predicted_cost(d, write_ops=ops, write_bytes=nbytes,
                           concurrency=5)
            >= predicted_cost(d, write_ops=ops, write_bytes=nbytes,
                              concurrency=1))


# ----------------------------------------------------------------------
# Law 2: serial-chain additivity
# ----------------------------------------------------------------------
@given(_devices, _ops, _ops, _bytes, _bytes)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cost_serial_additivity(dev, o1, o2, b1, b2):
    d = DEVICE_CATALOG[dev]
    whole = predicted_cost(d, read_ops=o1 + o2, read_bytes=b1 + b2)
    parts = (predicted_cost(d, read_ops=o1, read_bytes=b1)
             + predicted_cost(d, read_ops=o2, read_bytes=b2))
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


def test_cost_rejects_bad_arguments():
    d = DEVICE_CATALOG["nvme"]
    with pytest.raises(ValueError):
        predicted_cost(d, read_ops=-1)
    with pytest.raises(ValueError):
        predicted_cost(d, read_bytes=-5)
    with pytest.raises(ValueError):
        predicted_cost(d, read_ops=1, concurrency=0)


# ----------------------------------------------------------------------
# Law 3: critical path lower-bounds any legal schedule
# ----------------------------------------------------------------------
def _legal_order(g, priority):
    """A topological order of ``g`` following a priority permutation."""
    pos = {n: i for i, n in enumerate(priority)}
    indeg = {n: g.in_degree(n) for n in g}
    ready = sorted((n for n in g if indeg[n] == 0), key=pos.get)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in g.successors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort(key=pos.get)
    return order


@st.composite
def _dag_cases(draw):
    n = draw(st.integers(1, 8))
    names = [f"t{i}" for i in range(n)]
    g = nx.DiGraph()
    g.add_nodes_from(names)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                g.add_edge(names[i], names[j])
    weights = {name: draw(st.floats(0, 10, allow_nan=False))
               for name in names}
    priority = draw(st.permutations(names))
    slots = draw(st.integers(1, n + 1))
    return g, weights, list(priority), slots


@given(_dag_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_critical_path_lower_bounds_schedules(case):
    g, weights, priority, slots = case
    cp_tasks, cp_seconds = critical_path(g, weights)
    assert cp_seconds == pytest.approx(
        sum(weights[t] for t in cp_tasks))
    order = _legal_order(g, priority)
    makespan = schedule_makespan(g, weights, order, slots=slots)
    assert makespan >= cp_seconds - 1e-9
    # One worker serializes everything: the other extreme bound.
    assert (schedule_makespan(g, weights, order, slots=1)
            == pytest.approx(sum(weights.values())))


def test_schedule_makespan_rejects_illegal_orders():
    g = nx.DiGraph([("a", "b")])
    with pytest.raises(ValueError):
        schedule_makespan(g, {"a": 1.0, "b": 1.0}, ["b", "a"])


def test_witness_orders_respect_critical_path():
    """The DY5xx reorder witnesses are *real* legal schedules of a real
    workflow — every one of them must still be bounded below by the
    predicted critical path."""
    workflow, _ = build_workload("racy-pipeline", 0.25)
    cctx = build_cost_context(workflow, SPEC)
    dag = cctx.static.ordering.dag
    weights = {t: c.total_seconds for t, c in cctx.report.tasks.items()}
    _, cp_seconds = critical_path(dag, weights)
    report = lint_workflow(workflow, LintConfig(enable=("DY5*",)))
    orders = [f.evidence["witness"]["order"] for f in report.findings
              if isinstance(f.evidence, dict)
              and f.evidence.get("witness")]
    assert orders, "racy-pipeline should ship reorder witnesses"
    for order in orders:
        assert set(order) == set(weights)
        for slots in (1, 2, 4):
            assert (schedule_makespan(dag, weights, order, slots=slots)
                    >= cp_seconds - 1e-9)


# ----------------------------------------------------------------------
# DY60x: seeded conviction, everything else clean
# ----------------------------------------------------------------------
def test_perf_hazards_convicted_entirely_pre_run():
    workflow, _ = build_workload("perf-hazards", 1.0)
    report = lint_workflow(workflow, COST, spec=SPEC)
    codes = {f.code for f in report.findings}
    assert {"DY601", "DY602", "DY603", "DY604", "DY605"} <= codes
    assert any(f.code == "DY601" for f in report.errors)


def test_perf_hazards_cost_report_shape():
    workflow, _ = build_workload("perf-hazards", 1.0)
    cctx = build_cost_context(workflow, SPEC)
    r = cctx.report
    assert r.critical_path[0] == "seed_grid"
    assert r.critical_path[-1] == "summarize"
    assert r.critical_path_seconds <= r.makespan_seconds + 1e-9
    assert r.makespan_seconds > 0
    doc = json.loads(r.to_json())
    assert doc["schema"] == "dayu-cost/v1"
    assert doc["tasks"]["journal"]["write_ops"] >= 2048


@pytest.mark.parametrize(
    "name", [n for n in WORKLOADS if n != "perf-hazards"])
def test_bundled_workloads_dy60x_clean(name):
    workflow, _ = build_workload(name, 1.0)
    cctx = build_cost_context(workflow, SPEC)
    perf = [f for f in cost_findings(cctx, COST)
            if f.code.startswith("DY60")]
    assert perf == []


def test_dy6xx_rules_are_opt_in():
    workflow, _ = build_workload("perf-hazards", 1.0)
    report = lint_workflow(workflow, LintConfig(), spec=SPEC)
    assert not any(f.code.startswith("DY6") for f in report.findings)


# ----------------------------------------------------------------------
# DY65x drift + columnar byte-identity
# ----------------------------------------------------------------------
def _traced_run(scale=0.05):
    from repro.experiments.common import fresh_env

    workflow, prepare = build_workload("perf-hazards", scale)
    env = fresh_env(n_nodes=2)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    return sorted(env.mapper.profiles.values(),
                  key=lambda p: p.span.start)


@pytest.fixture(scope="module")
def perf_profiles():
    return _traced_run()


def test_matching_prediction_has_no_drift(perf_profiles):
    workflow, _ = build_workload("perf-hazards", 0.05)
    cctx = build_cost_context(workflow, SPEC)
    dctx = build_cost_drift_context(cctx.report, perf_profiles)
    assert run_costdrift_rules(dctx, COST) == []


def test_stale_prediction_convicted_by_drift(perf_profiles):
    workflow, _ = build_workload("perf-hazards", 1.0)  # 20x the traces
    cctx = build_cost_context(workflow, SPEC)
    findings = cost_findings(cctx, COST, perf_profiles)
    codes = {f.code for f in findings}
    assert {"DY651", "DY652", "DY653"} <= codes


def _diff_cost_cli(traces, out, scale="0.05"):
    """``dayu-lint TRACES --diff perf-hazards --cost`` as JSON; returns
    the exit code, the findings text and the cost-report text."""
    from repro.lint.cli import lint_main

    cost = out.with_suffix(".cost")
    rc = lint_main([str(traces), "--diff", "perf-hazards", "--scale", scale,
                    "--cost", "--format", "json", "--out", str(out),
                    "--cost-out", str(cost)])
    return rc, out.read_text(), cost.read_text()


def test_diff_run_byte_identical_to_row_path(tmp_path, perf_profiles,
                                             capsys):
    from repro.mapper.columnar import encode_run

    rows = tmp_path / "rows"
    rows.mkdir()
    for p in perf_profiles:
        (rows / f"{p.task}.json").write_bytes(p.serialize())
    run = tmp_path / "run.dayuc"
    run.write_bytes(encode_run(perf_profiles))

    row = _diff_cost_cli(rows, tmp_path / "row.json")
    col = _diff_cost_cli(run, tmp_path / "col.json")
    capsys.readouterr()
    assert col == row
    assert json.loads(col[1])["tasks"] == sorted(p.task
                                                 for p in perf_profiles)


def test_diff_run_keeps_drift_when_prediction_stale(tmp_path,
                                                    perf_profiles, capsys):
    from repro.mapper.columnar import encode_run

    run = tmp_path / "run.dayuc"
    run.write_bytes(encode_run(perf_profiles))
    _rc, findings, _cost = _diff_cost_cli(run, tmp_path / "col.json",
                                          scale="1.0")
    capsys.readouterr()
    codes = {f["code"] for f in json.loads(findings)["findings"]}
    assert {"DY651", "DY652", "DY653"} <= codes


# ----------------------------------------------------------------------
# Plans: round-trip, improvement, executed beats naive
# ----------------------------------------------------------------------
def test_solver_improves_and_plan_round_trips(tmp_path):
    from repro.optimizer import solve_placement
    from repro.workflow.plan import PlacementPlan

    workflow, _ = build_workload("perf-hazards", 1.0)
    plan = solve_placement(workflow, SPEC, workload="perf-hazards",
                           scale=1.0)
    pred = plan.predicted
    assert (pred["planned_makespan_seconds"]
            < pred["baseline_makespan_seconds"])
    assert plan.files and plan.tasks
    path = tmp_path / "plan.json"
    plan.save(str(path))
    loaded = PlacementPlan.load(str(path))
    assert loaded.to_json_dict() == plan.to_json_dict()


def test_plan_rejects_wrong_schema(tmp_path):
    from repro.workflow.plan import PlacementPlan

    with pytest.raises(ValueError):
        PlacementPlan.from_json_dict({"schema": "dayu-plan/v999"})


def test_executed_plan_beats_naive_placement():
    from repro.experiments.static_cost import _naive_run, _planned_run

    naive = _naive_run("perf-hazards", 0.05, 2)
    planned, staged, plan = _planned_run("perf-hazards", 0.05, 2)
    assert planned + staged < naive
    assert plan.predicted["planned_makespan_seconds"] > 0


# ----------------------------------------------------------------------
# CLI behavior
# ----------------------------------------------------------------------
def _exits(main, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_jobs_validation_exits_2_everywhere():
    from repro.cli import analyze_main
    from repro.lint.cli import lint_main

    assert _exits(lint_main, ["traces", "--jobs", "0"]) == 2
    assert _exits(lint_main, ["traces", "--jobs", "-3"]) == 2
    assert _exits(lint_main, ["traces", "--jobs", "two"]) == 2
    assert _exits(analyze_main, ["traces", "--jobs", "0"]) == 2
    assert _exits(analyze_main, ["traces", "--jobs", "-1"]) == 2


def test_nodes_validation_exits_2():
    from repro.cli import plan_main, run_main
    from repro.lint.cli import lint_main

    assert _exits(run_main, ["perf-hazards", "--nodes", "0"]) == 2
    assert _exits(plan_main, ["perf-hazards", "--nodes", "-2"]) == 2
    assert _exits(lint_main, ["--static", "perf-hazards", "--cost",
                              "--nodes", "0"]) == 2


def test_cost_flag_usage_errors():
    from repro.lint.cli import lint_main

    # --cost needs a workflow's contracts.
    assert _exits(lint_main, ["traces", "--cost"]) == 2
    # --cost-out without --cost.
    assert _exits(lint_main, ["--static", "perf-hazards",
                              "--cost-out", "x.json"]) == 2


def test_lint_cli_static_cost_convicts(tmp_path, capsys):
    from repro.lint.cli import lint_main

    out = tmp_path / "cost.json"
    rc = lint_main(["--static", "perf-hazards", "--cost",
                    "--cost-out", str(out)])
    assert rc == 1  # DY601 is an error
    text = capsys.readouterr().out
    assert "DY601" in text and "DY604" in text
    doc = json.loads(out.read_text())
    assert doc["schema"] == "dayu-cost/v1"
    assert doc["workflow"] == "perf_hazards"


def test_list_rules_shows_defaults(capsys):
    from repro.lint.cli import lint_main

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DY601" in out and "default=off" in out and "default=on" in out


def test_run_main_rejects_mismatched_plan(tmp_path, capsys):
    from repro.cli import plan_main, run_main

    plan = tmp_path / "plan.json"
    assert plan_main(["perf-hazards", "--scale", "0.05",
                      "--out", str(plan)]) == 0
    rc = run_main(["pyflextrkr", "--scale", "0.05", "--plan", str(plan),
                   "--out", str(tmp_path / "tr")])
    assert rc == 2
    assert "solved for" in capsys.readouterr().err


def test_readme_rule_table_in_sync():
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "gen_rule_table.py"),
         "--check"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
