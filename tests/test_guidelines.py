"""Unit tests for the optimization guidelines: layout advisor and the
recommendation engine."""

import pytest

from repro.guidelines import (
    AccessPattern,
    Action,
    advise_layout,
    recommend,
)
from repro.guidelines.layout import SMALL_DATA_BYTES
from repro.lint import Finding, Severity, all_rules


class TestLayoutAdvisor:
    def test_small_fixed_is_contiguous(self):
        advice = advise_layout("f8", 100)
        assert advice.layout == "contiguous"
        assert advice.chunk_elements is None
        assert "single I/O" in advice.rationale

    def test_large_fixed_sequential_is_contiguous(self):
        n = SMALL_DATA_BYTES  # * 8 bytes each = way past the threshold
        advice = advise_layout("f8", n, AccessPattern.SEQUENTIAL)
        assert advice.layout == "contiguous"

    def test_large_fixed_random_is_chunked(self):
        n = SMALL_DATA_BYTES
        advice = advise_layout("f8", n, AccessPattern.RANDOM)
        assert advice.layout == "chunked"
        assert advice.chunk_elements == n // 10

    def test_large_fixed_parallel_is_chunked(self):
        advice = advise_layout("f8", SMALL_DATA_BYTES, AccessPattern.PARALLEL)
        assert advice.layout == "chunked"

    def test_vlen_always_chunked(self):
        for n in (10, 10_000_000):
            advice = advise_layout("vlen-bytes", n)
            assert advice.layout == "chunked"
            assert "variable-length" in advice.rationale

    def test_boundary_exactly_small(self):
        # 1 MiB of u1 is exactly the small threshold -> contiguous.
        advice = advise_layout("u1", SMALL_DATA_BYTES, AccessPattern.RANDOM)
        assert advice.layout == "contiguous"

    def test_target_chunks(self):
        advice = advise_layout("f8", SMALL_DATA_BYTES, AccessPattern.RANDOM,
                               target_chunks=4)
        assert advice.chunk_elements == SMALL_DATA_BYTES // 4

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            advise_layout("f8", -1)


#: The paper's case-study observations and the rules that report them.
CODE_FOR = {
    "data_reuse": "DY701",
    "write_after_read": "DY702",
    "read_after_write": "DY703",
    "time_dependent_input": "DY704",
    "disposable_data": "DY705",
    "data_scattering": "DY706",
    "partial_file_access": "DY707",
    "metadata_overhead": "DY708",
    "readonly_sequential": "DY709",
    "task_independence": "DY710",
    "vlen_layout": "DY105",
}


def make_finding(code, subject="/f.h5", tasks=("t1",), desc="d"):
    return Finding(code=code, rule="r", severity=Severity.NOTE,
                   message=desc, subject=subject, tasks=tuple(tasks))


class TestRecommendationEngine:
    @pytest.mark.parametrize("kind,action", [
        ("data_reuse", Action.CACHE_IN_FAST_TIER),
        ("time_dependent_input", Action.PREFETCH_BEFORE_USE),
        ("disposable_data", Action.STAGE_OUT),
        ("data_scattering", Action.CONSOLIDATE_DATASETS),
        ("partial_file_access", Action.SKIP_UNUSED_DATA),
        ("metadata_overhead", Action.CONVERT_TO_CONTIGUOUS),
        ("readonly_sequential", Action.ROLLING_STAGE_IN),
        ("task_independence", Action.PARALLELIZE),
        ("vlen_layout", Action.CONVERT_TO_CHUNKED),
    ])
    def test_insight_to_action_mapping(self, kind, action):
        [rec] = recommend([make_finding(CODE_FOR[kind])])
        assert rec.action == action
        assert rec.target == "/f.h5"
        assert rec.code == CODE_FOR[kind]

    def test_every_insight_kind_has_an_action(self):
        advisory = {r.code for r in all_rules()
                    if r.code.startswith("DY7")} | {"DY105"}
        assert advisory == set(CODE_FOR.values())
        for code in advisory:
            assert recommend([make_finding(code)])
        # Defect findings carry no optimization action.
        assert recommend([make_finding("DY203")]) == []

    def test_dedup_merges_tasks(self):
        recs = recommend([
            make_finding("DY701", tasks=("a",)),
            make_finding("DY701", tasks=("b",)),
        ])
        assert len(recs) == 1
        assert recs[0].tasks == ["a", "b"]

    def test_merge_ignores_input_order(self):
        # The rationale and task order of a merged recommendation follow
        # the execution order, not the order the findings arrive in.
        findings = [
            make_finding("DY707", subject="/f.h5:/x", tasks=("late",),
                         desc="late's"),
            make_finding("DY707", subject="/f.h5:/x", tasks=("early",),
                         desc="early's"),
            make_finding("DY701", subject="/f.h5", tasks=("early", "late")),
        ]
        order = ("early", "late")
        forward = recommend(findings, order)
        assert recommend(findings[::-1], order) == forward
        [skip] = [r for r in forward if r.action is Action.SKIP_UNUSED_DATA]
        assert skip.tasks == ["early", "late"]
        assert skip.rationale == "early's"
        # Without an order, task names break the tie.
        [skip] = [r for r in recommend(findings)
                  if r.action is Action.SKIP_UNUSED_DATA]
        assert skip.tasks == ["early", "late"]

    def test_ordering_by_support(self):
        recs = recommend([
            make_finding("DY706", subject="/rare.h5"),
            make_finding("DY701", subject="/hot.h5"),
            make_finding("DY701", subject="/hot.h5"),
            make_finding("DY701", subject="/hot.h5"),
        ])
        assert recs[0].target == "/hot.h5"

    def test_json_and_str(self):
        [rec] = recommend([make_finding("DY105")])
        assert rec.to_json_dict()["action"] == "convert_to_chunked"
        assert rec.to_json_dict()["code"] == "DY105"
        assert "convert_to_chunked" in str(rec)

    def test_empty(self):
        assert recommend([]) == []
