"""Tests for trace persistence (JSON round-trip) and the CLI toolset."""

import json

import numpy as np
import pytest

from repro.analyzer import build_ftg, build_sdg, infer_task_order
from repro.cli import analyze_main, run_main
from repro.lint import ADVISORY, ADVISORY_CODES, lint_profiles
from repro.mapper import (
    DaYuConfig,
    DataSemanticMapper,
    load_profile,
    load_profiles_from_dir,
    load_profiles_from_host_dir,
    profile_from_json_dict,
)
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


@pytest.fixture()
def recorded():
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    mapper = DataSemanticMapper(clock, DaYuConfig())
    with mapper.task("producer") as ctx:
        f = ctx.open(fs, "/d.h5", "w")
        d = f.create_dataset("x", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(16,),
                             data=np.arange(64.0))
        d.attrs["unit"] = "K"
        f.close()
    with mapper.task("consumer") as ctx:
        f = ctx.open(fs, "/d.h5", "r")
        f["x"].read()
        f.close()
    return fs, mapper


class TestProfileRoundTrip:
    def test_full_round_trip_preserves_analysis_inputs(self, recorded):
        fs, mapper = recorded
        original = mapper.profiles["producer"]
        restored = profile_from_json_dict(
            json.loads(original.serialize()))
        assert restored.task == original.task
        assert restored.span.start == original.span.start
        assert restored.files == original.files
        assert len(restored.io_records) == len(original.io_records)
        assert len(restored.object_profiles) == len(original.object_profiles)
        assert len(restored.dataset_stats) == len(original.dataset_stats)
        # Spot-check the joined stats reconstruct exactly.
        orig = {s.data_object: s for s in original.dataset_stats}
        rest = {s.data_object: s for s in restored.dataset_stats}
        assert set(orig) == set(rest)
        for key in orig:
            assert rest[key].writes == orig[key].writes
            assert rest[key].metadata_ops == orig[key].metadata_ops
            assert rest[key].regions == orig[key].regions
            assert rest[key].first_raw_op == orig[key].first_raw_op

    def test_restored_profiles_build_identical_graphs(self, recorded):
        fs, mapper = recorded
        originals = list(mapper.profiles.values())
        restored = [load_profile(p.serialize()) for p in originals]
        g1 = build_ftg(originals)
        g2 = build_ftg(restored)
        assert set(g1.nodes) == set(g2.nodes)
        assert set(g1.edges) == set(g2.edges)
        for u, v in g1.edges:
            assert g1.edges[u, v]["volume"] == g2.edges[u, v]["volume"]
        s1 = build_sdg(originals, with_regions=True, region_bytes=65536)
        s2 = build_sdg(restored, with_regions=True, region_bytes=65536)
        assert set(s1.nodes) == set(s2.nodes)

    def test_restored_profiles_diagnose_identically(self, recorded):
        fs, mapper = recorded
        originals = list(mapper.profiles.values())
        restored = [load_profile(p.serialize()) for p in originals]
        r1 = lint_profiles(originals, ADVISORY).to_json()
        r2 = lint_profiles(restored, ADVISORY).to_json()
        assert r1 == r2

    def test_load_from_simfs_dir(self, recorded):
        fs, mapper = recorded
        mapper.save(fs)
        profiles = load_profiles_from_dir(fs, "/dayu")
        assert [p.task for p in profiles] == ["producer", "consumer"]

    def test_load_from_host_dir(self, recorded, tmp_path):
        fs, mapper = recorded
        mapper.save_to_host_dir(str(tmp_path))
        profiles = load_profiles_from_host_dir(str(tmp_path))
        assert [p.task for p in profiles] == ["producer", "consumer"]

    def test_round_trip_vfd_record_enum(self, recorded):
        fs, mapper = recorded
        restored = load_profile(mapper.profiles["producer"].serialize())
        from repro.vfd.base import IoClass
        kinds = {r.access_type for r in restored.io_records}
        assert IoClass.METADATA in kinds and IoClass.RAW in kinds


class TestCli:
    def test_run_then_analyze_pipeline(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        graphs = tmp_path / "graphs"
        assert run_main(["ddmd", "--out", str(traces), "--scale", "0.25",
                         "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert list(traces.glob("*.json"))

        assert analyze_main([str(traces), "--out", str(graphs),
                             "--regions"]) == 0
        out = capsys.readouterr().out
        assert "FTG:" in out
        assert (graphs / "ftg.html").exists()
        assert (graphs / "sdg.html").exists()
        assert (graphs / "sdg.dot").exists()
        insights = json.loads((graphs / "insights.json").read_text())
        assert insights["tool"] == "dayu-lint"
        assert any(f["code"].startswith("DY7") for f in insights["findings"])
        assert "Top recommendations:" in out

    @pytest.mark.parametrize("workload", ["arldm", "h5bench", "corner"])
    def test_run_other_workloads(self, workload, tmp_path):
        assert run_main([workload, "--out", str(tmp_path / "t"),
                         "--scale", "0.2"]) == 0
        assert list((tmp_path / "t").glob("*.json"))

    def test_run_pyflextrkr(self, tmp_path):
        assert run_main(["pyflextrkr", "--out", str(tmp_path / "t"),
                         "--scale", "0.25"]) == 0

    def test_analyze_with_infer_order_and_advisor(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        assert run_main(["ddmd", "--out", str(traces), "--scale", "0.2"]) == 0
        capsys.readouterr()
        assert analyze_main([str(traces), "--out", str(tmp_path / "g"),
                             "--infer-order"]) == 0
        out = capsys.readouterr().out
        assert "Inferred task order:" in out
        # One severity-sorted advisory lint report, then its summary.
        assert "DY708 [error]" in out
        assert "dayu-lint:" in out
        # The advisory report is the default output; no --advisor flag.
        with pytest.raises(SystemExit):
            analyze_main([str(traces), "--advisor"])
        # Aggregate precedes training in the recovered order.
        order_line = next(l for l in out.splitlines()
                          if l.startswith("Inferred task order"))
        assert order_line.index("aggregate") < order_line.index("training")

    def test_analyze_one_pass_feeds_both_reports(self, tmp_path):
        # insights.json holds the advisory findings under the recovered
        # order; lint.json is exactly what a default dayu-lint pass gives.
        traces = tmp_path / "traces"
        assert run_main(["ddmd", "--out", str(traces), "--scale", "0.2"]) == 0
        out = tmp_path / "g"
        assert analyze_main([str(traces), "--out", str(out),
                             "--infer-order", "--lint"]) == 0
        profiles = load_profiles_from_host_dir(str(traces))
        advisory = lint_profiles(profiles, ADVISORY,
                                 task_order=infer_task_order(profiles))
        insights = json.loads((out / "insights.json").read_text())
        assert insights["findings"] == [
            f.to_json_dict() for f in advisory.findings
            if f.code in ADVISORY_CODES]
        assert (out / "lint.json").read_text() == \
            lint_profiles(profiles).to_json()

    def test_analyze_empty_dir_exits_2(self, tmp_path, capsys):
        # Usage error, same one-line diagnosis + status as dayu-lint and
        # dayu-compact (the documented exit-code table).
        assert analyze_main([str(tmp_path)]) == 2
        assert "no saved profiles" in capsys.readouterr().err

    def test_analyze_missing_dir_exits_2(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_analyze_truncated_trace_exits_2(self, tmp_path, capsys):
        (tmp_path / "t.dayuc").write_bytes(b"DY")
        assert analyze_main([str(tmp_path)]) == 2
        assert "too short" in capsys.readouterr().err

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_main(["fortran_dreams", "--out", str(tmp_path)])
