"""Integration tests for the workload skeletons: each workflow runs end to
end under DaYu profiling and exhibits the dataflow features the paper's
case studies describe."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analyzer import build_ftg, build_sdg, dataset_node, file_node, task_node
from repro.cluster import Cluster, Node, gpu_cluster
from repro.lint import ADVISORY, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.simclock import SimClock
from repro.workflow import DataflowRunner
from repro.workloads import (
    ArldmParams,
    CornerCaseParams,
    DdmdParams,
    H5benchParams,
    PyflextrkrParams,
    build_arldm,
    build_corner_case,
    build_ddmd,
    build_h5bench_read,
    build_h5bench_write,
    build_pyflextrkr,
    prepare_pyflextrkr_inputs,
)


def advice(mapper, code):
    """One advisory rule's findings over a run's profiles."""
    report = lint_profiles(list(mapper.profiles.values()), ADVISORY)
    return [f for f in report.findings if f.code == code]


def run_workload(build_fn, params, prepare=None, n_nodes=2):
    clock = SimClock()
    cluster = gpu_cluster(clock, n_nodes=n_nodes)
    # Workloads write under /pfs; mount it for the gpu cluster namespace.
    from repro.storage import Mount, make_device
    cluster.fs.add_mount(Mount("/pfs", cluster.shared_devices["/beegfs"]))
    if prepare is not None:
        prepare(cluster, params)
    mapper = DataSemanticMapper(clock, DaYuConfig())
    runner = DataflowRunner(cluster, mapper, placement="round_robin")
    result = runner.run(build_fn(params))
    return result, mapper, cluster


class TestPyflextrkr:
    @pytest.fixture(scope="class")
    def run(self):
        params = PyflextrkrParams(n_files=4, grid=512, n_parallel=2,
                                  small_datasets=16, speed_reads=3)
        return run_workload(build_pyflextrkr, params,
                            prepare=prepare_pyflextrkr_inputs), params

    def test_nine_stages_execute(self, run):
        (result, mapper, cluster), params = run
        assert len(result.stage_results) == 9
        assert result.wall_time > 0
        names = [s.name for s in result.stage_results]
        assert names[0] == "stage1_idfeature"
        assert names[-1] == "stage9_speed"

    def test_files_produced(self, run):
        (result, mapper, cluster), params = run
        fs = cluster.fs
        assert fs.exists(params.tracks_all)
        assert fs.exists(params.robust_mcs)
        for i in range(params.n_files):
            assert fs.exists(params.feature(i))
            assert fs.exists(params.speed_file(i))

    def test_stage1_output_reused_downstream(self, run):
        (result, mapper, cluster), params = run
        ftg = build_ftg(mapper.profiles.values())
        feature = file_node(params.feature(0))
        consumers = list(ftg.successors(feature))
        # Stage-1 output read by stage-2, stage-3, stage-4, stage-6, stage-8.
        assert len(consumers) >= 3
        assert ftg.nodes[feature]["reused"]

    def test_write_after_read_at_stage3(self, run):
        (result, mapper, cluster), params = run
        profile = mapper.profiles["run_gettracks"]
        track_rows = [s for s in profile.dataset_stats
                      if s.data_object == "/links"]
        assert track_rows
        assert all(s.operation == "read_write" for s in track_rows)
        assert all(s.first_raw_op == "read" for s in track_rows)

    def test_diagnostics_find_paper_observations(self, run):
        (result, mapper, cluster), params = run
        report = lint_profiles(list(mapper.profiles.values()), ADVISORY)
        codes = {f.code for f in report.findings}
        assert {"DY701", "DY706", "DY702"} <= codes  # reuse, scatter, WAR
        # Terrain files only needed at stage 6 -> time-dependent inputs.
        tdi = [f for f in report.findings if f.code == "DY704"]
        assert any("terrain" in f.subject for f in tdi)

    def test_scattering_in_speed_files(self, run):
        (result, mapper, cluster), params = run
        scattering = advice(mapper, "DY706")
        assert any("speed_stats" in f.subject for f in scattering)


class TestDdmd:
    @pytest.fixture(scope="class")
    def run(self):
        params = DdmdParams(n_sim_tasks=4, frames=32, epochs=6)
        return run_workload(build_ddmd, params), params

    def test_four_stages_per_iteration(self, run):
        (result, mapper, cluster), params = run
        assert [s.name for s in result.stage_results] == [
            "openmm_0000", "aggregate_0000", "training_0000", "inference_0000",
        ]

    def test_simulation_outputs_have_four_chunked_datasets(self, run):
        (result, mapper, cluster), params = run
        from repro.hdf5 import H5File
        with H5File(cluster.fs, params.sim_file(0, 0), "r") as f:
            assert set(f.keys()) == {"contact_map", "point_cloud", "fnc", "rmsd"}
            assert f["contact_map"].layout_name == "chunked"
            assert f["contact_map"].nbytes > f["point_cloud"].nbytes

    def test_aggregate_reads_all_simulated_data(self, run):
        (result, mapper, cluster), params = run
        agg = mapper.profiles["aggregate_0000"]
        sim_files_read = {s.file for s in agg.dataset_stats
                          if s.reads and "task" in s.file}
        assert len(sim_files_read) == params.n_sim_tasks

    def test_training_contact_map_metadata_only(self, run):
        """The Figure 7 pop-up: training touches the aggregated
        contact_map's metadata, never its data."""
        (result, mapper, cluster), params = run
        training = mapper.profiles["training_0000"]
        rows = [s for s in training.dataset_stats
                if s.file == params.aggregated(0)
                and s.data_object == "/contact_map"]
        assert rows, "expected contact_map stats against the aggregated file"
        assert all(s.metadata_only for s in rows)
        # But contact_map data IS read from a simulation file directly.
        sim_rows = [s for s in training.dataset_stats
                    if s.file == params.sim_file(0, 0)
                    and s.data_object == "/contact_map"]
        assert any(s.data_ops > 0 for s in sim_rows)

    def test_training_inference_no_shared_h5_data(self, run):
        (result, mapper, cluster), params = run
        training = mapper.profiles["training_0000"]
        inference = mapper.profiles["inference_0000"]
        # No training *output* other than the model is consumed by
        # inference: the graph "reveals no direct data dependency between
        # the training and inference tasks" (Figure 6, circle 3).
        training_outputs = {s.file for s in training.dataset_stats if s.writes}
        inference_inputs = {s.file for s in inference.dataset_stats if s.reads}
        assert training_outputs & inference_inputs <= {params.model(0)}
        assert any("embeddings" in f for f in training_outputs)

    def test_embeddings_read_after_write(self, run):
        (result, mapper, cluster), params = run
        raw = advice(mapper, "DY703")
        assert any("embeddings-epoch-5" in f.subject for f in raw)

    def test_partial_file_access_detected(self, run):
        (result, mapper, cluster), params = run
        partial = advice(mapper, "DY707")
        assert any("contact_map" in f.subject and "aggregated" in f.subject
                   for f in partial)

    def test_metadata_overhead_detected_for_chunked_small(self, run):
        (result, mapper, cluster), params = run
        assert advice(mapper, "DY708")

    def test_multi_iteration(self):
        params = DdmdParams(n_sim_tasks=2, frames=16, epochs=2, iterations=2)
        result, mapper, cluster = run_workload(build_ddmd, params)
        assert len(result.stage_results) == 8
        assert "openmm_0001_0000" in mapper.profiles

    def test_ftg_matches_figure6_topology(self, run):
        (result, mapper, cluster), params = run
        ftg = build_ftg(mapper.profiles.values())
        agg_file = file_node(params.aggregated(0))
        assert ftg.has_edge(task_node("aggregate_0000"), agg_file)
        assert ftg.has_edge(agg_file, task_node("training_0000"))
        # Inference reads every simulation file.
        for i in range(params.n_sim_tasks):
            assert ftg.has_edge(file_node(params.sim_file(0, i)),
                                task_node("inference_0000"))


class TestArldm:
    @pytest.fixture(scope="class")
    def run(self):
        params = ArldmParams(items=16, avg_image_bytes=512)
        return run_workload(build_arldm, params), params

    def test_three_stages(self, run):
        (result, mapper, cluster), params = run
        assert [s.name for s in result.stage_results] == [
            "arldm_prepare", "arldm_train", "arldm_inference",
        ]

    def test_output_file_has_vlen_datasets(self, run):
        (result, mapper, cluster), params = run
        from repro.hdf5 import H5File
        with H5File(cluster.fs, params.out_file, "r") as f:
            assert set(f.keys()) == {"image0", "image1", "image2", "image3",
                                     "image4", "text"}
            assert f["image0"].dtype.is_vlen
            items = f["image0"].read()
            assert len(items) == params.items
            assert len(set(map(len, items))) > 1  # genuinely variable length

    def test_vlen_layout_insight(self, run):
        (result, mapper, cluster), params = run
        vlen = advice(mapper, "DY105")
        assert any("image0" in f.subject for f in vlen)

    def test_chunked_variant_halves_writes(self):
        def writes(layout):
            params = ArldmParams(items=32, avg_image_bytes=512, layout=layout,
                                 chunks=4)
            result, mapper, cluster = run_workload(build_arldm, params)
            save = mapper.profiles["arldm_saveh5"]
            return sum(s.writes for s in save.dataset_stats
                       if s.data_object.startswith("/image"))

        contiguous = writes("contiguous")
        chunked = writes("chunked")
        assert chunked < contiguous / 2

    def test_sdg_shows_fragmented_image_datasets(self, run):
        (result, mapper, cluster), params = run
        sdg = build_sdg([mapper.profiles["arldm_saveh5"]],
                        with_regions=True, region_bytes=16384)
        img = dataset_node(params.out_file, "/image0")
        regions = [v for v in sdg.successors(img)
                   if sdg.nodes[v]["kind"] == "region"]
        assert regions  # image content mapped to file address regions


class TestH5bench:
    def test_write_then_read(self):
        params = H5benchParams(n_procs=2, bytes_per_proc=1 << 16, ops_per_proc=4)
        clock = SimClock()
        cluster = gpu_cluster(clock)
        from repro.storage import Mount, make_device
        cluster.fs.add_mount(Mount("/pfs", cluster.shared_devices["/beegfs"]))
        mapper = DataSemanticMapper(clock, DaYuConfig())
        runner = DataflowRunner(cluster, mapper, placement="round_robin")
        w = runner.run(build_h5bench_write(params))
        r = runner.run(build_h5bench_read(params))
        assert w.wall_time > 0 and r.wall_time > 0
        written = sum(
            s.bytes_written for p in mapper.profiles.values()
            for s in p.dataset_stats if "write" in p.task
        )
        assert written >= params.total_bytes

    def test_param_validation(self):
        with pytest.raises(ValueError):
            H5benchParams(n_procs=0)


class TestCornerCase:
    def test_runs_and_counts_io(self):
        params = CornerCaseParams(n_datasets=50, file_bytes=1 << 18,
                                  read_repeats=2)
        result, mapper, cluster = run_workload(build_corner_case, params,
                                               n_nodes=1)
        profile = mapper.profiles["corner_case"]
        reads = [p for p in profile.object_profiles
                 if p.object_name.startswith("/d")]
        assert len(reads) == 50
        assert all(p.reads == 2 for p in reads)
        assert params.dataset_io_operations == 50 * 3

    def test_scattering_detected(self):
        # Tiny datasets: 50 datasets × 80 B.
        params = CornerCaseParams(n_datasets=50, file_bytes=4000,
                                  read_repeats=0)
        result, mapper, cluster = run_workload(build_corner_case, params,
                                               n_nodes=1)
        assert advice(mapper, "DY706")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CornerCaseParams(n_datasets=1000, file_bytes=10)
        with pytest.raises(ValueError):
            CornerCaseParams(read_repeats=-1)


def _scripted_ddmd_io(out_dir):
    """Simulated I/O of one fixed ddmd run: VFD records, trace bytes and
    every SimClock account."""
    from repro.experiments.common import fresh_env
    from repro.workloads.registry import build_workload

    env = fresh_env(n_nodes=2)
    workflow, prepare = build_workload("ddmd", 0.2)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    written = env.mapper.save_to_host_dir(str(out_dir))
    return {
        "io_records": sum(len(p.io_records) for p in env.mapper.profiles.values()),
        "trace_bytes": sum(os.path.getsize(p) for p in written),
        "accounts": env.clock.accounts(),
        "now": env.clock.now,
    }


class TestSimulatedIoIsStable:
    """CPU-side changes to the format library (indexes, caches of decoded
    metadata) must not add, drop or move a single simulated I/O."""

    def test_fixed_ddmd_run_repeats_and_matches_record(self, tmp_path):
        first = _scripted_ddmd_io(tmp_path / "one")
        second = _scripted_ddmd_io(tmp_path / "two")
        assert first == second
        # Pinned: only a change meant to alter the simulated I/O moves these.
        assert first["io_records"] == 1716
        assert first["trace_bytes"] == 471978
