"""Integration tests for the HDF5-like container: files, groups, datasets,
attributes, layouts, persistence across sessions, and I/O-shape properties
(the behaviours DaYu exists to observe)."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.hdf5 import Group, H5File, Selection
from repro.hdf5.errors import H5LayoutError, H5NameError, H5StateError, H5TypeError
from repro.hdf5.oheader import ObjectKind
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


def make_fs():
    return SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])


@pytest.fixture()
def fs():
    return make_fs()


class TestFileLifecycle:
    def test_create_and_reopen_empty(self, fs):
        f = H5File(fs, "/a.h5", "w")
        f.close()
        f2 = H5File(fs, "/a.h5", "r")
        assert f2.keys() == []
        f2.close()

    def test_mode_validation(self, fs):
        with pytest.raises(ValueError):
            H5File(fs, "/a.h5", "rw")

    def test_context_manager(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(4,), data=np.arange(4.0))
        assert f.closed

    def test_double_close(self, fs):
        f = H5File(fs, "/a.h5", "w")
        f.close()
        f.close()

    def test_closed_file_rejects_access(self, fs):
        f = H5File(fs, "/a.h5", "w")
        f.close()
        with pytest.raises(H5StateError):
            f.root

    def test_read_only_rejects_create(self, fs):
        H5File(fs, "/a.h5", "w").close()
        f = H5File(fs, "/a.h5", "r")
        with pytest.raises(H5StateError):
            f.create_dataset("d", shape=(1,))
        f.close()

    def test_read_only_rejects_write(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(4,), data=np.zeros(4))
        f = H5File(fs, "/a.h5", "r")
        with pytest.raises(H5StateError):
            f["d"].write(np.ones(4))
        f.close()

    def test_exclusive_create(self, fs):
        H5File(fs, "/a.h5", "x").close()
        with pytest.raises(Exception):
            H5File(fs, "/a.h5", "x")


class TestGroups:
    def test_nested_creation_and_lookup(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            g = f.create_group("one")
            g.create_group("two")
            assert f["one/two"].name == "/one/two"
            assert "one" in f
            assert "one/two" in f
            assert "one/three" not in f

    def test_duplicate_name_rejected(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_group("g")
            with pytest.raises(H5NameError):
                f.create_group("g")

    def test_require_group(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            g1 = f.require_group("g")
            g2 = f.require_group("g")
            assert g1.name == g2.name == "/g"

    def test_require_group_on_dataset_fails(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(1,))
            with pytest.raises(H5NameError):
                f.require_group("d")

    def test_missing_lookup_raises(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            with pytest.raises(H5NameError):
                f["nope"]
            assert f.root.get("nope") is None

    def test_intermediate_groups_auto_created(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("x/y/z", shape=(2,), data=[1.0, 2.0])
            assert f["x/y/z"].shape == (2,)

    def test_keys_order(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            for name in ("c", "a", "b"):
                f.create_group(name)
            assert f.keys() == ["c", "a", "b"]

    def test_visit(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("g/d1", shape=(1,))
            f.create_dataset("g/d2", shape=(1,))
            seen = []
            f.root.visit(lambda path, obj: seen.append(path))
            assert seen == ["/g", "/g/d1", "/g/d2"]

    def test_group_persistence(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("g/sub/d", shape=(3,), data=[1, 2, 3], dtype="i4")
        with H5File(fs, "/a.h5", "r") as f:
            assert f["g"].keys() == ["sub"]
            np.testing.assert_array_equal(f["g/sub/d"].read(), [1, 2, 3])

    def test_many_links_force_header_relocation(self, fs):
        """A root group with dozens of children outgrows its header block —
        the relocation path must keep everything reachable."""
        with H5File(fs, "/a.h5", "w") as f:
            for i in range(50):
                f.create_dataset(f"dset_{i:03d}", shape=(2,), data=[i, i], dtype="i8")
        with H5File(fs, "/a.h5", "r") as f:
            assert len(f.keys()) == 50
            np.testing.assert_array_equal(f["dset_049"].read(), [49, 49])


class TestFixedDatasets:
    @pytest.mark.parametrize("layout,chunks", [
        ("contiguous", None),
        ("chunked", (16,)),
        ("compact", None),
    ])
    def test_roundtrip_1d(self, fs, layout, chunks):
        data = np.arange(100, dtype=np.float64)
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(100,), dtype="f8",
                             layout=layout, chunks=chunks, data=data)
        with H5File(fs, "/a.h5", "r") as f:
            np.testing.assert_array_equal(f["d"].read(), data)
            assert f["d"].layout_name == layout

    @pytest.mark.parametrize("layout,chunks", [
        ("contiguous", None),
        ("chunked", (4, 8)),
    ])
    def test_roundtrip_2d(self, fs, layout, chunks):
        data = np.arange(15 * 20, dtype=np.int32).reshape(15, 20)
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(15, 20), dtype="i4",
                             layout=layout, chunks=chunks, data=data)
        with H5File(fs, "/a.h5", "r") as f:
            np.testing.assert_array_equal(f["d"].read(), data)

    def test_partial_write_then_full_read(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(10,), dtype="i8", data=np.zeros(10, dtype=np.int64))
            d.write(np.array([7, 8, 9]), Selection.hyperslab(((3, 3),)))
            out = d.read()
            np.testing.assert_array_equal(out, [0, 0, 0, 7, 8, 9, 0, 0, 0, 0])

    def test_partial_read(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(10,), dtype="f8", data=np.arange(10.0))
            out = d.read(Selection.hyperslab(((2, 4),)))
            np.testing.assert_array_equal(out, [2, 3, 4, 5])

    def test_chunked_partial_rmw(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(20,), dtype="i8",
                                 layout="chunked", chunks=(8,),
                                 data=np.arange(20, dtype=np.int64))
            d.write(np.array([-1, -2]), Selection.hyperslab(((7, 2),)))
            expect = np.arange(20)
            expect[7:9] = [-1, -2]
            np.testing.assert_array_equal(d.read(), expect)

    def test_chunked_edge_chunks(self, fs):
        # 10 elements, chunk 4 -> chunks of 4,4,2: edge chunk must clip.
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(10,), dtype="f8",
                                 layout="chunked", chunks=(4,),
                                 data=np.arange(10.0))
            np.testing.assert_array_equal(d.read(), np.arange(10.0))

    def test_unwritten_contiguous_reads_zeros(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(5,), dtype="f8")
            np.testing.assert_array_equal(d.read(), np.zeros(5))

    def test_unwritten_chunks_read_zeros(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(10,), dtype="i4",
                                 layout="chunked", chunks=(4,))
            d.write(np.array([5, 6], dtype=np.int32), Selection.hyperslab(((0, 2),)))
            out = d.read()
            np.testing.assert_array_equal(out[:2], [5, 6])
            np.testing.assert_array_equal(out[2:], np.zeros(8))

    def test_fixed_string_dtype(self, fs):
        values = np.array([b"alpha", b"beta", b"gamma"], dtype="S8")
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("s", shape=(3,), dtype="S8", data=values)
        with H5File(fs, "/a.h5", "r") as f:
            np.testing.assert_array_equal(f["s"].read(), values)

    def test_ellipsis_indexing(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(4,), dtype="f8")
            d[...] = np.arange(4.0)
            np.testing.assert_array_equal(d[...], np.arange(4.0))

    def test_non_ellipsis_indexing_rejected(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(4,), dtype="f8")
            with pytest.raises(TypeError):
                d[0]

    def test_size_mismatch_rejected(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(4,), dtype="f8")
            with pytest.raises(H5TypeError):
                d.write(np.arange(5.0))

    def test_chunked_requires_chunks(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            with pytest.raises(H5LayoutError):
                f.create_dataset("d", shape=(4,), layout="chunked")

    def test_chunk_rank_mismatch(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            with pytest.raises(H5LayoutError):
                f.create_dataset("d", shape=(4, 4), layout="chunked", chunks=(2,))

    def test_scalar_broadcast_write(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(6,), dtype="f8")
            d.write(3.14)
            np.testing.assert_allclose(d.read(), 3.14)


class TestVlenDatasets:
    def test_contiguous_vlen_roundtrip(self, fs):
        items = [b"a", b"bb" * 10, b"", b"cccc" * 100]
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("v", shape=(4,), dtype="vlen-bytes", data=items)
        with H5File(fs, "/a.h5", "r") as f:
            assert f["v"].read() == items

    def test_chunked_vlen_roundtrip(self, fs):
        items = [f"string-{i}" * (i % 7 + 1) for i in range(25)]
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("v", shape=(25,), dtype="vlen-str",
                             layout="chunked", chunks=(8,), data=items)
        with H5File(fs, "/a.h5", "r") as f:
            assert f["v"].read() == items

    def test_vlen_partial_read(self, fs):
        items = [b"x" * (i + 1) for i in range(10)]
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("v", shape=(10,), dtype="vlen-bytes", data=items)
            assert d.read(Selection.hyperslab(((3, 4),))) == items[3:7]

    def test_vlen_must_be_1d(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("v", shape=(2, 2), dtype="vlen-bytes")
            with pytest.raises(H5LayoutError):
                d.write([b"a", b"b", b"c", b"d"])

    def test_vlen_compact_rejected(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            with pytest.raises(H5LayoutError):
                f.create_dataset("v", shape=(2,), dtype="vlen-bytes", layout="compact")

    def test_vlen_count_mismatch(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("v", shape=(3,), dtype="vlen-bytes")
            with pytest.raises(H5TypeError):
                d.write([b"only", b"two"])

    def test_large_vlen_element_dedicated_collection(self, fs):
        big = b"Z" * 100_000
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("v", shape=(2,), dtype="vlen-bytes", data=[b"s", big])
        with H5File(fs, "/a.h5", "r") as f:
            assert f["v"].read() == [b"s", big]


class TestAttributes:
    def test_scalar_attrs_roundtrip(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(1,))
            d.attrs["count"] = 42
            d.attrs["scale"] = 2.5
            d.attrs["unit"] = "kelvin"
            d.attrs["blob"] = b"\x01\x02"
        with H5File(fs, "/a.h5", "r") as f:
            attrs = f["d"].attrs
            assert attrs["count"] == 42
            assert attrs["scale"] == 2.5
            assert attrs["unit"] == "kelvin"
            assert attrs["blob"] == b"\x01\x02"

    def test_array_attr(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            g = f.create_group("g")
            g.attrs["offsets"] = np.array([1, 2, 3], dtype=np.int64)
        with H5File(fs, "/a.h5", "r") as f:
            np.testing.assert_array_equal(f["g"].attrs["offsets"], [1, 2, 3])

    def test_overwrite_attr(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(1,))
            d.attrs["v"] = 1
            d.attrs["v"] = 2
            assert d.attrs["v"] == 2
            assert len(d.attrs) == 1

    def test_delete_attr(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(1,))
            d.attrs["v"] = 1
            del d.attrs["v"]
            assert "v" not in d.attrs
            with pytest.raises(H5NameError):
                d.attrs["v"]

    def test_missing_attr(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(1,))
            assert d.attrs.get("nope", "dflt") == "dflt"
            with pytest.raises(H5NameError):
                del d.attrs["nope"]

    def test_attr_iteration(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(1,))
            d.attrs["a"] = 1
            d.attrs["b"] = 2
            assert sorted(d.attrs) == ["a", "b"]
            assert dict(d.attrs.items()) == {"a": 1, "b": 2}


class TestIoShape:
    """The behaviours the paper is about: op-count consequences of layout."""

    def test_contiguous_full_read_is_single_raw_op(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(10_000,), dtype="f8",
                             data=np.zeros(10_000))
        fs.clear_log()
        with H5File(fs, "/a.h5", "r") as f:
            f["d"].read()
        raw_reads = [r for r in fs.op_log
                     if r.op == "read" and r.nbytes == 80_000]
        assert len(raw_reads) == 1

    def test_chunked_read_touches_per_chunk(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(1000,), dtype="f8",
                             layout="chunked", chunks=(100,),
                             data=np.zeros(1000))
        fs.clear_log()
        with H5File(fs, "/a.h5", "r") as f:
            f["d"].read()
        chunk_reads = [r for r in fs.op_log
                       if r.op == "read" and r.nbytes == 800]
        assert len(chunk_reads) == 10

    def test_chunked_partial_access_reads_fewer_chunks(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(1000,), dtype="f8",
                             layout="chunked", chunks=(100,),
                             data=np.zeros(1000))
        fs.clear_log()
        with H5File(fs, "/a.h5", "r") as f:
            f["d"].read(Selection.hyperslab(((250, 100),)))
        chunk_reads = [r for r in fs.op_log
                       if r.op == "read" and r.nbytes == 800]
        assert len(chunk_reads) == 2  # chunks 2 and 3 only

    def test_contiguous_partial_access_reads_subset_bytes(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(1000,), dtype="f8", data=np.zeros(1000))
        fs.clear_log()
        with H5File(fs, "/a.h5", "r") as f:
            f["d"].read(Selection.hyperslab(((0, 10),)))
        raw = [r for r in fs.op_log if r.op == "read" and r.nbytes == 80]
        assert len(raw) == 1

    def test_vlen_chunked_fewer_writes_than_contiguous(self):
        """The paper's ARLDM finding: chunked VL layout roughly halves the
        POSIX write count versus contiguous VL."""
        def count_writes(layout, chunks):
            fs = make_fs()
            items = [b"v" * 200 for _ in range(64)]
            with H5File(fs, "/a.h5", "w") as f:
                f.create_dataset("v", shape=(64,), dtype="vlen-bytes",
                                 layout=layout, chunks=chunks, data=items)
            return fs.op_count(op="write")

        contiguous = count_writes("contiguous", None)
        chunked = count_writes("chunked", (16,))
        assert chunked < contiguous / 2

    def test_compact_dataset_does_no_raw_io(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(8,), dtype="f8",
                             layout="compact", data=np.arange(8.0))
        # All ops for the tiny compact dataset go through header metadata.
        # The data never got its own raw extent:
        store = fs.store_of("/a.h5")
        assert store.size < 2048

    def test_metadata_cache_absorbs_repeat_reads(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("d", shape=(100,), dtype="f8", data=np.zeros(100))
        with H5File(fs, "/a.h5", "r") as f:
            d = f["d"]
            fs.clear_log()
            d.read()
            first = fs.op_count(op="read")
            fs.clear_log()
            d.read()
            second = fs.op_count(op="read")
        assert second <= first


class TestPropertyRoundtrips:
    @settings(max_examples=30, deadline=None)
    @given(
        layout=st.sampled_from(["contiguous", "chunked"]),
        n=st.integers(1, 200),
        chunk=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fixed_1d_any_layout(self, layout, n, chunk, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-(2**40), 2**40, size=n).astype(np.int64)
        fs = make_fs()
        kwargs = {"chunks": (chunk,)} if layout == "chunked" else {}
        with H5File(fs, "/p.h5", "w") as f:
            f.create_dataset("d", shape=(n,), dtype="i8", layout=layout,
                             data=data, **kwargs)
        with H5File(fs, "/p.h5", "r") as f:
            np.testing.assert_array_equal(f["d"].read(), data)

    @settings(max_examples=20, deadline=None)
    @given(
        items=st.lists(st.binary(max_size=300), min_size=1, max_size=40),
        layout=st.sampled_from(["contiguous", "chunked"]),
        chunk=st.integers(1, 16),
    )
    def test_vlen_any_layout(self, items, layout, chunk):
        fs = make_fs()
        kwargs = {"chunks": (chunk,)} if layout == "chunked" else {}
        with H5File(fs, "/p.h5", "w") as f:
            f.create_dataset("v", shape=(len(items),), dtype="vlen-bytes",
                             layout=layout, data=items, **kwargs)
        with H5File(fs, "/p.h5", "r") as f:
            assert f["v"].read() == items

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 20),
        crow=st.integers(1, 8),
        ccol=st.integers(1, 8),
        data=st.data(),
    )
    def test_chunked_2d_partial_writes(self, rows, cols, crow, ccol, data):
        """Property: a sequence of hyperslab writes to a chunked 2-D dataset
        matches the same writes applied to a plain numpy reference array."""
        fs = make_fs()
        ref = np.zeros((rows, cols), dtype=np.int32)
        with H5File(fs, "/p.h5", "w") as f:
            d = f.create_dataset("d", shape=(rows, cols), dtype="i4",
                                 layout="chunked", chunks=(crow, ccol),
                                 data=ref)
            for _ in range(data.draw(st.integers(0, 4))):
                r0 = data.draw(st.integers(0, rows - 1))
                rc = data.draw(st.integers(1, rows - r0))
                c0 = data.draw(st.integers(0, cols - 1))
                cc = data.draw(st.integers(1, cols - c0))
                val = data.draw(st.integers(-1000, 1000))
                block = np.full((rc, cc), val, dtype=np.int32)
                d.write(block, Selection.hyperslab(((r0, rc), (c0, cc))))
                ref[r0:r0 + rc, c0:c0 + cc] = block
            np.testing.assert_array_equal(d.read(), ref)


class TestSharedDatasetHandles:
    """Every handle on one dataset sees the same extent and layout."""

    def test_resize_seen_by_second_handle(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(4,), layout="chunked", chunks=(4,))
            d2 = f["d"]
            d.resize((400,))
            d.write(np.arange(400.0))
            assert d2.shape == f["d"].shape == (400,)
            np.testing.assert_array_equal(d2.read(), np.arange(400.0))
            assert d2._layout.btree_addr == d._layout.btree_addr
        with H5File(fs, "/a.h5", "r") as f:
            assert f["d"].shape == (400,)
            assert f["d"].read().sum() == np.arange(400.0).sum()

    def test_second_handle_follows_btree_root_split(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            d = f.create_dataset("d", shape=(400,), layout="chunked", chunks=(4,))
            d.write(np.ones(4), Selection.hyperslab(((0, 4),)))
            d2 = f["d"]
            d2.read()  # d2 now holds its own index on the one-leaf root
            root = d._layout.btree_addr
            d.write(np.arange(400.0))  # 100 chunks: the root splits
            assert d._layout.btree_addr != root
            np.testing.assert_array_equal(d2.read(), np.arange(400.0))


_NAMES = ("a", "b", "c", "d")


def _ref_groups(ref, prefix=()):
    """(path, node) of every group in a reference tree, root first."""
    yield prefix, ref
    for name, child in ref.items():
        if isinstance(child, dict):
            yield from _ref_groups(child, prefix + (name,))


def _ref_objects(ref, prefix=()):
    for name, child in ref.items():
        yield prefix + (name,)
        if isinstance(child, dict):
            yield from _ref_objects(child, prefix + (name,))


def _open(f, path):
    return f["/".join(path)] if path else f.root


def _assert_tree_matches(f, ref, attrs):
    """keys() (in order), ``in`` and ``[]`` agree with the reference."""
    for path, node in _ref_groups(ref):
        grp = _open(f, path)
        assert grp.keys() == list(node)
        assert dict(grp.attrs.items()) == attrs.get(path, {})
        for name in _NAMES:
            full = "/".join(path + (name,))
            assert (name in grp) == (name in node) == (full in f)
            if name not in node:
                assert grp._header.link(name) is None
                with pytest.raises(H5NameError):
                    grp[name]
                continue
            obj = grp[name]
            if isinstance(node[name], dict):
                assert isinstance(obj, Group)
            else:
                assert not isinstance(obj, Group)
                np.testing.assert_array_equal(obj.read(), [node[name]] * 2)
                assert dict(obj.attrs.items()) == attrs.get(path + (name,), {})


def _ref_create(node, parts, value) -> bool:
    """Apply a (possibly nested) create to the reference; False if the
    file must refuse it.  A refusal never leaves intermediates behind:
    only an existing dataset can block a path, and everything above it
    already existed."""
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            return False
        node = child
    if parts[-1] in node:
        return False
    node[parts[-1]] = value
    return True


class TestLinkIndexCoherence:
    """The per-header link index stays in step with the LINK messages
    through creates, deletes and header relocation, in memory and after a
    reopen decodes every header from bytes."""

    @seed(13)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_namespace_edits(self, data):
        fs = make_fs()
        ref: dict = {}
        attrs: dict = {}
        f = H5File(fs, "/p.h5", "w")
        for step in range(data.draw(st.integers(1, 25), label="steps")):
            op = data.draw(st.sampled_from(
                ["group", "dataset", "delete", "attr", "flush"]), label="op")
            groups = [p for p, _ in _ref_groups(ref)]
            if op in ("group", "dataset"):
                parent = data.draw(st.sampled_from(groups), label="parent")
                parts = tuple(data.draw(
                    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2),
                    label="parts"))
                node = ref
                for part in parent:
                    node = node[part]
                value = {} if op == "group" else step
                ok = _ref_create(node, parts, value)
                target = _open(f, parent)
                if not ok:
                    with pytest.raises(H5NameError):
                        if op == "group":
                            target.create_group("/".join(parts))
                        else:
                            target.create_dataset("/".join(parts), shape=(2,),
                                                  data=[step, step])
                elif op == "group":
                    target.create_group("/".join(parts))
                else:
                    target.create_dataset("/".join(parts), shape=(2,),
                                          data=[step, step])
            elif op == "delete":
                parent = data.draw(st.sampled_from(groups), label="parent")
                name = data.draw(st.sampled_from(_NAMES), label="name")
                node = ref
                for part in parent:
                    node = node[part]
                grp = _open(f, parent)
                if name in node:
                    grp.delete(name)
                    del node[name]
                    gone = parent + (name,)
                    for key in [k for k in attrs if k[:len(gone)] == gone]:
                        del attrs[key]
                    assert grp._header.link(name) is None
                else:
                    with pytest.raises(H5NameError):
                        grp.delete(name)
            elif op == "attr":
                # Large values push the header past its 256-byte block, so
                # the next flush relocates it and re-points its parent link.
                path = data.draw(st.sampled_from(
                    groups + list(_ref_objects(ref))), label="target")
                key = data.draw(st.sampled_from(["k0", "k1", "k2"]), label="key")
                value = "x" * data.draw(st.integers(1, 400), label="size")
                _open(f, path).attrs[key] = value
                attrs.setdefault(path, {})[key] = value
            else:
                f.flush()
            _assert_tree_matches(f, ref, attrs)
        f.close()
        with H5File(fs, "/p.h5", "r") as f:
            _assert_tree_matches(f, ref, attrs)

    def test_relocated_header_repoints_parent_link(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            g = f.create_group("g")
            g.create_dataset("d", shape=(2,), data=[1.0, 2.0])
            f.flush()
            before = f._record(g._oid).addr
            g.attrs["pad"] = "x" * 400
            f.flush()
            after = f._record(g._oid).addr
            assert after != before
            assert f.root._header.link("g") == (ObjectKind.GROUP, after)
        with H5File(fs, "/a.h5", "r") as f:
            np.testing.assert_array_equal(f["g/d"].read(), [1.0, 2.0])
            assert f["g"].attrs["pad"] == "x" * 400

    def test_duplicate_and_deleted_names(self, fs):
        with H5File(fs, "/a.h5", "w") as f:
            f.create_dataset("g/d", shape=(1,))
            with pytest.raises(H5NameError):
                f.create_dataset("g/d", shape=(1,))
            with pytest.raises(H5NameError):
                f.create_group("g")
            f["g"].delete("d")
            assert f["g"]._header.link("d") is None
            assert "g/d" not in f and f["g"].keys() == []
            with pytest.raises(H5NameError):
                f["g/d"]
            f.create_group("g/d")  # the name is free again
            assert f["g"].keys() == ["d"]
