"""Unit tests for the format primitives: superblock, datatypes, dataspaces,
object headers, layouts, free space, metadata cache."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hdf5.dataspace import Dataspace, Selection, selection_runs
from repro.hdf5.datatype import Datatype
from repro.hdf5.errors import H5FormatError, H5NameError, H5TypeError
from repro.hdf5.format import SUPERBLOCK_SIZE, Superblock
from repro.hdf5.freespace import FreeSpaceManager
from repro.hdf5.layout import (
    ChunkedLayout,
    CompactLayout,
    ContiguousLayout,
    decode_layout,
    encode_layout,
)
from repro.hdf5.meta_cache import MetadataCache
from repro.hdf5.oheader import (
    Message,
    MessageType,
    ObjectHeader,
    ObjectKind,
    decode_attribute,
    decode_link,
    encode_attribute,
    encode_link,
)


class TestSuperblock:
    def test_roundtrip(self):
        sb = Superblock(root_addr=123, eof_addr=4567)
        decoded = Superblock.decode(sb.encode())
        assert decoded.root_addr == 123
        assert decoded.eof_addr == 4567

    def test_fixed_size(self):
        assert len(Superblock().encode()) == SUPERBLOCK_SIZE

    def test_bad_signature_rejected(self):
        data = bytearray(Superblock().encode())
        data[0] ^= 0xFF
        with pytest.raises(H5FormatError, match="signature"):
            Superblock.decode(bytes(data))

    def test_truncated_rejected(self):
        with pytest.raises(H5FormatError):
            Superblock.decode(b"\x00" * 4)


class TestDatatype:
    @pytest.mark.parametrize(
        "code,size",
        [("i1", 1), ("i8", 8), ("u4", 4), ("f4", 4), ("f8", 8), ("S16", 16)],
    )
    def test_fixed_itemsize(self, code, size):
        assert Datatype(code).itemsize == size
        assert not Datatype(code).is_vlen

    def test_vlen_itemsize_is_ref_size(self):
        assert Datatype("vlen-bytes").itemsize == 14
        assert Datatype("vlen-str").is_vlen

    def test_of_numpy_dtype(self):
        assert Datatype.of(np.dtype("float64")).code == "f8"
        assert Datatype.of(np.float32).code == "f4"
        assert Datatype.of(np.dtype("S8")).code == "S8"

    def test_of_python_types(self):
        assert Datatype.of(bytes).code == "vlen-bytes"
        assert Datatype.of(str).code == "vlen-str"

    def test_of_passthrough(self):
        dt = Datatype("f8")
        assert Datatype.of(dt) is dt

    def test_unknown_code_rejected(self):
        with pytest.raises(H5TypeError):
            Datatype("q16")

    def test_numpy_dtype_of_vlen_rejected(self):
        with pytest.raises(H5TypeError):
            Datatype("vlen-str").numpy_dtype

    def test_heap_codec_str(self):
        dt = Datatype("vlen-str")
        assert dt.from_heap_bytes(dt.to_heap_bytes("héllo")) == "héllo"

    def test_heap_codec_bytes(self):
        dt = Datatype("vlen-bytes")
        assert dt.from_heap_bytes(dt.to_heap_bytes(b"\x00\x01")) == b"\x00\x01"

    def test_heap_codec_type_errors(self):
        with pytest.raises(H5TypeError):
            Datatype("vlen-str").to_heap_bytes(b"not str")
        with pytest.raises(H5TypeError):
            Datatype("f8").to_heap_bytes(b"x")

    def test_serialization_roundtrip(self):
        for code in ("i4", "f8", "S32", "vlen-str"):
            encoded = Datatype(code).encode()
            decoded, _ = Datatype.decode(encoded)
            assert decoded.code == code


class TestDataspace:
    def test_npoints(self):
        assert Dataspace((3, 4, 5)).npoints == 60
        assert Dataspace(()).npoints == 1
        assert Dataspace((0, 10)).npoints == 0

    def test_roundtrip(self):
        space = Dataspace((7, 11))
        decoded, offset = Dataspace.decode(space.encode())
        assert decoded == space
        assert offset == len(space.encode())

    def test_negative_dim_rejected(self):
        with pytest.raises(H5TypeError):
            Dataspace((-1,))


class TestSelection:
    def test_all_resolves_to_shape(self):
        space = Dataspace((4, 6))
        assert Selection.all().resolve(space) == ((0, 4), (0, 6))

    def test_hyperslab_resolve(self):
        space = Dataspace((10,))
        sel = Selection.hyperslab(((2, 5),))
        assert sel.resolve(space) == ((2, 5),)
        assert sel.npoints(space) == 5
        assert sel.out_shape(space) == (5,)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(H5TypeError):
            Selection.hyperslab(((0, 1),)).resolve(Dataspace((2, 2)))

    def test_overrun_rejected(self):
        with pytest.raises(H5TypeError):
            Selection.hyperslab(((5, 10),)).resolve(Dataspace((8,)))

    def test_negative_rejected(self):
        with pytest.raises(H5TypeError):
            Selection.hyperslab(((-1, 2),))


class TestSelectionRuns:
    def test_full_1d_is_one_run(self):
        assert selection_runs(Dataspace((100,)), Selection.all()) == [(0, 100)]

    def test_full_nd_is_one_run(self):
        assert selection_runs(Dataspace((4, 5, 6)), Selection.all()) == [(0, 120)]

    def test_partial_1d(self):
        sel = Selection.hyperslab(((10, 20),))
        assert selection_runs(Dataspace((100,)), sel) == [(10, 20)]

    def test_row_block_2d(self):
        # Rows 1-2 of a 4x5: full rows coalesce per row... actually they are
        # adjacent, but the partially-selected axis is axis 0, so the block
        # is one contiguous run of 2*5 elements.
        sel = Selection.hyperslab(((1, 2), (0, 5)))
        assert selection_runs(Dataspace((4, 5)), sel) == [(5, 10)]

    def test_column_block_2d_scatters(self):
        # Columns 1-2 of each of 3 rows: one run per row.
        sel = Selection.hyperslab(((0, 3), (1, 2)))
        assert selection_runs(Dataspace((3, 5)), sel) == [(1, 2), (6, 2), (11, 2)]

    def test_empty_selection(self):
        sel = Selection.hyperslab(((0, 0),))
        assert selection_runs(Dataspace((5,)), sel) == []

    def test_scalar_space(self):
        assert selection_runs(Dataspace(()), Selection.all()) == [(0, 1)]

    @given(
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        st.data(),
    )
    def test_runs_cover_exactly_the_selection(self, shape, data):
        """Property: runs form a disjoint exact cover of the selected flat
        indices, in ascending order."""
        space = Dataspace(shape)
        slabs = []
        for dim in shape:
            start = data.draw(st.integers(0, dim - 1))
            count = data.draw(st.integers(1, dim - start))
            slabs.append((start, count))
        sel = Selection.hyperslab(slabs)
        runs = selection_runs(space, sel)
        covered = []
        for start, length in runs:
            covered.extend(range(start, start + length))
        # Reference: numpy index arithmetic.
        idx = np.arange(space.npoints).reshape(shape)
        slices = tuple(slice(s, s + c) for s, c in slabs)
        expected = idx[slices].reshape(-1).tolist()
        assert covered == expected
        assert covered == sorted(set(covered))


class TestObjectHeader:
    def _header(self):
        return ObjectHeader(
            kind=ObjectKind.DATASET,
            messages=[
                Message(MessageType.DATASPACE, b"\x01" + b"\x08" + b"\x00" * 7),
                Message(MessageType.DATATYPE, b"\x02\x00\x00\x00f8"),
            ],
        )

    def test_roundtrip(self):
        h = self._header()
        decoded = ObjectHeader.decode(h.encode())
        assert decoded.kind == ObjectKind.DATASET
        assert len(decoded.messages) == 2
        assert decoded.messages[0].payload == h.messages[0].payload
        assert decoded.capacity == h.capacity

    def test_encode_pads_to_capacity(self):
        h = self._header()
        assert len(h.encode()) == h.capacity

    def test_overflow_rejected(self):
        h = self._header()
        h.messages.append(Message(MessageType.ATTRIBUTE, b"z" * 1000))
        with pytest.raises(H5FormatError):
            h.encode()

    def test_capacity_for_doubles(self):
        assert ObjectHeader.capacity_for(10) == 256
        assert ObjectHeader.capacity_for(257) == 512
        assert ObjectHeader.capacity_for(1025) == 2048

    def test_peek_capacity(self):
        h = self._header()
        assert ObjectHeader.peek_capacity(h.encode()) == h.capacity

    def test_find_and_replace(self):
        h = self._header()
        assert h.find(MessageType.DATASPACE) is not None
        assert h.find(MessageType.LAYOUT) is None
        h.replace(MessageType.LAYOUT, b"LL")
        assert h.find(MessageType.LAYOUT).payload == b"LL"
        h.replace(MessageType.LAYOUT, b"MM")
        assert len(h.find_all(MessageType.LAYOUT)) == 1

    def test_remove(self):
        h = self._header()
        n = h.remove(lambda m: m.type == MessageType.DATATYPE)
        assert n == 1
        assert h.find(MessageType.DATATYPE) is None

    def test_bad_signature(self):
        with pytest.raises(H5FormatError):
            ObjectHeader.decode(b"XXXX" + b"\x00" * 60)

    def test_link_api_keeps_message_order_and_bytes(self):
        h = ObjectHeader(kind=ObjectKind.GROUP)
        h.messages.append(Message(MessageType.ATTRIBUTE, b"attr"))
        h.add_link("b", ObjectKind.GROUP, 10)
        h.add_link("a", ObjectKind.DATASET, 20)
        h.add_link("c", ObjectKind.DATASET, 30)
        h.repoint_link("a", 99)
        h.remove_link("b")
        assert h.links() == [("a", ObjectKind.DATASET, 99),
                             ("c", ObjectKind.DATASET, 30)]
        assert h.link("a") == (ObjectKind.DATASET, 99)
        assert h.link("b") is None
        assert [m.type for m in h.messages] == [
            MessageType.ATTRIBUTE, MessageType.LINK, MessageType.LINK]
        assert h.messages[1].payload == encode_link("a", ObjectKind.DATASET, 99)
        decoded = ObjectHeader.decode(h.encode())
        assert decoded.links() == h.links()
        assert decoded.encode() == h.encode()

    def test_link_api_rejects_bad_names(self):
        h = ObjectHeader(kind=ObjectKind.GROUP)
        h.add_link("a", ObjectKind.GROUP, 10)
        with pytest.raises(H5NameError):
            h.add_link("a", ObjectKind.DATASET, 20)
        with pytest.raises(H5NameError):
            h.repoint_link("z", 1)
        with pytest.raises(H5NameError):
            h.remove_link("z")
        assert h.links() == [("a", ObjectKind.GROUP, 10)]

    def test_duplicate_link_names_in_bytes_are_corrupt(self):
        link = Message(MessageType.LINK, encode_link("a", ObjectKind.GROUP, 10))
        h = ObjectHeader(kind=ObjectKind.GROUP, messages=[link, link])
        decoded = ObjectHeader.decode(h.encode())
        with pytest.raises(H5FormatError):
            decoded.link("a")


class TestLinkAndAttributeCodecs:
    def test_link_roundtrip(self):
        payload = encode_link("dset_1", ObjectKind.DATASET, 0xDEADBEEF)
        assert decode_link(payload) == ("dset_1", ObjectKind.DATASET, 0xDEADBEEF)

    def test_link_unicode_name(self):
        payload = encode_link("数据", ObjectKind.GROUP, 42)
        assert decode_link(payload)[0] == "数据"

    def test_attribute_roundtrip(self):
        payload = encode_attribute("units", "vlen-str", b"meters")
        assert decode_attribute(payload) == ("units", "vlen-str", b"meters")


class TestLayoutCodec:
    def test_compact_roundtrip(self):
        lay = decode_layout(encode_layout(CompactLayout(b"rawdata")))
        assert isinstance(lay, CompactLayout)
        assert lay.data == b"rawdata"

    def test_contiguous_roundtrip(self):
        lay = decode_layout(encode_layout(ContiguousLayout(addr=4096, size=800)))
        assert isinstance(lay, ContiguousLayout)
        assert (lay.addr, lay.size) == (4096, 800)
        assert lay.allocated

    def test_unallocated_contiguous(self):
        lay = decode_layout(encode_layout(ContiguousLayout()))
        assert not lay.allocated

    def test_chunked_roundtrip(self):
        lay = decode_layout(encode_layout(ChunkedLayout((16, 32), btree_addr=77)))
        assert isinstance(lay, ChunkedLayout)
        assert lay.chunk_shape == (16, 32)
        assert lay.btree_addr == 77

    def test_chunk_grid(self):
        lay = ChunkedLayout((10,))
        assert lay.chunk_grid((25,)) == (3,)
        assert lay.chunk_grid((30,)) == (3,)

    def test_bad_chunk_shape(self):
        from repro.hdf5.errors import H5LayoutError

        with pytest.raises(H5LayoutError):
            ChunkedLayout((0,))

    def test_empty_payload_rejected(self):
        with pytest.raises(H5FormatError):
            decode_layout(b"")


class TestFreeSpaceManager:
    def test_allocations_dont_overlap(self):
        fsm = FreeSpaceManager()
        a = fsm.allocate(100)
        b = fsm.allocate(200)
        assert a + 100 <= b or b + 200 <= a

    def test_first_allocation_after_superblock(self):
        fsm = FreeSpaceManager()
        assert fsm.allocate(10) == SUPERBLOCK_SIZE

    def test_free_then_reuse(self):
        fsm = FreeSpaceManager()
        a = fsm.allocate(100)
        fsm.allocate(50)  # keeps EOF above the hole
        fsm.free(a, 100)
        c = fsm.allocate(80)
        assert c == a  # first-fit reuses the hole

    def test_free_merges_adjacent(self):
        fsm = FreeSpaceManager()
        a = fsm.allocate(100)
        b = fsm.allocate(100)
        fsm.allocate(10)
        fsm.free(a, 100)
        fsm.free(b, 100)
        assert fsm.free_extents == [(a, 200)]

    def test_eof_shrinks_when_tail_freed(self):
        fsm = FreeSpaceManager()
        fsm.allocate(100)
        b = fsm.allocate(50)
        fsm.free(b, 50)
        assert fsm.eof == SUPERBLOCK_SIZE + 100

    def test_allocate_at_eof_never_reuses(self):
        fsm = FreeSpaceManager()
        a = fsm.allocate(100)
        fsm.allocate(10)
        fsm.free(a, 100)
        c = fsm.allocate_at_eof(50)
        assert c >= SUPERBLOCK_SIZE + 110

    def test_fragmentation_metric(self):
        fsm = FreeSpaceManager()
        a = fsm.allocate(100)
        fsm.allocate(100)
        assert fsm.fragmentation() == 0.0
        fsm.free(a, 100)
        assert fsm.fragmentation() == pytest.approx(0.5)

    def test_zero_alloc_rejected(self):
        with pytest.raises(H5FormatError):
            FreeSpaceManager().allocate(0)

    def test_cannot_free_superblock(self):
        with pytest.raises(H5FormatError):
            FreeSpaceManager().free(0, 10)

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=40))
    def test_property_no_overlaps(self, sizes):
        fsm = FreeSpaceManager()
        extents = sorted((fsm.allocate(s), s) for s in sizes)
        for (a1, s1), (a2, _s2) in zip(extents, extents[1:]):
            assert a1 + s1 <= a2


class TestMetadataCache:
    def test_miss_then_hit(self):
        cache = MetadataCache()
        loads = []
        loader = lambda: loads.append(1) or b"DATA"
        assert cache.read(100, 4, loader) == b"DATA"
        assert cache.read(100, 4, loader) == b"DATA"
        assert len(loads) == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_shorter_cached_block_is_miss(self):
        cache = MetadataCache()
        cache.put(100, b"AB")
        got = cache.read(100, 4, lambda: b"ABCD")
        assert got == b"ABCD"
        assert cache.misses == 1

    def test_longer_cached_block_truncates(self):
        cache = MetadataCache()
        cache.put(100, b"ABCDEF")
        assert cache.read(100, 4, lambda: pytest.fail("should not load")) == b"ABCD"

    def test_disabled_cache_always_loads(self):
        cache = MetadataCache(enabled=False)
        loads = []
        for _ in range(3):
            cache.read(1, 1, lambda: loads.append(1) or b"X")
        assert len(loads) == 3
        assert cache.hit_rate == 0.0

    def test_invalidate(self):
        cache = MetadataCache()
        cache.put(5, b"OLD")
        cache.invalidate(5)
        assert cache.read(5, 3, lambda: b"NEW") == b"NEW"

    def test_eviction_bounded_by_capacity(self):
        cache = MetadataCache(capacity_bytes=100)
        for i in range(20):
            cache.put(i, b"x" * 10)
        assert cache.size_bytes <= 100
        assert cache.entry_count <= 10

    def test_oversized_block_bypasses(self):
        cache = MetadataCache(capacity_bytes=10)
        cache.put(1, b"x" * 100)
        assert cache.peek(1) is None

    def test_put_replaces(self):
        cache = MetadataCache()
        cache.put(1, b"AAAA")
        cache.put(1, b"BB")
        assert cache.peek(1) == b"BB"
        assert cache.size_bytes == 2
