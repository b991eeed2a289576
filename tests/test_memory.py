"""Unit tests for the memory model (homes, shadow metadata, spanning)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.checks import SegmentationFault
from repro.runtime.memory import Memory, PtrMeta


class TestAllocation:
    def test_regions_are_disjoint(self):
        m = Memory()
        h1 = m.alloc(16, "heap")
        h2 = m.alloc(16, "stack")
        h3 = m.alloc(16, "global")
        bases = sorted([h1.base, h2.base, h3.base])
        assert len(set(bases)) == 3

    def test_homes_word_aligned(self):
        m = Memory()
        m.alloc(3, "heap")
        h = m.alloc(5, "heap")
        assert h.base % 4 == 0

    def test_gap_regions(self):
        m = Memory(gap_regions={"heap"})
        a = m.alloc(8, "heap")
        b = m.alloc(8, "heap")
        assert b.base >= a.end + 4

    def test_contiguous_packing(self):
        m = Memory(gap_regions=set())
        a = m.alloc(8, "heap")
        b = m.alloc(8, "heap")
        assert b.base == a.end

    def test_home_of_resolution(self):
        m = Memory()
        h = m.alloc(16, "heap", "blk")
        assert m.home_of(h.base) is h
        assert m.home_of(h.base + 15) is h
        assert m.home_of(h.end) is not h

    def test_free_marks_dead(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.free(h)
        assert not h.alive

    def test_stats(self):
        m = Memory()
        m.alloc(10, "heap")
        m.alloc(6, "stack")
        assert m.allocations == 2
        assert m.bytes_allocated == 16


class TestRawAccess:
    def test_roundtrip_bytes(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_raw(h.base, b"abcdefgh")
        assert m.read_raw(h.base + 2, 3) == b"cde"

    def test_unmapped_read_faults(self):
        m = Memory()
        with pytest.raises(SegmentationFault):
            m.read_raw(0xDEAD, 4)

    def test_spanning_write_contiguous(self):
        m = Memory(gap_regions=set())
        a = m.alloc(4, "stack")
        b = m.alloc(4, "stack")
        m.write_raw(a.base, b"12345678")  # spans into b
        assert bytes(b.data) == b"5678"

    def test_spanning_write_with_gap_faults(self):
        m = Memory(gap_regions={"stack"})
        a = m.alloc(4, "stack")
        m.alloc(4, "stack")
        with pytest.raises(SegmentationFault):
            m.write_raw(a.base, b"12345678")

    def test_int_roundtrip_signed(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_int(h.base, -5, 4)
        assert m.read_int(h.base, 4, True) == -5
        assert m.read_int(h.base, 4, False) == 0xFFFFFFFB

    def test_short_and_char(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_int(h.base, 0x1234, 2)
        assert m.read_int(h.base, 2, False) == 0x1234
        m.write_int(h.base, 0x9C, 1)
        assert m.read_int(h.base, 1, True) == 0x9C - 256

    def test_float_roundtrip(self):
        m = Memory()
        h = m.alloc(16, "heap")
        m.write_float(h.base, 3.25, 8)
        assert m.read_float(h.base, 8) == 3.25
        m.write_float(h.base, 1.5, 4)
        assert m.read_float(h.base, 4) == 1.5

    def test_little_endian_layout(self):
        m = Memory()
        h = m.alloc(4, "heap")
        m.write_int(h.base, 0x11223344, 4)
        assert m.read_raw(h.base, 1) == b"\x44"


class TestShadowMetadata:
    def test_pointer_meta_roundtrip(self):
        m = Memory()
        h = m.alloc(8, "heap")
        meta = PtrMeta(b=100, e=200, rtti=3)
        m.write_ptr(h.base, 0x1000, meta)
        value, got = m.read_ptr(h.base)
        assert value == 0x1000
        assert got.b == 100 and got.e == 200 and got.rtti == 3

    def test_int_write_clears_meta(self):
        """Figure 10's tag invariant: writing an integer over a stored
        pointer invalidates the pointer's metadata."""
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_int(h.base, 42, 4)
        value, got = m.read_ptr(h.base)
        assert value == 42 and got is None

    def test_partial_overwrite_clears_meta(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_int(h.base + 2, 7, 1)  # clobbers one byte of the word
        _, got = m.read_ptr(h.base)
        assert got is None

    def test_tag_query(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        assert m.has_ptr_tag(h.base)
        assert not m.has_ptr_tag(h.base + 4)

    def test_null_meta_write_clears(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_ptr(h.base, 0, None)
        _, got = m.read_ptr(h.base)
        assert got is None

    def test_free_clears_meta(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.free(h)
        assert not h.meta


class TestScalarCodecs:
    """``read_int``/``write_int`` decode in place with ``struct`` codecs
    and remember the last home; ``read_raw`` (no codec, no memo) and
    ``int.from_bytes``/``to_bytes`` are the reference."""

    SIZES = (1, 2, 4, 8)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("signed", (False, True))
    def test_matches_int_from_bytes(self, size, signed):
        m = Memory()
        h = m.alloc(16, "heap")
        top = 1 << (8 * size)
        for value in (0, 1, -1, top // 2 - 1, top // 2, -(top // 2),
                      top - 1, top, 0x123456789ABCDEF0, -0x1234567):
            for off in (0, 16 - size):
                m.write_int(h.base + off, value, size)
                raw = m.read_raw(h.base + off, size)
                assert raw == (value % top).to_bytes(size, "little")
                assert m.read_int(h.base + off, size, signed) == \
                    int.from_bytes(raw, "little", signed=signed)

    @pytest.mark.parametrize("size", (2, 4, 8))
    def test_access_spanning_two_homes(self, size):
        m = Memory(gap_regions=set())
        a = m.alloc(4, "stack")
        b = m.alloc(8, "stack")
        assert b.base == a.end
        addr = a.end - 1
        m.write_int(addr, -2, size)
        raw = bytes(a.data[3:]) + bytes(b.data[:size - 1])
        assert raw == ((1 << (8 * size)) - 2).to_bytes(size, "little")
        assert m.read_int(addr, size, True) == -2
        assert m.read_int(addr, size, False) == \
            int.from_bytes(raw, "little")

    @pytest.mark.parametrize("size", SIZES)
    def test_access_into_unmapped_memory_faults(self, size):
        m = Memory(gap_regions={"heap"})
        h = m.alloc(8, "heap")
        m.read_int(h.base, 1, False)  # the memo now holds h
        addr = h.end - size + 1       # the last byte is in the gap
        with pytest.raises(SegmentationFault,
                           match=f"read of unmapped address "
                                 f"0x{h.end:x}"):
            m.read_int(addr, size, False)
        with pytest.raises(SegmentationFault,
                           match=f"write to unmapped address "
                                 f"0x{h.end:x}"):
            m.write_int(addr, 1, size)

    def test_memo_after_free(self):
        m = Memory()
        a = m.alloc(8, "heap")
        b = m.alloc(8, "heap")
        m.write_int(a.base, 7, 4)
        m.free(a)  # a freed home stays mapped, bytes and all
        m.write_int(b.base, 9, 4)
        assert m.read_int(a.base, 4, False) == 7
        assert m.read_int(b.base, 4, False) == 9
        m.write_ptr(b.base, 0x1000, PtrMeta(b=1, e=2))
        m.free(b)
        assert m.read_ptr(b.base) == (0x1000, None)

    def test_memo_after_recycling(self):
        m = Memory(reuse_freed=True)
        h = m.alloc(8, "heap")
        m.write_ptr(h.base + 4, 0x1000, PtrMeta(b=1, e=2))
        m.write_int(h.base, 7, 4)  # the memo holds h
        m.free(h)
        again = m.alloc(8, "heap")
        assert again is h and again.base == h.base
        # stale bytes, fresh shadow state, same address
        assert m.read_int(again.base, 4, False) == 7
        assert m.read_ptr(again.base + 4) == (0x1000, None)
        m.write_int(again.base, -1, 2)
        assert m.read_int(again.base, 4, False) == 0xFFFF
        other = m.alloc(8, "heap")
        m.write_int(other.base, 3, 8)
        assert m.read_int(again.base, 4, False) == 0xFFFF
        assert m.read_int(other.base, 8, True) == 3

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("read", "write", "ptr", "free", "alloc")),
        st.integers(0, 7), st.integers(-2, 12), st.sampled_from(SIZES),
        st.booleans(), st.integers(-(1 << 63), (1 << 64) - 1)),
        max_size=40))
    def test_random_accesses_match_raw_bytes(self, ops):
        m = Memory(gap_regions={"stack"}, reuse_freed=True)
        homes = [m.alloc(4 * (i % 3 + 1), "heap" if i % 2 else "stack")
                 for i in range(4)]
        for op, which, off, size, signed, value in ops:
            h = homes[which % len(homes)]
            addr = h.base + off
            try:
                raw = m.read_raw(addr, size)
            except SegmentationFault:
                raw = None
            if op == "alloc":
                homes.append(m.alloc(4 * (which % 3 + 1), "heap"))
            elif op == "free":
                if h.region == "heap" and not h.freed:
                    m.free(h)
            elif op == "ptr":
                if raw is None or size != 4:
                    continue
                m.write_ptr(addr, value, PtrMeta(b=value))
                assert m.read_raw(addr, 4) == \
                    (value % (1 << 32)).to_bytes(4, "little")
                assert m.read_ptr(addr) == (value % (1 << 32),
                                            PtrMeta(b=value))
            elif raw is None:
                with pytest.raises(SegmentationFault):
                    if op == "read":
                        m.read_int(addr, size, signed)
                    else:
                        m.write_int(addr, value, size)
            elif op == "read":
                assert m.read_int(addr, size, signed) == \
                    int.from_bytes(raw, "little", signed=signed)
            else:
                m.write_int(addr, value, size)
                assert m.read_raw(addr, size) == \
                    (value % (1 << (8 * size))).to_bytes(size, "little")
