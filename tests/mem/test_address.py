"""Address-space and region tests."""

import numpy as np
import pytest

from repro.errors import ProfilerError
from repro.mem.address import AddressSpace, Region


class TestRegion:
    def test_scalar_addressing(self):
        r = Region("a", base=0x1000, size=256)
        assert r.addr(0) == 0x1000
        assert r.addr(255) == 0x10FF

    def test_offsets_wrap_modulo_region(self):
        r = Region("a", base=0x1000, size=256)
        assert r.addr(256) == 0x1000
        assert r.addr(300) == 0x1000 + 44

    def test_vectorized_addressing(self):
        r = Region("a", base=0x1000, size=1024)
        out = r.addr(np.array([0, 8, 16]))
        assert list(out) == [0x1000, 0x1008, 0x1010]

    def test_element_addressing(self):
        r = Region("a", base=0, size=1024)
        out = r.element_addr(np.array([0, 1, 2]), element_bytes=100)
        assert list(out) == [0, 100, 200]

    def test_end_property(self):
        assert Region("a", 100, 50).end == 150


class TestAddressSpace:
    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        a = space.alloc("a", 10_000_000)
        b = space.alloc("b", 10_000_000)
        assert a.end <= b.base

    def test_lookup_by_name(self):
        space = AddressSpace()
        a = space.alloc("a", 64)
        assert space["a"] is a
        assert "a" in space and "b" not in space

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc("a", 64)
        with pytest.raises(ProfilerError):
            space.alloc("a", 64)

    def test_zero_size_rejected(self):
        with pytest.raises(ProfilerError):
            AddressSpace().alloc("a", 0)

    def test_unknown_region_raises(self):
        with pytest.raises(ProfilerError):
            AddressSpace()["missing"]

    def test_regions_listing(self):
        space = AddressSpace()
        space.alloc("a", 64)
        space.alloc("b", 64)
        assert [r.name for r in space.regions()] == ["a", "b"]


class TestWrapOnlyWhenNeeded:
    """``Region.addr`` skips the modulo when every offset is in the region;
    each result must still equal ``base + offset % size``."""

    REGION = Region("a", base=0x10_0000_0000, size=4096)

    def want(self, offset):
        return self.REGION.base + np.asarray(offset, dtype=np.int64) % self.REGION.size

    @pytest.mark.parametrize("offset", [-1, 0, 4095, 4096, 2 * 4096])
    def test_scalar_offsets_at_the_edges(self, offset):
        got, want = self.REGION.addr(offset), self.want(offset)
        assert type(got) is type(want) and got.dtype == np.int64
        assert got == want

    @pytest.mark.parametrize("offsets", [
        [0, 4095], [0, 4095, 4096], [-1, 0], [4096, 2 * 4096], [-1, 0, 4095, 4096, 8192],
    ])
    def test_array_offsets_at_the_edges(self, offsets):
        got, want = self.REGION.addr(np.array(offsets)), self.want(offsets)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_empty_offsets(self):
        got = self.REGION.addr(np.array([], dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_result_is_not_the_offsets_array(self):
        offsets = np.array([0, 8, 16], dtype=np.int64)
        got = self.REGION.addr(offsets)
        got[0] = 1
        assert offsets.tolist() == [0, 8, 16]
