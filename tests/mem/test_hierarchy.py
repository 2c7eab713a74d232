"""Cache-hierarchy (L1/L2/LLC/DRAM) tests."""

import pytest

from repro.mem.hierarchy import CacheHierarchy


class TestSingleCore:
    def test_cold_access_goes_to_dram(self):
        h = CacheHierarchy(n_cores=1)
        r = h.access(0, 0x1000)
        assert r.level == "DRAM" and r.dram

    def test_second_access_hits_l1(self):
        h = CacheHierarchy(n_cores=1)
        h.access(0, 0x1000)
        r = h.access(0, 0x1000)
        assert r.level == "L1" and not r.dram

    def test_latency_grows_down_the_hierarchy(self):
        h = CacheHierarchy(n_cores=1)
        lat = {}
        h.access(0, 0)
        lat["L1"] = h.access(0, 0).latency_s
        # Evict from L1 (32 KB, 64 sets x 8 ways): stream 64 KiB
        for i in range(1, 1024 + 1):
            h.access(0, i * 64)
        r = h.access(0, 0)
        assert r.level in ("L2", "LLC")
        assert r.latency_s > lat["L1"]

    def test_stats_count_levels(self):
        h = CacheHierarchy(n_cores=1)
        h.access(0, 0)
        h.access(0, 0)
        st = h.stats[0]
        assert st.dram_accesses == 1
        assert st.l1_hits == 1
        assert st.accesses == 2

    def test_flush_forces_dram(self):
        h = CacheHierarchy(n_cores=1)
        h.access(0, 0)
        h.flush()
        assert h.access(0, 0).level == "DRAM"


class TestSharedLlc:
    def test_cores_share_llc_data(self):
        h = CacheHierarchy(n_cores=2)
        h.access(0, 0x2000)  # core 0 brings the line into the LLC
        r = h.access(1, 0x2000)  # core 1 misses private caches, hits LLC
        assert r.level == "LLC"

    def test_private_caches_are_private(self):
        h = CacheHierarchy(n_cores=2)
        h.access(0, 0x2000)
        h.access(1, 0x2000)
        r = h.access(1, 0x2000)
        assert r.level == "L1"  # second touch by core 1 is local

    def test_interleave_runs_all_traces(self):
        h = CacheHierarchy(n_cores=2)
        t0 = [i * 64 for i in range(100)]
        t1 = [(1 << 24) + i * 64 for i in range(50)]
        stats = h.interleave([t0, t1])
        assert stats[0].accesses == 100
        assert stats[1].accesses == 50

    def test_interleave_rejects_too_many_traces(self):
        h = CacheHierarchy(n_cores=1)
        with pytest.raises(ValueError):
            h.interleave([[0], [64]])

    def test_llc_contention_raises_miss_ratio(self):
        """Two streaming cores over > capacity thrash the shared LLC more
        than one core alone — the paper's core mechanism, trace-driven."""
        llc_lines = CacheHierarchy().llc.config.n_lines
        span = llc_lines * 64  # exactly LLC capacity per core
        solo = CacheHierarchy(n_cores=2)
        trace = [i * 64 for i in range(span // 64)] * 2
        solo.access_trace(0, trace)
        duo = CacheHierarchy(n_cores=2)
        other = [(1 << 30) + i * 64 for i in range(span // 64)] * 2
        duo.interleave([trace, other])
        assert duo.stats[0].llc_miss_ratio >= solo.stats[0].llc_miss_ratio

    def test_invalid_core_index_raises(self):
        h = CacheHierarchy(n_cores=1)
        with pytest.raises(IndexError):
            h.access(3, 0)

    def test_negative_core_index_raises(self):
        h = CacheHierarchy(n_cores=2)
        with pytest.raises(IndexError):
            h.access(-1, 0)
        with pytest.raises(IndexError):
            h.access_trace(-2, [0])
        assert [s.accesses for s in h.stats] == [0, 0]

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(n_cores=0)
