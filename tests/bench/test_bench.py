"""Bench harness: record schema, digests, file round-trips, the gate."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    AREA_NAMES,
    BENCH_FILES,
    BenchError,
    BenchOptions,
    BenchRecord,
    RECORD_FIELDS,
    compare_records,
    config_digest,
    format_problems,
    load_records,
    run_bench,
    write_records,
)
from repro.bench.areas import bench_sim


def record(**overrides) -> BenchRecord:
    base = dict(
        area="sim", metric="events_per_s", value=1000.0, unit="events/s",
        seed=1, config_digest="abc123", wall_s=0.5,
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestSchema:
    def test_record_fields_are_the_documented_seven(self):
        assert RECORD_FIELDS == (
            "area", "metric", "value", "unit", "seed", "config_digest",
            "wall_s",
        )
        assert set(record().to_dict()) == set(RECORD_FIELDS)

    def test_unit_drives_comparison_direction(self):
        assert record(unit="events/s").higher_is_better
        assert record(unit="events/s").gated
        assert record(unit="s").lower_is_better
        assert record(unit="s").gated
        assert not record(unit="events").gated
        assert not record(unit="GFLOPS").gated

    def test_config_digest_is_stable_and_order_insensitive(self):
        a = config_digest({"x": 1, "y": [1, 2]})
        b = config_digest({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 16
        assert config_digest({"x": 2, "y": [1, 2]}) != a

    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        records = [record(), record(metric="events_total", unit="events")]
        write_records(path, records)
        assert load_records(path) == records
        # the file itself is plain sorted JSON (diff-friendly)
        payload = json.loads(open(path).read())
        assert isinstance(payload, list) and len(payload) == 2

    def test_load_rejects_wrong_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(BenchError):
            load_records(str(bad))
        bad.write_text('[{"area": "sim"}]')
        with pytest.raises(BenchError, match="keys"):
            load_records(str(bad))


class TestCompare:
    def test_within_tolerance_passes(self):
        base = [record(value=1000.0)]
        cur = [record(value=800.0)]  # -20% < 30% tolerance
        assert compare_records(base, cur, 0.30) == []

    def test_throughput_regression_fails(self):
        base = [record(value=1000.0)]
        cur = [record(value=600.0)]  # -40%
        problems = compare_records(base, cur, 0.30)
        assert len(problems) == 1 and "below baseline" in problems[0]

    def test_throughput_improvement_passes(self):
        assert compare_records([record(value=1000.0)],
                               [record(value=5000.0)], 0.30) == []

    def test_latency_regression_fails(self):
        base = [record(metric="p99", unit="s", value=0.010)]
        cur = [record(metric="p99", unit="s", value=0.020)]  # 2x slower
        problems = compare_records(base, cur, 0.30)
        assert len(problems) == 1 and "above baseline" in problems[0]

    def test_latency_improvement_passes(self):
        base = [record(metric="p99", unit="s", value=0.010)]
        cur = [record(metric="p99", unit="s", value=0.001)]
        assert compare_records(base, cur, 0.30) == []

    def test_counts_are_informational(self):
        base = [record(metric="events_total", unit="events", value=1000.0)]
        cur = [record(metric="events_total", unit="events", value=1.0)]
        assert compare_records(base, cur, 0.30) == []

    def test_digest_mismatch_is_a_hard_failure(self):
        base = [record(config_digest="aaaa")]
        cur = [record(config_digest="bbbb", value=99999.0)]
        problems = compare_records(base, cur, 0.30)
        assert len(problems) == 1 and "re-bless" in problems[0]

    def test_missing_metric_is_a_failure(self):
        problems = compare_records([record()], [], 0.30)
        assert len(problems) == 1 and "missing" in problems[0]

    def test_format_problems(self):
        assert "no regressions" in format_problems([])
        assert "1 regression" in format_problems(["sim/x: slow"])


class TestRunner:
    def test_area_names_match_files(self):
        assert AREA_NAMES == (
            "sim", "serve", "cluster", "fleet", "serve_overload",
            "serve_predict", "mem", "profiler",
        )
        assert set(BENCH_FILES) == set(AREA_NAMES)

    def test_unknown_area_is_rejected(self, tmp_path):
        opts = BenchOptions(areas=["sim", "nope"], out_dir=str(tmp_path))
        with pytest.raises(BenchError, match="nope"):
            run_bench(opts, echo=lambda _line: None)

    def test_missing_baseline_is_rejected(self, tmp_path):
        opts = BenchOptions(
            quick=True, areas=["sim"], out_dir=str(tmp_path),
            compare_to=str(tmp_path / "absent"),
        )
        with pytest.raises(BenchError, match="does not exist"):
            run_bench(opts, echo=lambda _line: None)

    def test_quick_and_full_share_config_digests(self):
        # rep counts must not leak into the digest: a --quick CI run has to
        # be comparable against best-of-3 committed baselines
        quick = {r.metric: r for r in bench_sim(5, reps=1)}
        full_digest = quick["events_per_s"].config_digest
        assert all(r.config_digest == full_digest for r in quick.values())
        other_seed = bench_sim(6, reps=1)[0]
        assert other_seed.config_digest != full_digest


class TestCommittedBaselines:
    """The BENCH_*.json files at the repo root stay loadable and coherent."""

    @pytest.mark.parametrize("area", AREA_NAMES)
    def test_baseline_file_is_valid(self, area):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        path = os.path.join(root, BENCH_FILES[area])
        records = load_records(path)
        assert records, f"{path} is empty"
        digests = {r.config_digest for r in records}
        assert len(digests) == 1, "one digest per area file"
        assert all(r.area == area for r in records)
