"""ProfilerPipeline (end-to-end §2.4) tests."""

import numpy as np
import pytest

from repro.errors import ProfilerError
from repro.profiler.detect import DetectorConfig
from repro.profiler.loopmap import SyntheticBinary
from repro.profiler.pipeline import ProfilerPipeline
from repro.workloads.tracegen import phased_trace, water_pp1_trace

WIN = 300_000


@pytest.fixture
def pipeline():
    return ProfilerPipeline(
        window_instructions=WIN,
        detector=DetectorConfig(min_period_instructions=2 * WIN),
    )


class TestProfile:
    def test_detects_periods_of_phased_trace(self, pipeline):
        trace = phased_trace(
            [("blocked", 256 * 1024, 8), ("stream", 8 << 20, 1)],
            accesses_per_phase=500_000,
        )
        profile = pipeline.profile(trace)
        assert len(profile.periods) >= 2
        assert len(profile.windows) == len(trace) // trace.window_accesses(WIN)

    def test_annotations_one_per_period(self, pipeline):
        trace = phased_trace(
            [("blocked", 128 * 1024, 8), ("blocked", 512 * 1024, 8)],
            accesses_per_phase=400_000,
        )
        profile = pipeline.profile(trace)
        specs = profile.annotations()
        assert len(specs) == len(profile.periods)
        assert all(s.demand_bytes > 0 for s in specs)

    def test_loop_mapping_with_binary(self, pipeline):
        binary = SyntheticBinary()
        f = binary.add_function("interf", 0x1000, 0x9000)
        outer = binary.add_loop(f, "rows", 0x1100, 0x8F00, backedge=0x8E00)
        binary.add_loop(f, "partners", 0x1200, 0x8D00, backedge=0x8C00, parent=outer)
        layout = {"inner_backedge": 0x8C00, "outer_backedge": 0x8E00}
        trace = water_pp1_trace(8000, n_accesses=600_000, jmp_layout=layout)
        profile = pipeline.profile(trace, binary=binary)
        assert profile.periods
        loop = profile.loop_of(profile.periods[0])
        assert loop is not None and loop.name == "rows"

    def test_loop_of_without_binary_is_none(self, pipeline):
        trace = water_pp1_trace(8000, n_accesses=600_000)
        profile = pipeline.profile(trace)
        assert profile.loop_of(profile.periods[0]) is None

    def test_invalid_window_rejected(self):
        with pytest.raises(ProfilerError):
            ProfilerPipeline(window_instructions=0)

    @pytest.mark.parametrize("option", [
        {"granularity_bytes": 0}, {"granularity_bytes": -64},
        {"min_accesses": 0}, {"min_accesses": -1},
    ])
    def test_nonpositive_granularity_or_threshold_rejected(self, option):
        # rejected up front, before any trace is sampled
        with pytest.raises(ProfilerError):
            ProfilerPipeline(**option)

    @pytest.mark.parametrize("option", [
        {"granularity_bytes": 64.0}, {"granularity_bytes": True},
        {"min_accesses": 1.5}, {"min_accesses": True},
    ])
    def test_non_integer_granularity_or_threshold_rejected(self, option):
        with pytest.raises(ProfilerError, match=next(iter(option))):
            ProfilerPipeline(**option)

    def test_integer_options_are_kept_as_python_ints(self):
        pipeline = ProfilerPipeline(granularity_bytes=np.int64(128),
                                    min_accesses=np.uint8(3))
        assert (pipeline.granularity_bytes, pipeline.min_accesses) == (128, 3)
        assert type(pipeline.granularity_bytes) is int
        assert type(pipeline.min_accesses) is int


class TestScalingStudy:
    # The scaling study needs a window large enough to span a few rows of
    # the pair sweep at the largest input — the granularity sensitivity the
    # paper handled "by manually experimenting with different window sizes".
    @pytest.fixture
    def pipeline(self):
        return ProfilerPipeline(window_instructions=1_000_000)

    def test_holdout_accuracy_reported(self, pipeline):
        study = pipeline.scaling_study(
            lambda n: water_pp1_trace(int(n), n_accesses=1_200_000),
            [8000, 15625, 32768, 64000],
        )
        assert len(study.wss_bytes) == 4
        assert study.holdout_accuracy is not None
        assert study.holdout_accuracy > 0.7
        assert study.predict(20000) > study.wss_bytes[0]

    def test_no_holdout_when_fitting_all(self, pipeline):
        study = pipeline.scaling_study(
            lambda n: water_pp1_trace(int(n), n_accesses=900_000),
            [8000, 15625, 32768],
            fit_on=3,
        )
        assert study.holdout_accuracy is None

    def test_validation(self, pipeline):
        with pytest.raises(ProfilerError):
            pipeline.scaling_study(lambda n: water_pp1_trace(8000), [8000])
        with pytest.raises(ProfilerError):
            pipeline.scaling_study(
                lambda n: water_pp1_trace(8000), [1, 2, 3], fit_on=1
            )
