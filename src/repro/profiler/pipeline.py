"""The complete §2.4 profiling pipeline as one reusable object.

Wraps the four stages (window sampling → period detection → loop mapping →
annotation) the way the paper's preliminary profiler chains them, so a
workload author can go from an address trace to ``pp_begin`` declarations
in one call::

    pipeline = ProfilerPipeline(window_instructions=1_000_000)
    profile = pipeline.profile(trace)
    for pp in profile.periods:
        print(pp.wss_bytes, pp.reuse_level, profile.loop_of(pp))

Multi-input studies (figure 12) use :meth:`ProfilerPipeline.scaling_study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..errors import ProfilerError
from ..mem.trace import MemoryTrace
from ..mem.working_set import check_window_options
from .annotate import period_annotation
from .detect import DetectedPeriod, DetectorConfig, detect_periods
from .loopmap import Loop, SyntheticBinary, map_period_to_loop
from .regression import LogRegression, fit_log_regression, prediction_accuracy
from .sampling import WindowProfile, sample_windows

__all__ = ["ApplicationProfile", "ScalingStudy", "ProfilerPipeline"]


@dataclass
class ApplicationProfile:
    """Everything the profiler extracted from one trace."""

    trace: MemoryTrace
    windows: WindowProfile
    periods: list[DetectedPeriod]
    binary: Optional[SyntheticBinary] = None
    _loops: dict[int, Optional[Loop]] = field(default_factory=dict, repr=False)

    def loop_of(self, period: DetectedPeriod) -> Optional[Loop]:
        """The outermost loop containing a period (None without a binary)."""
        key = id(period)
        if key not in self._loops:
            if self.binary is None:
                self._loops[key] = None
            else:
                jmps = self.trace.jmps_in_window(
                    period.first_window, period.window_instructions
                )
                self._loops[key] = map_period_to_loop(self.binary, jmps)
        return self._loops[key]

    def annotations(self):
        """One :class:`~repro.workloads.base.PpSpec` per detected period."""
        return [period_annotation(p) for p in self.periods]


@dataclass(frozen=True)
class ScalingStudy:
    """A figure-12-style multi-input working-set study."""

    input_sizes: tuple[float, ...]
    wss_bytes: tuple[float, ...]
    predictor: LogRegression
    holdout_accuracy: Optional[float]

    def predict(self, input_size: float) -> float:
        return float(self.predictor.predict(input_size))


class ProfilerPipeline:
    """Configured instance of the paper's preliminary profiler."""

    def __init__(
        self,
        window_instructions: int = 1_000_000,
        detector: Optional[DetectorConfig] = None,
        granularity_bytes: int = 64,
        min_accesses: int = 2,
    ) -> None:
        if window_instructions <= 0:
            raise ProfilerError("window size must be positive")
        self.granularity_bytes, self.min_accesses = check_window_options(
            granularity_bytes, min_accesses
        )
        self.window_instructions = window_instructions
        self.detector = detector or DetectorConfig()

    # ------------------------------------------------------------------
    def profile(
        self, trace: MemoryTrace, binary: Optional[SyntheticBinary] = None
    ) -> ApplicationProfile:
        """Run sampling + detection (+ optional loop mapping) on one trace."""
        windows = sample_windows(
            trace,
            self.window_instructions,
            granularity_bytes=self.granularity_bytes,
            min_accesses=self.min_accesses,
        )
        periods = detect_periods(windows, self.detector)
        return ApplicationProfile(
            trace=trace, windows=windows, periods=periods, binary=binary
        )

    # ------------------------------------------------------------------
    def scaling_study(
        self,
        trace_factory: Callable[[float], MemoryTrace],
        input_sizes: Sequence[float],
        fit_on: int = 3,
    ) -> ScalingStudy:
        """Profile one code region across input scales and fit the log model.

        Args:
            trace_factory: maps an input size to that input's trace.
            input_sizes: the scales to profile (the paper uses 1x/2x/4x/8x).
            fit_on: how many leading scales the regression is fitted on;
                remaining scales are held out and the *first* held-out
                point's accuracy is reported (None when nothing is held
                out).
        """
        if len(input_sizes) < 2:
            raise ProfilerError("need at least two input sizes")
        if not 2 <= fit_on <= len(input_sizes):
            raise ProfilerError("fit_on must cover >= 2 and <= all inputs")
        wss = []
        for n in input_sizes:
            windows = sample_windows(
                trace_factory(n),
                self.window_instructions,
                granularity_bytes=self.granularity_bytes,
                min_accesses=self.min_accesses,
            )
            wss.append(windows.mean_wss_bytes)
        predictor = fit_log_regression(input_sizes[:fit_on], wss[:fit_on])
        accuracy = None
        if fit_on < len(input_sizes):
            accuracy = prediction_accuracy(
                float(predictor.predict(input_sizes[fit_on])), wss[fit_on]
            )
        return ScalingStudy(
            input_sizes=tuple(float(x) for x in input_sizes),
            wss_bytes=tuple(wss),
            predictor=predictor,
            holdout_accuracy=accuracy,
        )
