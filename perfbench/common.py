"""Shared plumbing: locating the program, results, checks and /proc reads."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BENCH_DIR",
    "CAL_REF_S",
    "HostSpeed",
    "OUT_DIR",
    "ROOT",
    "SRC_DIR",
    "Result",
    "digest",
    "ensure_program",
    "peak_rss_mb",
    "pin_to_one_cpu",
    "proc_cpu_s",
    "program_env",
    "round_sig",
    "setup_probes",
    "VEC_REF_S",
    "vector_round",
]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: the checkout root: the benchmark always runs from it
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
#: everything a run writes (span dumps, results, sockets, journals)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def ensure_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {SRC_DIR}/repro; run from the "
            "root of a repository checkout", file=sys.stderr,
        )
        raise SystemExit(2)
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The vCPUs of a shared host do not run at one speed: one may run the
    same code twice as slowly as the other while a neighbour is busy.  On
    one CPU, the host-speed samples see the same CPU as the work they
    normalise, and the server and the driver cannot land on different ones.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def program_env() -> Dict[str, str]:
    """Environment for child Python processes running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # a fixed hash seed keeps the program's set and dict-of-str iteration
    # order, and so its behaviour, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Result:
    """What one workload run produced."""

    #: end-to-end metrics: name -> (value, unit, sample count)
    e2e: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: further measurements printed with the result but not gated
    info: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: per-layer metrics (traced runs): name -> (value, unit)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: the base of each per-layer ratio: name -> (what, count)
    bases: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: output checks: (name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: informational lines printed before the result
    notes: List[str] = field(default_factory=list)
    #: the simulated outputs the digest covers (batch workloads)
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: span dump paths of traced processes, by process role
    dumps: Dict[str, str] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def round_sig(x: float, digits: int = 9) -> float:
    """``x`` to ``digits`` significant digits (stable across platforms)."""
    return float(f"{x:.{digits}g}")


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return float("nan")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds consumed so far by ``pid`` (nanosecond schedstat)."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        return int(fh.read().split()[0]) / 1e9


#: seconds of one calibration round on the host the benchmark was built on
#: (2-vCPU VM, CPython 3.11): normalised times read in that host's seconds
CAL_REF_S = 0.0039
#: calibration rounds per host-speed sample (their median is the sample)
CAL_ROUNDS = 3


def _calibration_round() -> float:
    """A fixed mix of interpreter work: dict, float, list and tiny numpy ops.

    It lives in the benchmark, not the program, so a change to the program
    never changes it: it measures only how fast the host runs Python now.
    """
    import numpy as np

    table: Dict[int, int] = {}
    acc = 0.0
    buf: List[float] = []
    small = np.arange(8)
    started = time.perf_counter()
    for i in range(6000):
        k = i & 127
        table[k] = table.get(k, 0) + 1
        acc += (i % 7) * 0.5
        buf.append(acc)
        if len(buf) > 32:
            buf.clear()
        if i & 7 == 0:
            np.nonzero(small == k)
    return time.perf_counter() - started


#: seconds of one vector round on the host the benchmark was built on
VEC_REF_S = 0.003
_VECTOR_DATA: List[Any] = []


def vector_round() -> float:
    """Sort 2 MB of fixed random integers: numpy work over large arrays.

    Items that spend their time in numpy calls over arrays larger than a
    core's caches slow down with the host differently from interpreter
    work, so they are normalised by this round instead.
    """
    import numpy as np

    if not _VECTOR_DATA:
        _VECTOR_DATA.append(np.random.default_rng(0).integers(0, 1 << 30, 1 << 18))
    started = time.perf_counter()
    np.sort(_VECTOR_DATA[0])
    return time.perf_counter() - started


class HostSpeed:
    """Host speed sampled between timed items, to normalise their times.

    A shared host runs the same code up to twice as slowly at one moment
    as at another, for seconds to minutes at a time.  Sampling a fixed
    kernel right before and right after each item and scaling the item's
    time by ``ref_s`` (the kernel's time on the reference host) over the
    mean of the two cancels most of that drift, while a change to the
    program moves the item's time alone.  ``round_fn`` runs the kernel
    once and returns its host seconds; the default is the pure-Python
    calibration round.  Item ``i`` must run between samples ``i`` and
    ``i + 1``.
    """

    def __init__(self, round_fn: Optional[Callable[[], float]] = None,
                 ref_s: float = CAL_REF_S) -> None:
        self.round_fn = round_fn or _calibration_round
        self.ref_s = ref_s
        self.samples: List[float] = []
        #: CPU seconds this process spent sampling, to leave out of its
        #: CPU accounting
        self.cpu_s = 0.0
        self.mark()

    def mark(self, *_: Any) -> None:
        """Take a sample (usable as a progress callback)."""
        cpu0 = time.process_time()
        rounds = [self.round_fn() for _ in range(CAL_ROUNDS)]
        self.samples.append(sorted(rounds)[CAL_ROUNDS // 2])
        self.cpu_s += time.process_time() - cpu0

    def info(self) -> Tuple[float, str, int]:
        """The median sample, as a ``Result.info`` entry."""
        return (sorted(self.samples)[len(self.samples) // 2] * 1e3, "ms",
                len(self.samples))

    def normalise(self, seconds: List[float]) -> List[float]:
        """The times of items 0, 1, ... in reference seconds."""
        s = self.samples
        return [t * self.ref_s * 2 / (s[i] + s[i + 1])
                for i, t in enumerate(seconds)]


def setup_probes(workload: str, seed: int, count: int) -> List[float]:
    """Start-to-first-access times of ``count`` fresh batch processes.

    Each probe is a new interpreter that imports the program, builds the
    workload's inputs and performs its first simulated or traced access,
    then prints the wall-clock time it got there.  The times are
    normalised to the host's speed (see :class:`HostSpeed`).
    """
    speed = HostSpeed()
    samples = []
    for _ in range(count):
        started = time.time()
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "batch.py"),
             "--probe", workload, "--seed", str(seed)],
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]) - started)
        speed.mark()
    return speed.normalise(samples)
