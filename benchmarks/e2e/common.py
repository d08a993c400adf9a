"""Shared plumbing of the end-to-end benchmark: paths, environment, stats,
and the speed normalisation of wall times.

Every workload module returns a :class:`Outcome`; ``run.py`` turns it into
the printed metrics, the final JSON line and one JSON-Lines record under
``benchmarks/results/e2e/``.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: (start, end) ``time.perf_counter`` readings of one timed call.
Span = Tuple[float, float]

#: fresh starts timed per run; ``setup_s`` is their median.  Single starts
#: vary by up to half their time on a shared 2-core machine.
SETUP_STARTS = 5


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The program is imported from the checkout's ``src/``.  Compiled kernels
    and temporary files land under the gitignored results directory, so a
    run reads and writes only inside its checkout.
    """
    scratch = RESULTS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Fresh starts load cached bytecode, as an installed package would,
    # instead of compiling every module each time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_KERNEL_CACHE"] = str(RESULTS / "kernels")
    env["TMPDIR"] = str(scratch)
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared 2-core VM, work on one vCPU slowed a ``diversify()`` call
    on the other by up to 2x, and the scheduler moves processes between
    vCPUs that run at different speeds.  On one CPU the reference probes
    (below) time the same vCPU as the program, and the daemon and its
    client take turns instead of slowing each other down.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})


def load_spec() -> dict:
    """The root ``BENCHMARK.json``: workload and metric names, units."""
    return json.loads(SPEC_PATH.read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    """The median (linear interpolation); NaN when empty."""
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------- speed normalisation
#
# A shared 2-core VM runs at 0.6-1.0x of its own top speed, in stretches of
# seconds to minutes, so the same solve reads 1.5x slower in one run than
# in the next.  No statistic within a 20 s run removes a stretch longer
# than the run.  What does: a fixed reference loop slows by the same
# factor as the program, so every timed span is scaled by the reference
# timings taken around it.  Over four minutes of alternating probes and
# ``diversify()`` calls, the calls' 10 s medians varied by 17% (1.65x
# from slowest to fastest) and their ratio to the probes' medians by 3-4%.
# A reported time is the wall time the span would have taken at the speed
# where the reference takes REFERENCE_S; the raw wall times stay in the
# JSON-Lines record.

#: the reference loop's median time in a fast stretch of a 2-core Intel
#: Xeon VM at 2.1 GHz: the speed every reported time is normalised to.
REFERENCE_S = 0.007
#: reference timings within this many seconds of a span scale it.  One
#: probe varies by a fifth on its own; the median of the ten or more in
#: this window does not, and still follows stretches longer than a solve.
SPEED_WINDOW_S = 2.0


def reference_seconds() -> float:
    """CPU seconds of a fixed interpreter loop: dictionary reads and writes.

    Of the candidates tried against ``diversify()`` calls over four
    minutes, this loop's 10 s medians followed the calls' most closely:
    the calls slowed 1.0% for every 1% this loop slowed, against 0.7-0.9%
    for numpy gathers and scatter-mins and 1.7-2.0% for large-array sums
    and sorts.  The calling thread's CPU time leaves out
    waits for the interpreter lock and for a core, which the serve
    workloads' other threads and processes cause; a slow machine still
    shows in it.
    """
    began = time.thread_time()
    counts: Dict[int, int] = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.thread_time() - began


class Speedometer:
    """Reference timings taken through a run, to normalise its wall times.

    ``probe`` may be called from several threads; ``scale`` once they are
    done.  Times are ``time.perf_counter`` readings.
    """

    def __init__(self) -> None:
        #: (midpoint, reference seconds) per probe.
        self.samples: List[Tuple[float, float]] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            began = time.perf_counter()
            took = reference_seconds()
            self.samples.append(((began + time.perf_counter()) / 2, took))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median reference time near the span."""
        near = [
            took for moment, took in self.samples
            if start - SPEED_WINDOW_S <= moment <= end + SPEED_WINDOW_S
        ]
        if not near:
            nearest = min(
                self.samples,
                key=lambda sample: max(start - sample[0], sample[0] - end),
            )
            near = [nearest[1]]
        return REFERENCE_S / float(np.median(near))

    def normalise(self, start: float, end: float) -> float:
        """The span's wall seconds, at the reference speed."""
        return (end - start) * self.scale(start, end)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Attributes:
        metrics: metric name -> value; the end-to-end metrics on an
            untraced run, the per-layer metrics on a traced one.
        headline: the number ``trace.overhead_pct`` compares between
            traced and untraced runs (higher means slower).
        attempted / failed: operations tried and operations that failed.
        problems: failed correctness checks, one line each.
        samples: raw samples, kept in the JSON-Lines record.
        late_ms_max: how late the open-loop generator ran at worst.
        trace_events: the Chrome trace events of a traced run.
    """

    metrics: Dict[str, float]
    headline: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, object] = field(default_factory=dict)
    late_ms_max: float = 0.0
    trace_events: List[dict] = field(default_factory=list)
