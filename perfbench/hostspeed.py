"""Host-speed sampling: time a fixed reference loop while the workload runs.

The host gives this process a share of a core whose speed swings: a
fixed Python loop runs 1.5x slower, and at times over 2x, while the
core's other hardware thread is busy, in spells of about a second, and
the busy share drifts over minutes. A workload timed in one run and
again in the next could then differ by a third with no change to the
code.

`Sampler` interrupts the running code every INTERVAL_S of wall time
(SIGALRM) and, in the signal handler, times `reference()`: about 0.17 ms
of interpreter work shaped like the miner's list join. The code between
two samples is taken to have run at the speed of the sample that ends the gap (the
time after the last sample, at the speed of the last one). For an
interval [t0, t1]:

    work_s = wall time in [t0, t1] spent outside the handler
    host_s = the same time, each piece scaled by (REFERENCE_S / sample)
             to the power EXPONENT

`work_s` is the raw time, the sampler's own 0.2 % taken out. `host_s` is
that time at the host's full speed: the seconds the same work takes
here when the core's other hardware thread is idle. The end-to-end
timings report `host_s`; the reports keep `work_s` beside it.
"""

import bisect
import gc
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.1
# samples a Sampler keeps: ten minutes' worth, where a run of the
# benchmark takes three at most; later ones are not taken
CAPACITY = 6_000
# seconds one reference() takes at the host's full speed: calibrate() on
# the benchmark host (Intel Xeon at 2.0 GHz, Python 3.11.7) gave
# 0.158-0.179 ms at different times; `python3 perfbench/hostspeed.py`
# measures it again. It only sets the scale of host_s, so it stays fixed
# from one commit to the next
REFERENCE_S = 1.70e-4
# the workloads slow down more than the reference: as the power EXPONENT
# of its slowdown. Fitting log(pass time) on log(reference speed) over
# 329 passes of the four workloads, at 0.45-0.98 of full speed, gave
# 1.06 (c7-wide) to 1.26 (dense-deep). Replayed on those passes, 1.2
# instead of 1 narrowed the ten-seed spreads of solve_s and mine_s from
# 0.02-0.14 to 0.01-0.06
EXPONENT = 1.2


# fixed data of the reference, built once: its samples then allocate only
# small objects that are freed at once, and leave the workload's peak
# memory as it was
_IDS = 500
_INDEX = {t: j for j, t in enumerate(range(0, 3 * _IDS, 3))}
_PROBES = tuple(range(0, 2 * _IDS, 2))


def reference() -> float:
    """Work shaped like the miner's list join, on fixed data: probe a
    dict index of one sorted id list with another, build a tuple with
    float arithmetic per match, then sum floats into a short list."""
    index = _INDEX
    total = 0.0
    for j, t in enumerate(_PROBES):
        k = index.get(t)
        if k is not None:
            pair = (t, j * 0.5 + k * 0.25)
            total += pair[1]
    acc = [0.0] * 32
    for i in range(2 * _IDS):
        acc[i & 31] += (i * 0.5) * (i * 0.25)
    return total + acc[0]


class Sampler:
    """Times `reference()` every INTERVAL_S of wall time while active.

    Use as a context manager around the code to be timed, as often as
    needed; then `times` gives (work_s, host_s) of any interval inside.
    The samples go to arrays allocated once, in full: lists grown while
    the workload runs left small blocks among its large ones and raised
    its peak memory by up to 3 MB, by chance."""

    def __init__(self):
        self.starts = array("d", bytes(8 * CAPACITY))
        self.ends = array("d", bytes(8 * CAPACITY))
        self.count = 0
        self._previous = None

    def _sample(self, _signum, _frame):
        if self.count == CAPACITY:
            return
        # a collection started by the reference's own allocations would
        # time the workload's heap, not the host
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts[self.count] = t0
        self.ends[self.count] = t1
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        """(work_s, host_s) of [t0, t1]."""
        starts, ends, n = self.starts, self.ends, self.count
        if not n:
            return t1 - t0, t1 - t0
        work = host = 0.0
        # the first sample that ends after t0 ends the gap holding t0
        i = bisect.bisect_right(ends, t0, 0, n)
        t = t0
        while t < t1:
            gap_end, k = (min(starts[i], t1), i) if i < n else (t1, n - 1)
            if gap_end > t:
                work += gap_end - t
                host += (gap_end - t) * (REFERENCE_S / (ends[k] - starts[k])) ** EXPONENT
            if i >= n:
                break
            t = max(t, ends[i])
            i += 1
        return work, host


def calibrate(samples: int = 20_000) -> float:
    """Median of the fastest tenth of `samples` reference loops, on an
    idle host: how REFERENCE_S was set."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    times.sort()
    return statistics.median(times[: max(1, samples // 10)])


if __name__ == "__main__":
    print(f"reference(): {calibrate():.4g} s at full speed (REFERENCE_S = {REFERENCE_S:.4g})")
