"""Machine-speed probe: puts times taken at different moments on one scale.

On a 2-vCPU KVM guest (Intel Xeon, host shared with other guests) the
speed a process gets drifts by +-25% over seconds: a diamond step took
15 to 25 ms within one minute, and thread CPU time followed wall time,
so the vCPU ran slower rather than being descheduled. A fixed piece of
work with the same mix as the program (numpy ufuncs, gathers and
scatters on 1024-lane arrays, a short interpreted loop) slowed by the
same factor: in that minute the step/probe ratio stayed within +-3%.

So every measured interval gets a probe run just before and just after
it, and is reported in reference seconds:

    reference_s = raw_s * REFERENCE_S / median(probes around the interval)

REFERENCE_S is about what the probe takes on that guest when it runs at
full speed, so reference seconds read close to its fastest wall seconds.
The probe is the benchmark's own code; no change to the program can
move it. It tracks pure-Python work (the Reference and ScalarOpt
kernels) less closely than numpy work.
"""

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3

_rng = np.random.default_rng(20171002)
_LANES = _rng.random(1024)
_INDEX = _rng.integers(0, 2048, 1024)


def _work():
    dest = np.zeros(2048)
    acc = 0.0
    for _ in range(60):
        x = np.exp(-1.3 * _LANES) * np.sqrt(_LANES + 1.0)
        np.add.at(dest, _INDEX, np.where(x > 0.5, x, 0.0))
        x = dest[_INDEX] * 2.0
        for k in range(50):
            acc += k * 0.5
    return acc + float(x[0])


class SpeedProbe:
    """Runs the probe on demand; scales intervals by the probes near them."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.spent = 0.0  # total probe time, to take out of enclosing walls

    def __call__(self):
        t0 = time.perf_counter()
        _work()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(elapsed)
        self.spent += elapsed

    def scale(self, start, end):
        """REFERENCE_S over the median probe from just before `start` to
        just after `end`."""
        lo = max(bisect.bisect_right(self.starts, start) - 1, 0)
        hi = bisect.bisect_left(self.starts, end) + 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def reference_s(self, start, end, raw=None):
        """The interval [start, end] (or `raw` seconds spent in it) in
        reference seconds."""
        raw = end - start if raw is None else raw
        return raw * self.scale(start, end)
