"""Machine-speed probes that put timings on a common scale.

The shared 2-core virtual machine this benchmark was tuned on runs the same code up
to 1.7x slower for tens of seconds at a time, and slows imports and
computation at different times.  That moves every wall time far more than a
code change worth measuring.  Each chunk of measured work is therefore
bracketed by two runs of a probe whose work never changes, and its times are
multiplied by ``NOMINAL_S / (mean of the two probe times)``: the result reads
as the time at the speed where the probe takes ``NOMINAL_S``.  Neither probe
runs legshift code, so a change to the library moves scaled times as much as
raw ones.

* ``KernelProbe`` times a fixed pure-Python complex-arithmetic loop; it
  scales work done inside this process.
* ``LaunchProbe`` times ``python -c "import numpy"``; it scales child
  processes, whose cost is mostly interpreter start-up and the numpy import.
  A bare ``python -c pass`` does not track the import slow-downs.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 60


def _kernel_step(w, k):
    return cmath.exp(w * 1e-3) * (w + k) / (1.0 + abs(w)) + cmath.log(w + 2.0)


def _kernel(n):
    acc = 0j
    w = complex(0.3, 0.7)
    for k in range(n):
        acc += _kernel_step(w, k)
        w = complex(math.sin(k * 0.1) + 1.5, 0.25)
    return acc


class _Probe:
    NOMINAL_S = 1.0

    def __init__(self):
        self.samples = [self._time()]

    def _time(self) -> float:
        raise NotImplementedError

    def chunk_scale(self):
        """Scale for the work done since the previous probe: probe again and
        use the mean of the probes just before and just after the work."""
        self.samples.append(self._time())
        return self.NOMINAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))


class KernelProbe(_Probe):
    """Probe for in-process work."""

    KERNEL_N = 10000
    # typical time on a shared 2-core Intel Xeon virtual machine, CPython 3.11
    NOMINAL_S = 0.008

    def _time(self):
        t0 = time.perf_counter()
        _kernel(self.KERNEL_N)
        return time.perf_counter() - t0


class LaunchProbe(_Probe):
    """Probe for child processes."""

    # typical time on the same machine, numpy 2.4
    NOMINAL_S = 0.16

    def __init__(self, env):
        self.env = env
        super().__init__()

    def _time(self):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"],
            env=self.env, check=True, timeout=CHILD_TIMEOUT_S,
        )
        return time.perf_counter() - t0
