"""The machine's speed, sampled while a timed job or import runs.

On a shared host the speed of one core changes by up to 1.6x within a second
(other tenants on the same physical core), and a process's CPU time moves
with its wall time, so neither measures the program alone.  `SpeedProbe`
runs a fixed reference kernel from a SIGALRM handler every `interval`
seconds while the timed code runs, and keeps how long each run took.

`probe.scaled(wall)` turns the wall time of the timed code into reference
seconds: the wall time the probe did not use, times the machine's mean speed
over that time relative to the kernel's reference time (its time in a tight
loop on an unloaded core of a 2.1 GHz Xeon).  Work fxnet adds or removes moves the scaled time as much as
the wall time; a change of the machine's speed moves the kernel's time with
the program's and cancels.

Two kernels: `numpy_kernel()` runs the small-array numpy operations and
Python loop that fxnet's jobs spend their time in; `python_kernel()` needs
no import and times `import fxnet`:

    python3 perfbench/speed.py

imports fxnet (from PYTHONPATH) under a probe and prints
`{"spent": ..., "speed": ...}`; the caller scales its wall time of the whole
interpreter with that.
"""

from __future__ import annotations

import signal
import time

JOB_INTERVAL_S = 0.02
IMPORT_INTERVAL_S = 0.005
NUMPY_KERNEL_REF_S = 1.75e-4
PYTHON_KERNEL_REF_S = 1.35e-5


def python_kernel() -> int:
    table = {}
    s = 0
    for i in range(200):
        s += i * i
        table[i & 15] = s
    return s


def numpy_kernel():
    """A kernel of its own arrays: element-wise updates of a 96-vector and
    Givens rotations of rows of a 74 x 74 matrix (fxnet's Jacobi step)."""
    import numpy as np

    x0 = np.linspace(0.0, 1.0, 96)
    a = np.random.default_rng(0).random((74, 74))

    def kernel() -> float:
        x = x0
        for _ in range(60):
            x = x * 0.999 + 0.001
        for p in range(30):
            r, q = a[p], a[p + 1]
            t = r * 0.6 - q * 0.8
            a[p + 1] = r * 0.8 + q * 0.6
            a[p] = t
        return float(x[0])

    return kernel


class SpeedProbe:
    """Context manager; the probe runs only between `__enter__` and `__exit__`.

    One sample is taken on entry and one on exit, so a probe always has two
    even if the timed code never returns to the interpreter in between (a
    signal handler runs only between bytecodes).
    """

    def __init__(self, kernel, ref_s: float, interval: float) -> None:
        self.kernel, self.ref_s, self.interval = kernel, ref_s, interval
        self.samples: list[float] = []  # seconds per kernel run
        self.spent = 0.0  # wall seconds the probe used inside the timed code

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t0

    def _tick(self, signum, frame) -> None:
        t0 = self._sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.kernel()  # warm up
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference (1: unloaded).

        The mean of the speeds, not of the kernel times: the machine is fast
        or slow in stretches, and a job's work is its speed summed over time.
        """
        return sum(self.ref_s / s for s in self.samples) / len(self.samples)

    def scaled(self, wall: float) -> float:
        """Reference seconds of code that took `wall` seconds under the probe."""
        return (wall - self.spent) * self.speed()


if __name__ == "__main__":
    probe = SpeedProbe(python_kernel, PYTHON_KERNEL_REF_S, IMPORT_INTERVAL_S)
    with probe:
        import fxnet  # noqa: F401
    print(f'{{"spent": {probe.spent!r}, "speed": {probe.speed()!r}}}')
