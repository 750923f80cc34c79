"""Host speed sampled while an op runs, to put op times at one fixed speed.

The shared host the benchmark was tuned on changes its CPU speed by up to
1.6x within seconds and more between minutes, so raw op times of the same
code spread past any useful bound from one run to the next. `HostSpeed`
times a fixed reference kernel while the op runs and scales the op's time
to the speed at which that kernel takes its reference time.

There are two kernels, because a slow host does not slow all work alike.
The "python" kernel is interpreter work shaped like the program's
quadrature; the "numpy" kernel streams a 1 MB array like the simulation's
array passes. Each workload names the one that matches its ops.

While an op runs, a SIGALRM timer fires every `INTERVAL_S` of wall time. Its
handler runs the kernel once to warm it, then times a second run, so a sample
does not depend on what the op left in the caches. Three samples before and
three after the op cover ops shorter than the interval. An op's time at
reference speed is

    (elapsed - handler time) * mean over samples of (reference time / sample)

The mean of the speed ratio weights each interval of the op by how fast the
host ran in it. A sample that was interrupted reads long and so counts little.
Signals reach the handler between bytecodes of the main thread, so during a
long call into numpy the samples wait until the call returns.
"""

import signal
import time
from collections.abc import Callable

#: Wall time between samples while an op runs.
INTERVAL_S = 0.01
#: Samples taken right before and right after each op.
EDGE_SAMPLES = 3


def _integrand(x: float) -> float:
    return 1.0 / (1.0 + x * x)


def python_kernel() -> float:
    """A fixed slice of adaptive-Simpson-shaped work: calls, float arithmetic,
    tuple packing and a list used as a stack, like the program's quadrature."""
    total = 0.0
    stack = [(0.0, 1.0, 0)]
    for _ in range(63):
        a, b, depth = stack.pop()
        m = (a + b) / 2.0
        total += (b - a) / 6.0 * (_integrand(a) + 4.0 * _integrand(m) + _integrand(b))
        if depth < 5:
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    return total


def numpy_kernel() -> Callable[[], object]:
    """Scales one 1 MB float64 array into another. numpy is imported here,
    not with this module, so set-up samples cover the program's import."""
    import numpy as np

    src = np.ones(131072)
    dst = np.empty_like(src)
    return lambda: np.multiply(src, 1.0001, out=dst)


#: Kernel name -> (kernel factory, time of one warm run at the reference
#: speed). The times are about each kernel's median when timed alone in a
#: loop on a shared 2-vCPU Xeon VM with CPython 3.11 and numpy 2.4.
KERNELS = {
    "python": (lambda: python_kernel, 30e-6),
    "numpy": (numpy_kernel, 80e-6),
}


class HostSpeed:
    """Wrap one timed stretch at a time in start() and stop(), then scale()
    its elapsed time."""

    def __init__(self, kernel: str = "python"):
        factory, self.ref_s = KERNELS[kernel]
        self._kernel = factory()
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _warm_sample(self) -> float:
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self._warm_sample())
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [self._warm_sample() for _ in range(EDGE_SAMPLES)]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [self._warm_sample() for _ in range(EDGE_SAMPLES)]

    def ratio(self) -> float:
        """Mean host speed over the stretch, relative to the reference speed."""
        return sum(self.ref_s / s for s in self.samples) / len(self.samples)

    def scale(self, elapsed: float) -> float:
        """`elapsed` wall seconds of the stretch, less the handler's time, at
        reference speed."""
        return max(elapsed - self.handler_s, 0.0) * self.ratio()
