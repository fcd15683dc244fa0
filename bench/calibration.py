"""Machine-speed calibration for timings on a shared host.

The benchmark host is shared: its speed drifts by 25-35 % over a few
seconds, and process CPU time drifts with wall time, so the drift is the
machine's speed, not scheduling.  A fixed reference task (forward-mode dual
numbers in a small Python class plus length-3 numpy products: the same kind
of work as the program, but frozen here so no change to the program moves
it) runs between operations.  Each operation's time is scaled by
``REF_NOMINAL_S / reference time``, taken as the geometric mean of the
reference runs just before and just after it.  A calibrated time reads as
seconds on a machine where the reference task takes ``REF_NOMINAL_S``.
The raw times are reported beside the calibrated ones.
"""

import math
from time import perf_counter

import numpy as np

# Median reference time on the 2-core host where the benchmark was defined.
REF_NOMINAL_S = 0.013


class _Dual:
    __slots__ = ("f", "d")

    def __init__(self, f, d=0.0):
        self.f = f
        self.d = d

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.f + other.f, self.d + other.d)
        return _Dual(self.f + other, self.d)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.f * other.f, self.f * other.d + self.d * other.f)
        return _Dual(self.f * other, self.d * other)

    def sin(self):
        return _Dual(math.sin(self.f), math.cos(self.f) * self.d)

    def cos(self):
        return _Dual(math.cos(self.f), -math.sin(self.f) * self.d)


def reference_seconds():
    """Run the reference task once and return its wall time."""
    start = perf_counter()
    acc = 0.0
    for i in range(400):
        x = _Dual(0.001 * i, 1.0)
        y = _Dual(0.5)
        c = (x.sin() * y.cos() + x * x * 0.5 + y) * x.cos()
        a = np.array([c.f, c.d, 1.0])
        b = np.array([1.0, c.f, c.d])
        acc += float(np.dot(np.cross(a, b), a))
        acc += len(str({"k": i, "v": [c.f] * 3}))
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference task produced a non-finite value")
    return elapsed


def scale(ref_before, ref_after):
    """Factor that turns a raw time between two reference runs into a
    calibrated time."""
    return REF_NOMINAL_S / math.sqrt(ref_before * ref_after)
