"""Reference kernel that measures how fast the machine runs Python right now.

A virtual machine that shares its cores with other tenants' work can run
every Python process on it up to twice as slowly for seconds to minutes
at a time. End-to-end times are therefore reported at a
reference speed: each wall time is multiplied by ``NOMINAL_S`` over the
kernel's time measured next to it. The kernel is fixed code of the
benchmark, not of emforms, so a change to emforms cannot move it. It
mimics emforms' hot path (dual numbers through a closure tree) in pure
Python, so that it imports nothing a worker would have to time.
"""

from __future__ import annotations

import math
from time import perf_counter

# Typical kernel time on the 2-vCPU Intel Xeon VM the benchmark was written
# on (Python 3.11). Reported times are wall times scaled to a machine where
# one kernel call takes this long.
NOMINAL_S = 0.004


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a + other.a, self.b + other.b)
        return _Dual(self.a + other, self.b)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    __rmul__ = __mul__


def _sin(x):
    return _Dual(math.sin(x.a), math.cos(x.a) * x.b) if isinstance(x, _Dual) else math.sin(x)


def _sqrt(x):
    root = math.sqrt(x.a)
    return _Dual(root, 0.5 * x.b / root)


def _leaf(axis):
    return lambda ev: ev[axis]


def _mul(f, g):
    return lambda ev: f(ev) * g(ev)


def _add(f, g):
    return lambda ev: f(ev) + g(ev)


def _norm(f):
    return lambda ev: _sqrt(f(ev) * f(ev) + 1.0)


def _sine(f):
    return lambda ev: _sin(f(ev))


_TREE = _norm(
    _add(_mul(_sine(_leaf(1)), _leaf(2)), _mul(_leaf(3), _sine(_add(_leaf(1), _leaf(2)))))
)


def kernel() -> float:
    acc = 0.0
    for i in range(400):
        ev = {axis: 0.2 * axis + 0.001 * i for axis in range(4)}
        ev[1] = _Dual(ev[1], 1.0)
        acc += _TREE(ev).b
    return acc


def sample() -> float:
    """Seconds one kernel call takes now: the median of three calls."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[1]


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time between two samples."""
    return NOMINAL_S / (0.5 * (before + after))
