"""Forward-mode automatic differentiation on float arrays.

A :class:`Dual` carries a value and the coefficient of one infinitesimal,
identified by a tag. Tags keep nested derivative passes apart, so stacking
two passes yields exact mixed second partials instead of the classic
perturbation-confusion garbage. Field coefficients must call the elementary
functions defined here (``sin``, ``cos``, ``sqrt``) rather than ``math``,
so that they stay differentiable. A :class:`Dual` defines no ordering: a
guard compares the value that :func:`real` strips out of it.

Coefficients are float arrays holding one value per event of a batch, or
plain numbers where a value is the same at every event. The elementary
functions apply numpy to anything that is not a :class:`Dual`.
"""

from __future__ import annotations

import itertools

import numpy as np

_tags = itertools.count(1)  # count.__next__ is atomic, so passes stay thread-safe


def fresh_tag() -> int:
    """Allocate the tag for one derivative pass."""
    return next(_tags)


def real(x):
    """Strip all infinitesimal parts, leaving the underlying float."""
    while isinstance(x, Dual):
        x = x.a
    return x


class Dual:
    """``a + b*eps`` with ``eps**2 == 0``; coefficients may nest."""

    __slots__ = ("a", "b", "tag")

    # numpy defers to the reflected operators, so array * Dual is a Dual
    __array_ufunc__ = None

    def __init__(self, a, b, tag):
        self.a = a
        self.b = b
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r}, tag={self.tag})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.a + other, self.b, self.tag)
        if other.tag == self.tag:
            return Dual(self.a + other.a, self.b + other.b, self.tag)
        if self.tag > other.tag:
            return Dual(self.a + other, self.b, self.tag)
        return Dual(self + other.a, other.b, other.tag)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b, self.tag)

    def __sub__(self, other):
        # x - y and x + (-y) are the same IEEE operation
        return self + -other

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b, self.tag)

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.a * other, self.b * other, self.tag)
        if other.tag == self.tag:
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a, self.tag)
        if self.tag > other.tag:
            return Dual(self.a * other, self.b * other, self.tag)
        return Dual(self * other.a, self * other.b, other.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.a / other, self.b / other, self.tag)
        return self * _inv(other)

    def __rtruediv__(self, other):
        return other * _inv(self)

    def __pow__(self, n: int):
        """``self**n`` for an integer ``n >= 0``, as repeated products."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("duals support non-negative integer powers only")
        if n == 0:
            return Dual(1.0, 0.0, self.tag)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __abs__(self):
        return self * np.where(real(self.a) >= 0.0, 1.0, -1.0)


def _inv(x):
    if isinstance(x, Dual):
        ia = _inv(x.a)
        return Dual(ia, -(x.b * ia) * ia, x.tag)
    return 1.0 / x


# -- elementary functions ---------------------------------------------


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.a), cos(x.a) * x.b, x.tag)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -sin(x.a) * x.b, x.tag)
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r), x.tag)
    return np.sqrt(x)


def extract(y, tag: int):
    """Coefficient of the infinitesimal with the given tag in ``y``."""
    if isinstance(y, Dual) and y.tag == tag:
        return y.b
    return 0.0
