"""Forward-mode automatic differentiation on float arrays.

A :class:`Dual` carries a value and the coefficient of one infinitesimal,
identified by a tag. Tags keep nested derivative passes apart, so stacking
two passes yields exact mixed second partials instead of the classic
perturbation-confusion garbage. Field coefficients must call the elementary
functions defined here (``sin``, ``sqrt``, ...) rather than ``math``, so
that they stay differentiable.

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

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return Dual(1.0, 0.0, self.tag)
            if n < 0:
                return _inv(self.__pow__(-n))
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        return exp(n * log(self))

    def __abs__(self):
        return self * np.where(real(self.a) >= 0.0, 1.0, -1.0)

    # comparisons act on the real parts, as the evaluation guards need
    def __lt__(self, other):
        return real(self) < real(other)

    def __le__(self, other):
        return real(self) <= real(other)

    def __gt__(self, other):
        return real(self) > real(other)

    def __ge__(self, other):
        return real(self) >= real(other)


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


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, e * x.b, x.tag)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a, x.tag)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r), x.tag)
    return np.sqrt(x)


def derivative(f, x: float) -> float:
    """d/dx of a scalar callable built from the functions above."""
    tag = fresh_tag()
    return extract(f(Dual(x, 1.0, tag)), tag)


def extract(y, tag: int):
    """Coefficient of the infinitesimal with the given tag in ``y``."""
    if isinstance(y, Dual) and y.tag == tag:
        return y.b
    return 0.0
