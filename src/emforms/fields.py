"""Scalar fields over 4-coordinate events with exact partial derivatives.

A :class:`ScalarField` wraps a callable of the four coordinate arrays
``(x0, x1, x2, x3)`` of a batch of events, so one call evaluates the whole
batch. The callable must be written in terms of the :mod:`emforms.dual`
elementary functions (or plain arithmetic), so that partial derivatives
come out of a dual-number pass exactly, not from finite differences.

Fields close under arithmetic. Constants are folded so that the zero
constant stays structurally recognisable: form containers drop
structurally zero components, and numeric zero is never inferred from
sampling. A constant operand of ``+``, ``*`` or ``/`` is captured by value
in the new closure, on the side where it stands, so evaluation never calls
a constant's closure and each sum and product is the same IEEE operation
as with the constant evaluated. In the same way the Hodge dual
(:mod:`emforms.forms`) checks a constant metric component against the
metric floor once, when the dual is built, and only the others per event.

Each field also carries a dependency mask, ``deps``: bit k is set when its
value may depend on coordinate k. A coordinate sets its own bit, a
constant none, and arithmetic and the lifted functions take the union of
their operands' bits. A raw ``ScalarField(fn)`` is assumed to read all four
coordinates unless it declares what it reads. A partial derivative along an
axis whose bit is clear is the structural zero, so no derivative pass is
ever spent on a coordinate the field does not read.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

import numpy as np

from . import dual
from .dual import Dual, real

Event = Sequence[float]


def event_array(events) -> np.ndarray:
    """``events`` as an (N, 4) float array; no events give shape (0, 4)."""
    arr = np.asarray(events, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"events must have shape (N, 4), got {arr.shape}")
    return arr


def first_bad_event(bad, event) -> tuple[float, ...] | None:
    """The first event at which ``bad`` holds, or None when it holds nowhere.

    ``event`` holds the four coordinate arrays of a batch (possibly with
    dual parts) and ``bad`` is a bool array over the batch, or one bool,
    which holds at every event of the batch or at none.
    """
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return None
    coords = [real(x) for x in event]
    rows = np.flatnonzero(np.broadcast_to(bad, np.shape(coords[0])))
    return tuple(float(x[rows[0]]) for x in coords) if rows.size else None


ALL_AXES = 0b1111


class ScalarField:
    """Real-valued function of an event, differentiable by dual numbers."""

    __slots__ = ("fn", "const", "deps", "is_zero")

    def __init__(self, fn: Callable, const: float | None = None, deps: int = ALL_AXES):
        self.fn = fn
        self.const = const
        self.deps = 0 if const is not None else deps
        self.is_zero = const == 0.0

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: float) -> "ScalarField":
        v = float(value)
        return ScalarField(lambda event: v, const=v)

    @staticmethod
    def zero() -> "ScalarField":
        return ZERO

    @staticmethod
    def one() -> "ScalarField":
        return ONE

    @staticmethod
    def coordinate(axis: int) -> "ScalarField":
        if axis not in (0, 1, 2, 3):
            raise ValueError(f"coordinate axis must be 0..3, got {axis}")
        return ScalarField(operator.itemgetter(axis), deps=1 << axis)

    # -- evaluation ------------------------------------------------------

    def eval(self, events) -> np.ndarray:
        """Values at the rows of an (N, 4) event array, one closure walk."""
        events = event_array(events)
        out = np.empty(len(events))
        out[...] = real(self.fn(tuple(events.T)))
        return out

    def partial_field(self, axis: int) -> "ScalarField":
        """The partial derivative along one axis, as a field; the structural
        zero when the field does not read that coordinate."""
        if not self.deps >> axis & 1:
            return ZERO
        fn = self.fn

        def dfn(event):
            tag = dual.fresh_tag()
            seeded = list(event)
            seeded[axis] = Dual(seeded[axis], 1.0, tag)
            return dual.extract(fn(seeded), tag)

        return ScalarField(dfn, deps=self.deps)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ScalarField):
            other = coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return _combine(operator.add, self, other)

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return ScalarField.constant(-self.const)
        f = self.fn
        return ScalarField(lambda event: -f(event), deps=self.deps)

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ScalarField):
            other = coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        if self.const == 1.0:
            return other
        if other.const == 1.0:
            return self
        return _combine(operator.mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ScalarField):
            other = coerce(other)
        if other.const is not None:
            return self * (1.0 / other.const)
        if self.is_zero:
            return ZERO
        return _combine(operator.truediv, self, other)

    def __rtruediv__(self, other):
        other = coerce(other)
        if other.is_zero:
            return ZERO
        return _combine(operator.truediv, other, self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("fields support non-negative integer powers only")
        if n == 0:
            return ONE
        if self.const is not None:
            return ScalarField.constant(self.const**n)
        f = self.fn
        return ScalarField(lambda event: f(event) ** n, deps=self.deps)


def _combine(op, a: ScalarField, b: ScalarField) -> ScalarField:
    """``op(a, b)`` as a field: two constants fold to one, and a constant
    operand is captured by value on its own side of ``op``."""
    ka, kb = a.const, b.const
    if ka is not None and kb is not None:
        return ScalarField.constant(op(ka, kb))
    f, g = a.fn, b.fn
    if ka is not None:
        return ScalarField(lambda event: op(ka, g(event)), deps=b.deps)
    if kb is not None:
        return ScalarField(lambda event: op(f(event), kb), deps=a.deps)
    return ScalarField(lambda event: op(f(event), g(event)), deps=a.deps | b.deps)


ZERO = ScalarField(lambda event: 0.0, const=0.0)
ONE = ScalarField(lambda event: 1.0, const=1.0)


def coerce(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    if isinstance(x, (int, float)):
        return ScalarField.constant(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar field")


def _lift(mf, df):
    """Wrap a dual-aware unary function as a field transformer."""

    def apply(field) -> ScalarField:
        field = coerce(field)
        if field.const is not None:
            return ScalarField.constant(mf(field.const))
        f = field.fn
        return ScalarField(lambda event: df(f(event)), deps=field.deps)

    return apply


import math as _math  # noqa: E402  (constant folding only)

sin = _lift(_math.sin, dual.sin)
cos = _lift(_math.cos, dual.cos)
exp = _lift(_math.exp, dual.exp)
log = _lift(_math.log, dual.log)
sqrt = _lift(_math.sqrt, dual.sqrt)
