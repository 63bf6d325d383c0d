"""Scalar fields over 4-coordinate events with exact partial derivatives.

A :class:`ScalarField` wraps a callable of the four coordinate arrays
``(x0, x1, x2, x3)`` of a batch of events, so one call evaluates the whole
batch. The callable must be written in terms of the :mod:`emforms.dual`
elementary functions (or plain arithmetic), so that partial derivatives
come out of a dual-number pass exactly, not from finite differences.

Fields close under arithmetic. Constants are folded so that the zero
constant stays structurally recognisable: form containers drop
structurally zero components, and numeric zero is never inferred from
sampling.

Each field also carries a dependency mask, ``deps``: bit k is set when its
value may depend on coordinate k. A coordinate sets its own bit, a
constant none, and arithmetic and the lifted functions take the union of
their operands' bits. A raw ``ScalarField(fn)`` is assumed to read all four
coordinates unless it declares what it reads. A partial derivative along an
axis whose bit is clear is the structural zero, so no derivative pass is
ever spent on a coordinate the field does not read.
"""

from __future__ import annotations

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
    if not np.asarray(bad).any():
        return None
    coords = [real(x) for x in event]
    rows = np.flatnonzero(np.broadcast_to(bad, np.shape(coords[0])))
    return tuple(float(x[rows[0]]) for x in coords) if rows.size else None


ALL_AXES = 0b1111


class ScalarField:
    """Real-valued function of an event, differentiable by dual numbers."""

    __slots__ = ("fn", "const", "deps")

    def __init__(self, fn: Callable, const: float | None = None, deps: int = ALL_AXES):
        self.fn = fn
        self.const = const
        self.deps = 0 if const is not None else deps

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
        return ScalarField(lambda event: event[axis], deps=1 << axis)

    # -- evaluation ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0

    def __call__(self, event):
        # dual-friendly entry point; events may carry Dual coordinates
        return self.fn(event)

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
        other = coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.const is not None and other.const is not None:
            return ScalarField.constant(self.const + other.const)
        f, g = self.fn, other.fn
        return ScalarField(lambda event: f(event) + g(event), deps=self.deps | other.deps)

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
        other = coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        if self.const is not None and other.const is not None:
            return ScalarField.constant(self.const * other.const)
        if self.const == 1.0:
            return other
        if other.const == 1.0:
            return self
        f, g = self.fn, other.fn
        return ScalarField(lambda event: f(event) * g(event), deps=self.deps | other.deps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = coerce(other)
        if other.const is not None:
            return self * (1.0 / other.const)
        if self.is_zero:
            return ZERO
        f, g = self.fn, other.fn
        return ScalarField(lambda event: f(event) / g(event), deps=self.deps | other.deps)

    def __rtruediv__(self, other):
        other = coerce(other)
        if other.is_zero:
            return ZERO
        f, g = other.fn, self.fn
        return ScalarField(lambda event: f(event) / g(event), deps=self.deps | other.deps)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("fields support non-negative integer powers only")
        if n == 0:
            return ONE
        if self.const is not None:
            return ScalarField.constant(self.const**n)
        f = self.fn
        return ScalarField(lambda event: f(event) ** n, deps=self.deps)


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
