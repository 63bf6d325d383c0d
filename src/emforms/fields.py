"""Scalar fields over 4-coordinate events with exact partial derivatives.

A :class:`ScalarField` wraps a callable of the four coordinate arrays
``(x0, x1, x2, x3)`` of a batch of events, so one call evaluates the whole
batch. The callable must be written in terms of the :mod:`emforms.dual`
elementary functions (or plain arithmetic), so that partial derivatives
come out of a dual-number pass exactly, not from finite differences.

Fields close under arithmetic. A constant keeps the number it is given,
of any type that ``numbers.Real`` accepts (or a dual number, folded from
one): an int stays an int, and the lifted ``sin``, ``cos`` and ``sqrt``
fold a builtin int or float through :mod:`math` and any other number
through its :mod:`emforms.dual` function. Constants are folded so that
the zero constant stays structurally recognisable: form containers drop
structurally zero components, and numeric zero is never inferred from
sampling. A constant operand of ``+``, ``*`` or ``/`` is captured by value
in the new closure, on the side where it stands, so evaluation never calls
a constant's closure and each sum and product is the same IEEE operation
as with the constant evaluated. In the same way the Hodge dual
(:mod:`emforms.forms`) checks a constant metric component against the
metric floor once, when the dual is built, and the others once per batch,
in the volume element that every Hodge coefficient shares, naming the
first bad event.

Each field also carries a dependency mask, ``deps``: bit k is set when its
value may depend on coordinate k. A coordinate sets its own bit, a
constant none, and arithmetic and the lifted functions take the union of
their operands' bits. A raw ``ScalarField(fn)`` is assumed to read all four
coordinates unless it declares what it reads. A partial derivative along an
axis whose bit is clear is the structural zero, so no derivative pass is
ever spent on a coordinate the field does not read.

Fields are evaluated on a :class:`Batch`: the four coordinate arrays of a
grid of events, which broadcast against one another to the grid's
``shape``, with a cache of the values the closure nodes have taken on them.
An (N, 4) event array is the 1-D grid of its rows; a profile's grid has its
radii along the first axis and its angles along the second, with the
coordinates it holds fixed of size 1 on every axis. Each node takes the
shape of the coordinates it reads, so a node that reads only r is computed
once per radius, not once per grid point; each grid point still goes
through the same IEEE operations as its row would. Every node but a
coordinate or a constant keeps its value in the batch's cache, so a node
reached twice on one batch, by one field or by several evaluated on the
same batch, is computed once. A derivative pass seeds a batch of its own,
with its own cache, once per batch and axis, and every partial along that
axis on the batch shares it; no dual value leaves its pass. A node that
raises stores nothing, so its guard raises again on the next evaluation
that reaches it, and a guard names the first bad event in the grid's row
order, the event that the grid's flattened rows would name. The
evaluators take a batch or an (N, 4) event array; :func:`blockwise`
evaluates a grid of more than ``BLOCK_EVENTS`` events in sub-grids of whole
rows of its first axis, a row longer than that in pieces along the next,
each a fresh batch.
"""

from __future__ import annotations

import math
import numbers
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
    """The first event at which ``bad`` holds, in the row order of the
    batch's grid, or None when it holds nowhere.

    ``event`` is a batch (possibly seeded for a derivative pass) and ``bad``
    a bool array that broadcasts to its shape, or one bool, which holds at
    every event of the batch or at none.
    """
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return None
    shape = event.shape
    rows = np.flatnonzero(np.broadcast_to(bad, shape))
    if not rows.size:
        return None
    at = np.unravel_index(rows[0], shape)
    return tuple(float(np.broadcast_to(real(x), shape)[at]) for x in event)


ALL_AXES = 0b1111

# Events per batch; the cache of a batch holds one array of this length per
# node it evaluates, so the block size bounds the cache's memory.
BLOCK_EVENTS = 4096


class Batch(tuple):
    """The four coordinate arrays of a grid of events, and the cache of the
    values that closure nodes have taken on them, keyed by node.

    ``shape`` is the grid's shape, to which the coordinates broadcast; each
    is a number or an array with one axis per grid axis, of the grid's
    length along each axis it varies on and of length 1 along the others.
    ``passes`` holds the derivative passes seeded on the batch.
    """

    def __new__(cls, coords, shape: tuple[int, ...]):
        batch = super().__new__(cls, coords)
        batch.shape = shape
        batch.cache = {}
        batch.passes = {}
        return batch

    def seeded(self, axis: int) -> tuple["Batch", int]:
        """The batch of the derivative pass along ``axis`` on this batch, and
        its tag: seeded on first use, then shared by every partial along
        that axis evaluated on this batch."""
        seeded = self.passes.get(axis)
        if seeded is None:
            tag = dual.fresh_tag()
            coords = list(self)
            coords[axis] = Dual(coords[axis], 1.0, tag)
            seeded = self.passes[axis] = (Batch(coords, self.shape), tag)
        return seeded

    def sub(self, *index) -> "Batch":
        """A fresh batch over the sub-grid that ``index`` selects: a slice
        or a bool mask for each leading axis of the grid, in order."""
        coords, shape = list(self), list(self.shape)
        for axis, i in enumerate(index):
            length = shape[axis]
            shape[axis] = len(range(length)[i]) if isinstance(i, slice) else int(np.count_nonzero(i))
            key = (slice(None),) * axis + (i,)
            for k, x in enumerate(coords):
                # a coordinate of length 1 along the axis holds for all of it
                if isinstance(x, np.ndarray) and x.ndim > axis and x.shape[axis] == length:
                    coords[k] = x[key]
        return Batch(coords, tuple(shape))

    @classmethod
    def of(cls, events: np.ndarray) -> "Batch":
        """A fresh batch over the rows of an (n, 4) event array, the 1-D grid
        of its rows."""
        return cls(tuple(events.T), events.shape[:1])


def blockwise(fn, events):
    """``fn(batch)`` on a batch, or on a fresh batch over the rows of an
    (N, 4) event array; no events give one empty batch. A grid of more than
    ``BLOCK_EVENTS`` events is evaluated in sub-grids of whole rows along
    its first axis, and a row of more than that in pieces along the next
    axis, each a fresh batch, in row order. The results, arrays with the
    grid's axes last or lists, tuples and dicts of them, are joined block
    after block."""
    batch = events if isinstance(events, Batch) else Batch.of(event_array(events))
    if math.prod(batch.shape) <= BLOCK_EVENTS:
        return fn(batch)
    return _split(fn, batch, 0)


def _split(fn, batch: Batch, axis: int):
    """:func:`blockwise` on a grid too large for one block, in runs of whole
    rows along ``axis``; a single row still too large is split along the
    next axis."""
    shape = batch.shape
    step = max(1, BLOCK_EVENTS // math.prod(shape[axis + 1 :]))
    lead = (slice(None),) * axis
    parts = []
    for start in range(0, shape[axis], step):
        block = batch.sub(*lead, slice(start, start + step))
        parts.append(fn(block) if math.prod(block.shape) <= BLOCK_EVENTS else _split(fn, block, axis + 1))
    return parts[0] if len(parts) == 1 else _join(parts, axis - len(shape))


def _join(parts: list, axis: int):
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts], axis) for key in first}
    if isinstance(first, (list, tuple)):
        return type(first)(_join(list(column), axis) for column in zip(*parts))
    return np.concatenate(parts, axis=axis)


def _cached(compute: Callable) -> Callable:
    """``compute`` as a node closure whose value the batch's cache keeps,
    keyed by ``compute``; no node takes the value None. Keyed by the
    closure itself, each node would be a reference cycle, left to the
    cyclic garbage collector."""

    def fn(event):
        value = event.cache.get(compute)
        if value is None:
            value = event.cache[compute] = compute(event)
        return value

    return fn


class ScalarField:
    """Real-valued function of an event, differentiable by dual numbers.

    ``fn`` maps a batch to the values there; unless the field is constant,
    its values are kept in the cache of each batch it is evaluated on.
    """

    __slots__ = ("fn", "const", "deps", "is_zero")

    def __init__(self, fn: Callable, const: float | None = None, deps: int = ALL_AXES):
        self.fn = fn if const is not None else _cached(fn)
        self.const = const
        self.deps = 0 if const is not None else deps
        self.is_zero = const == 0.0

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value) -> "ScalarField":
        return ScalarField(lambda event: value, const=value)

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
        read = operator.itemgetter(axis)
        field = ScalarField(read, deps=1 << axis)
        field.fn = read  # read off the batch, never cached
        return field

    # -- evaluation ------------------------------------------------------

    def eval(self, events) -> np.ndarray:
        """Values at the events of a batch, an array of its grid's shape, or
        at the rows of an (N, 4) event array, block by block."""
        return blockwise(self._values, events)

    def _values(self, batch: Batch) -> np.ndarray:
        out = np.empty(batch.shape)
        out[...] = real(self.fn(batch))
        return out

    def partial_field(self, axis: int) -> "ScalarField":
        """The partial derivative along one axis, as a field; the structural
        zero when the field does not read that coordinate."""
        if not self.deps >> axis & 1:
            return ZERO
        fn = self.fn

        def dfn(event):
            seeded, tag = event.seeded(axis)
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
    if isinstance(x, numbers.Real):
        return ScalarField.constant(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar field")


def _lift(mf, df):
    """Wrap a dual-aware unary function as a field transformer."""

    def apply(field) -> ScalarField:
        field = coerce(field)
        k = field.const
        if k is not None:  # a builtin number folds through math, as a float
            return ScalarField.constant(mf(k) if isinstance(k, (int, float)) else df(k))
        f = field.fn
        return ScalarField(lambda event: df(f(event)), deps=field.deps)

    return apply


sin = _lift(math.sin, dual.sin)
cos = _lift(math.cos, dual.cos)
sqrt = _lift(math.sqrt, dual.sqrt)
