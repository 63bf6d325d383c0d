"""A number that holds a sympy expression, so that emforms' own fields and
forms can be evaluated symbolically.

:class:`Sym` defines arithmetic, ``abs`` and the ``sin``, ``cos`` and
``sqrt`` methods that numpy's object dispatch calls. It returns
``NotImplemented`` for an operand that is not a number, so that the
reflected operators of ``ScalarField`` and ``Dual`` run. A float operand
enters as the exact binary rational it is, so identities stay exact. A
comparison returns sympy's truth when sympy decides it and ``False``
otherwise, so a guard that cannot be decided does not fire. ``Sym`` is
registered as a ``numbers.Real``, which is how ``fields.coerce`` accepts
it, and it has no ``__float__``: code that rounds a number to a float
rejects it.

:func:`components` evaluates a form's component closures on one batch
whose four coordinates are symbols.
"""

from __future__ import annotations

import numbers
import operator

import sympy

from emforms.fields import Batch


def _expr(x):
    """``x`` as a sympy expression, or None when it is not a number."""
    if isinstance(x, Sym):
        return x.expr
    if isinstance(x, float):
        return sympy.Rational(x)
    if isinstance(x, numbers.Integral):
        return sympy.Integer(int(x))
    return None


def _arith(op, reflected=False):
    def method(self, other):
        y = _expr(other)
        if y is None:
            return NotImplemented
        return Sym(op(y, self.expr) if reflected else op(self.expr, y))

    return method


def _decide(test):
    def method(self, other):
        y = _expr(other)
        if y is None:
            return NotImplemented
        return test(sympy.expand(self.expr - y)) is True

    return method


class Sym:
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = sympy.sympify(expr)

    def __repr__(self):
        return f"Sym({self.expr})"

    __add__, __radd__ = _arith(operator.add), _arith(operator.add, True)
    __sub__, __rsub__ = _arith(operator.sub), _arith(operator.sub, True)
    __mul__, __rmul__ = _arith(operator.mul), _arith(operator.mul, True)
    __truediv__, __rtruediv__ = _arith(operator.truediv), _arith(operator.truediv, True)
    __eq__ = _decide(lambda d: d.is_zero)
    __ne__ = _decide(lambda d: d.is_nonzero)
    __lt__ = _decide(lambda d: d.is_extended_negative)
    __le__ = _decide(lambda d: d.is_extended_nonpositive)
    __gt__ = _decide(lambda d: d.is_extended_positive)
    __ge__ = _decide(lambda d: d.is_extended_nonnegative)

    def __pow__(self, n: int):
        return Sym(self.expr**n)

    def __neg__(self):
        return Sym(-self.expr)

    def __abs__(self):
        return Sym(sympy.Abs(self.expr))

    def sin(self):
        return Sym(sympy.sin(self.expr))

    def cos(self):
        return Sym(sympy.cos(self.expr))

    def sqrt(self):
        return Sym(sympy.sqrt(self.expr))


numbers.Real.register(Sym)


def components(form, coords) -> dict:
    """Each component of ``form`` as a sympy expression in the four
    coordinate symbols ``coords``, by its own closure on one batch."""
    batch = Batch(tuple(Sym(x) for x in coords))
    return {idx: _expr(f.fn(batch)) for idx, f in form.components.items()}
