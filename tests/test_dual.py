import math
import struct

import pytest
from hypothesis import given, strategies as st

from emforms import dual
from emforms.dual import Dual, real

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero = st.floats(min_value=0.1, max_value=10.0)


def derivative(f, x: float) -> float:
    """d/dx of a scalar callable built from the dual functions."""
    tag = dual.fresh_tag()
    return dual.extract(f(Dual(x, 1.0, tag)), tag)


def test_basic_derivatives():
    assert derivative(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-14)
    assert derivative(lambda x: 1.0 / x, 2.0) == pytest.approx(-0.25, abs=1e-14)
    assert derivative(dual.sin, 0.7) == pytest.approx(math.cos(0.7), abs=1e-14)
    assert derivative(dual.cos, 0.7) == pytest.approx(-math.sin(0.7), abs=1e-14)
    assert derivative(dual.sqrt, 4.0) == pytest.approx(0.25, abs=1e-14)
    assert derivative(lambda x: x**5, 1.3) == pytest.approx(5 * 1.3**4, rel=1e-14)
    assert derivative(lambda x: x**0, 1.3) == 0.0
    with pytest.raises(ValueError):
        derivative(lambda x: x**-2, 1.7)


def test_nested_mixed_partial():
    # d/dy d/dx (x*y) = 1; the naive untagged dual would return x + y
    def fxy(x, y):
        return x * y

    def outer(y):
        tag = dual.fresh_tag()
        inner = fxy(Dual(3.0, 1.0, tag), y)
        return dual.extract(inner, tag)

    assert derivative(outer, 5.0) == pytest.approx(1.0, abs=1e-15)


def test_nested_second_derivative():
    # d2/dx2 sin(x) = -sin(x)
    def d1(x):
        tag = dual.fresh_tag()
        return dual.extract(dual.sin(Dual(x, 1.0, tag)), tag)

    assert derivative(d1, 0.9) == pytest.approx(-math.sin(0.9), abs=1e-13)


@given(a=finite, b=finite, x=nonzero)
def test_product_rule(a, b, x):
    got = derivative(lambda t: (t + a) * (t * t + b), x)
    want = (x * x + b) + (x + a) * 2 * x
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(x=nonzero)
def test_quotient_and_chain(x):
    got = derivative(lambda t: dual.sin(t * t) / t, x)
    want = (2 * x * math.cos(x * x) * x - math.sin(x * x)) / (x * x)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_comparisons_and_abs():
    tag = dual.fresh_tag()
    d = Dual(-2.0, 1.0, tag)
    # a dual has no ordering; guards compare its real part
    with pytest.raises(TypeError):
        d < 0.0
    assert real(d) < 0.0
    assert abs(d).a == 2.0
    assert abs(d).b == -1.0
    assert real(Dual(Dual(5.0, 1.0, 2), 0.0, 3)) == 5.0


def test_division_by_dual():
    got = derivative(lambda t: 3.0 / t, 2.0)
    assert got == pytest.approx(-0.75, abs=1e-14)


def structure(x):
    """A Dual as nested (a, b, tag) tuples, floats as their bit patterns, so
    that equality is bit for bit and 0.0 and -0.0 differ."""
    if isinstance(x, Dual):
        return (structure(x.a), structure(x.b), x.tag)
    return struct.pack("<d", x)


signed = finite | st.sampled_from([0.0, -0.0])


@given(x=signed, y=signed, dx=signed, dy=signed)
def test_subtraction_across_tags_keeps_the_nesting(x, y, dx, dy):
    inner_tag = dual.fresh_tag()
    outer_tag = dual.fresh_tag()
    inner = Dual(x, dx, inner_tag)
    outer = Dual(y, dy, outer_tag)
    # the newer tag stays outermost, whichever operand carries it
    assert structure(inner - outer) == structure(Dual(Dual(x - y, dx, inner_tag), -dy, outer_tag))
    assert structure(outer - inner) == structure(Dual(Dual(y - x, -dx, inner_tag), dy, outer_tag))
    assert structure(inner - Dual(y, dy, inner_tag)) == structure(Dual(x - y, dx - dy, inner_tag))
    assert structure(inner - y) == structure(Dual(x - y, dx, inner_tag))
    assert structure(y - inner) == structure(Dual(y - x, -dx, inner_tag))

