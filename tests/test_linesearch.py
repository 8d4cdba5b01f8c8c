"""The float line kernel against the exact path.

For a polynomial cost, ``line_minimum_at`` at a float profile builds the
line's coefficients from the polynomial's cached ``LinePlan`` in floats
and, when the line has degree 3 or more, minimizes it without leaving
floats.  Its result must equal, bit for bit, the exact path's
``_poly_line_minimum(collect_line_coeffs(...))``: the same ``arg`` and
``value`` (type, value and sign of zero) and the same ``exact`` flag.
The derivative roots must equal ``np.roots``' roots bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit.expr.polynomial import Polynomial
from incentive_audit.solve import SolverConfig, linesearch
from incentive_audit.solve.linesearch import (
    _derivative_roots,
    _poly_line_minimum,
    collect_line_coeffs,
    line_minimum_at,
)

CFG = SolverConfig()

floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3),
                     Fraction(-2, 3), Fraction(1, 10)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
# ends that are not doubles (-1/3, 1/10, ...), and a few float ones
ends = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
bounds = st.tuples(ends, ends).filter(lambda b: b[0] < b[1])


@st.composite
def lines(draw):
    """A polynomial of own degree 0-4 in 2 or 3 variables with Fraction
    coefficients, an axis, a float profile and an interval."""
    n = draw(st.integers(2, 3))
    i = draw(st.integers(0, n - 1))
    top = draw(st.integers(0, 4))
    terms = {}
    for t in range(draw(st.integers(1, 8))):
        powers = {i: top if t == 0 else draw(st.integers(0, top))}
        for k in range(n):
            if k != i:
                powers[k] = draw(st.integers(0, 2))
        mono = tuple(sorted((k, e) for k, e in powers.items() if e))
        terms[mono] = draw(coefficients)
    values = [draw(floats) for _ in range(n)]
    lo, hi = draw(bounds)
    return Polynomial(terms), i, values, lo, hi


def _same(a, b) -> bool:
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, float) \
        or math.copysign(1.0, a) == math.copysign(1.0, b)


def _check(p, i, values, lo, hi) -> None:
    got = line_minimum_at(p.to_expression(), p, i, values, lo, hi, CFG)
    want = _poly_line_minimum(collect_line_coeffs(p, i, values), lo, hi)
    assert _same(got.arg, want.arg), (got, want)
    assert _same(got.value, want.value), (got, want)
    assert got.exact == want.exact


# monomials as {(index, exponent), ...}; agent 0 is the axis
X4, X3, X2, X1 = ((0, 4),), ((0, 3),), ((0, 2),), ((0, 1),)
X1Y, X4Y, X2Y = ((0, 1), (1, 1)), ((0, 4), (1, 1)), ((0, 2), (1, 1))
Y, Y2 = ((1, 1),), ((1, 2),)
F = Fraction
I = (F(-1, 3), F(2, 3))


@given(lines())
@settings(max_examples=300, deadline=None)
# the derivative's constant term is zero: a root at 0 (u2 = +-0.0)
@example((Polynomial({X4: F(1), X3: F(-1, 3), X1Y: F(2)}), 0, [0.5, 0.0],
          *I))
@example((Polynomial({X4: F(1), X3: F(-1, 3), X1Y: F(2)}), 0, [0.5, -0.0],
          *I))
# the top coefficient cancels to 0.0: degree 4 -> 3 (still the kernel)
# and degree 4 -> 2 (the vertex branch on exact coefficients)
@example((Polynomial({X4: F(1), X4Y: F(-1), X3: F(1, 5), X1: F(1)}), 0,
          [0.0, 1.0], *I))
@example((Polynomial({X4: F(1), X4Y: F(-1), X2: F(1, 3), X1: F(1)}), 0,
          [0.0, 1.0], *I))
# every coefficient above the constant is zero at the profile
@example((Polynomial({X4Y: F(1), X2Y: F(-1, 3), Y2: F(2)}), 0, [0.7, 0.0],
          *I))
# a leading exact coefficient, then a coupled term, in the same group
@example((Polynomial({X1: F(1, 3), X1Y: F(1, 3), X4: F(1, 7)}), 0,
          [0.0, -1.0], *I))
# a coupled term first: 0 + (-0.0) is 0.0
@example((Polynomial({X1Y: F(-1), X1: F(0.5), X4: F(1)}), 0, [0.0, 0.0],
          *I))
# float(3 * c) is not 3 * float(c) for c = -12/11: the cubic's derivative
# coefficient comes from the Fraction
@example((Polynomial({X4: F(2, 3), X3: F(-12, 11), X2: F(3, 2), X1Y: F(-1)}),
          0, [0.0, -0.11101902569553346], F(-2), F(2)))
# Fraction ends next to the vertex: kept exact on the degree-2 path
@example((Polynomial({X2: F(3), X1Y: F(1), Y: F(1)}), 0, [0.0, 1.0],
          F(-1, 3), F(1, 3)))
def test_float_kernel_matches_exact_path(line):
    _check(*line)


def test_kernel_runs_without_the_exact_coefficients(monkeypatch):
    p = Polynomial({X4: F(1, 2), X1Y: F(1, 4), X2: F(1), Y2: F(3)})

    def refuse(*args):
        raise AssertionError("exact coefficients collected")

    monkeypatch.setattr(linesearch, "collect_line_coeffs", refuse)
    lm = line_minimum_at(None, p, 0, [0.0, 0.75], F(-2), F(2), CFG)
    assert isinstance(lm.arg, float) and not lm.exact
    # the other agent's action exact: the exact path, which is refused
    with pytest.raises(AssertionError, match="exact coefficients"):
        line_minimum_at(None, p, 0, [0.0, F(3, 4)], F(-2), F(2), CFG)


def test_plan_is_built_once_per_axis():
    p = Polynomial({X4: F(1), X1Y: F(2)})
    assert not hasattr(p, "_line_plans")
    assert p.line_plan(0) is p.line_plan(0)
    assert p.line_plan(1) is not p.line_plan(0)
    assert p.line_plan(0).reads == (1,) and p.line_plan(1).reads == (0,)


def _same_root(a, b) -> bool:
    a, b = complex(a), complex(b)
    return a == b and all(
        math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in ((a.real, b.real), (a.imag, b.imag)))


derivative_coefficients = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))


@given(st.lists(derivative_coefficients, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
@example([0.0, 1.0, -2.0, 3.0])   # zero constant term: a root at 0
@example([0.0, 0.0, -2.0, 3.0])   # a double root at 0
@example([1.0, -2.0, 3.0, 0.0])   # zero top coefficient: trimmed
@example([0.0, 0.0, 0.0])         # all zero: no roots
@example([0.0, 5.0, 0.0])         # one nonzero coefficient
@example([-0.0, 1.0, -0.0, 2.0])
@example([1.0, 5e-324])           # the companion matrix overflows
def test_derivative_roots_match_np_roots(deriv):
    try:
        with np.errstate(over="ignore"):
            want = list(np.roots(deriv[::-1]))
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _derivative_roots(deriv)
        return
    got = _derivative_roots(deriv)
    assert len(got) == len(want)
    assert all(_same_root(a, b) for a, b in zip(got, want)), (got, want)
