"""Polynomial lines against their definition.

Along agent ``i``'s axis, with the other agents' actions fixed, a
polynomial is a univariate polynomial whose coefficient of ``u_i^k`` is
the sum, in monomial order, of every term carrying ``u_i^k``: its Fraction
coefficient times the other agents' actions raised to their exponents.
``naive_coefficients`` computes exactly that in Python's own arithmetic,
so Fractions stay exact and mix with floats as Python mixes them.

The cached ``LinePlan`` must give the same coefficients bit for bit (type,
value and sign of zero) at float, exact and mixed profiles, and
``line_minimum_at`` the same minimum as ``reference_minimum``: the vertex
formula on the exact coefficients at degree <= 2, the derivative's real
roots above that.  The derivative roots must equal ``np.roots``' roots bit
for bit, and a batch of lines (``line_minima``, one stacked eigenvalue
call per companion size) must give each line the minimum it gets alone.

Lines with ``abs`` or guarded division are minimized piece by piece; they
are checked on hand-made lines (narrow wells, nested ``abs``, a guard
interval inside the box) and against a dense scan of random lines.  A
batch of them advances in lockstep rounds, and must give each profile,
bit for bit, the minimum of ``reference_piecewise_minimum``, which
searches one profile and one piece at a time.
"""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit.expr import (Abs, Const, Neg, Power, Product, SafeDiv,
                                  Sum, Var, absval, add, children, evaluate,
                                  mul, neg, parse, power, safediv, vector_fn)
from incentive_audit.expr.polynomial import (Polynomial, as_polynomial,
                                             line_plan)
from incentive_audit.gamefile import load_game_file
from incentive_audit.incentive import ScenarioSolve
from incentive_audit.solve import SolverConfig, SolverError, linesearch
from incentive_audit.solve.linesearch import (
    GUARD_ULPS,
    LineMin,
    _add,
    _derivative,
    _derivative_roots,
    _mul,
    _plus,
    _poly_value,
    _real_roots,
    _times,
    line_minima,
    line_minimum_at,
)

from conftest import EXAMPLE1_PROPORTIONAL_GAME

def naive_coefficients(p, i, values):
    """Ascending coefficients of ``p`` along variable ``i`` with the other
    coordinates pinned at ``values``; exact when the inputs are exact."""
    groups = {}
    degree = 0
    for mono, coeff in p.terms.items():
        e_i = 0
        term = coeff
        for idx, e in mono:
            if idx == i:
                e_i = e
            else:
                term = term * values[idx] ** e
        groups[e_i] = groups.get(e_i, 0) + term
        degree = max(degree, e_i)
    return [groups.get(k, Fraction(0)) for k in range(degree + 1)]


def reference_pick_smallest(coeffs, candidates):
    """The candidate of least value, by ``min`` over the candidates in
    ascending order, which keeps the first of equal values: ties go to the
    smallest action."""
    arg = min(sorted(candidates, key=float),
              key=lambda x: _poly_value(coeffs, x))
    return LineMin(arg, _poly_value(coeffs, arg))


def reference_minimum(coeffs, lo, hi):
    """The minimum of the line ``coeffs`` over [lo, hi]: exact vertex or
    end at degree <= 2, in the coefficients' own arithmetic (Fraction
    arithmetic at exact ones), else the best of the ends and the
    Newton-polished real stationary points, with Fractions as their float
    values."""
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0:
        degree -= 1
    if degree == 0:
        return LineMin(lo, coeffs[0])
    if degree == 1:
        arg = lo if coeffs[1] >= 0 else hi
        return LineMin(arg, _poly_value(coeffs, arg))
    if degree == 2:
        a, b = coeffs[2], coeffs[1]
        candidates = [lo, hi]
        if a > 0:
            vertex = -b / (2 * a)
            if lo <= vertex <= hi:
                candidates = [vertex]
        return reference_pick_smallest(coeffs, candidates)
    flo, fhi = float(lo), float(hi)
    d1 = [float(k * coeffs[k]) for k in range(1, len(coeffs))]
    return reference_pick_smallest([float(c) for c in coeffs],
                          [flo, fhi, *_real_roots([(d1, flo, fhi)])[0]])


def expression(p):
    """An expression that expands to ``p`` with its monomials in the same
    order (the order in which each coefficient's terms are summed)."""
    return Sum(tuple(
        Product((Const(c),) + tuple(Power(Var(idx), e) for idx, e in mono))
        for mono, c in p.terms.items()))


floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
exacts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 3), 0, 2]),
    st.fractions(min_value=-3, max_value=3, max_denominator=10),
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
def profiles(draw, n):
    """Float, exact (Fraction or int) or mixed actions for n agents."""
    kind = draw(st.sampled_from(["float", "exact", "mixed"]))
    action = {"float": floats, "exact": exacts,
              "mixed": st.one_of(floats, exacts)}[kind]
    return [draw(action) for _ in range(n)]


@st.composite
def lines(draw, coeffs=coefficients, tops=st.integers(0, 5), actions=None,
          box=bounds):
    """A polynomial of own degree ``tops`` (0-5) in 2 or 3 variables with
    Fraction coefficients, an axis, a profile (of ``actions``, or of any
    kind) and an interval."""
    n = draw(st.integers(2, 3))
    i = draw(st.integers(0, n - 1))
    top = draw(tops)
    terms = {}
    for t in range(draw(st.integers(1, 8))):
        powers = {i: top if t == 0 else draw(st.integers(0, top))}
        for k in range(n):
            if k != i:
                powers[k] = draw(st.integers(0, 2))
        mono = tuple(sorted((k, e) for k, e in powers.items() if e))
        terms[mono] = draw(coeffs)
    lo, hi = draw(box)
    values = draw(profiles(n) if actions is None
                  else st.lists(actions, min_size=n, max_size=n))
    return Polynomial(terms), i, values, lo, hi


def _same(a, b) -> bool:
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, float) \
        or math.copysign(1.0, a) == math.copysign(1.0, b)


def _check(p, i, values, lo, hi) -> None:
    e = expression(p)
    assert list(as_polynomial(e).terms) == list(p.terms)
    plan = line_plan(e, i)
    want_coeffs = naive_coefficients(p, i, values)
    got_coeffs = plan.coefficients(values)
    assert len(got_coeffs) == len(want_coeffs)
    assert all(map(_same, got_coeffs, want_coeffs)), (got_coeffs, want_coeffs)
    for k, group in enumerate(plan.groups):
        if not group.terms:
            assert _same(group.value, float(group.coeff))
            assert _same(group.derivative, float(k * group.coeff))
    want = reference_minimum(want_coeffs, lo, hi)
    got = line_minimum_at(e, i, values, lo, hi)
    assert _same(got.arg, want.arg), (got, want)
    assert _same(got.value, want.value), (got, want)


# monomials as {(index, exponent), ...}; agent 0 is the axis
X4, X3, X2, X1 = ((0, 4),), ((0, 3),), ((0, 2),), ((0, 1),)
X1Y, X4Y, X2Y = ((0, 1), (1, 1)), ((0, 4), (1, 1)), ((0, 2), (1, 1))
Y, Y2 = ((1, 1),), ((1, 2),)
F = Fraction
I = (F(-1, 3), F(2, 3))


@given(lines())
@settings(max_examples=400, deadline=None)
# the derivative's constant term is zero: a root at 0 (u2 = +-0.0)
@example((Polynomial({X4: F(1), X3: F(-1, 3), X1Y: F(2)}), 0, [0.5, 0.0],
          *I))
@example((Polynomial({X4: F(1), X3: F(-1, 3), X1Y: F(2)}), 0, [0.5, -0.0],
          *I))
# the top coefficient cancels to 0.0: degree 4 -> 3 (roots) and degree
# 4 -> 2 (the vertex formula on mixed Fraction and float coefficients)
@example((Polynomial({X4: F(1), X4Y: F(-1), X3: F(1, 5), X1: F(1)}), 0,
          [0.0, 1.0], *I))
@example((Polynomial({X4: F(1), X4Y: F(-1), X2: F(1, 3), X1: F(1)}), 0,
          [0.0, 1.0], *I))
# the same cancellation at an exact action: the top coefficient is an
# exact 0 and the line is exactly a parabola
@example((Polynomial({X4: F(1), X4Y: F(-1), X2: F(1, 3), X1: F(1)}), 0,
          [0, F(1)], *I))
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
# the same line at an exact profile: every coefficient stays a Fraction
@example((Polynomial({X2: F(3), X1Y: F(1), Y: F(1)}), 0, [0.0, F(1)],
          F(-1, 3), F(1, 3)))
# a Fraction action, then a float one, in one term: the exact product is
# floated only when the float enters
@example((Polynomial({((0, 3), (1, 1), (2, 2)): F(1, 3), X2: F(1)}), 0,
          [0.0, F(1, 3), 0.7], *I))
# a subnormal top coefficient: the companion matrix would overflow, so
# the roots come from the coefficients below it
@example((Polynomial({((0, 1), (1, 3)): F(1, 3), Y: F(4), (): F(1)}), 1,
          [2.2250738585072014e-308, 0.0], 0.0, 1.0))
def test_line_matches_definition(line):
    _check(*line)


# large coprime denominators, and exact ends
coprime = st.builds(F, st.integers(-10**6, 10**6),
                    st.sampled_from([997, 991, 983, 1]))
exact_bounds = st.tuples(st.one_of(exacts, coprime),
                         st.one_of(exacts, coprime)).filter(
    lambda b: b[0] < b[1])


@given(lines(st.one_of(coefficients, coprime), st.integers(0, 2),
             st.one_of(exacts, coprime), exact_bounds))
@settings(max_examples=300, deadline=None)
# the vertex exactly at an end, and a tie of the two ends (a concave
# parabola symmetric on the box), which goes to lo
@example((Polynomial({X2: F(1), X1: F(-2, 997)}), 0, [0, F(1, 991)],
          F(1, 997), F(1)))
@example((Polynomial({X2: F(-1, 983), X1Y: F(1, 991)}), 0, [0, 0],
          F(-1, 2), F(1, 2)))
def test_exact_low_degree_line_matches_fraction_arithmetic(line):
    """At an exact profile on an exact box, the coefficients summed in
    integers and the degree <= 2 minimum taken in integers give the
    Fractions, and the candidate, that Fraction arithmetic gives."""
    p, i, values, lo, hi = line
    _check(p, i, values, lo, hi)
    got = line_minimum_at(expression(p), i, values, lo, hi)
    assert type(got.value) is Fraction


def test_plan_is_built_once_per_axis():
    e = expression(Polynomial({X4: F(1), X1Y: F(2)}))
    assert ("line_plan", 0) not in e.__dict__.get("_derived", {})
    assert line_plan(e, 0) is line_plan(e, 0)
    assert line_plan(e, 1) is not line_plan(e, 0)
    # along u1: u1*u2 is a coupled term of power 1, u1^4 an exact group
    # (c, float(c), float(4 * c)), and absent powers exact zeros
    along_u1 = line_plan(e, 0).groups
    assert along_u1[1].terms == ((F(2), 2.0, ((1, 1),)),)
    assert along_u1[4] == ((), F(1), 1.0, 4.0)
    assert along_u1[0] == along_u1[2] == ((), F(0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# one batch of lines: the same minima as one line at a time

X6Z = ((0, 6), (2, 1))
X3Y = ((0, 3), (1, 1))
batch_actions = st.one_of(floats, exacts)


@st.composite
def batches(draw):
    """Lines along u1 of a sextic whose degree falls to 4 where u3 is 0
    and to 2 where u2 is 0 too (companion sizes 5 and 3, and the vertex
    formula), at 1-6 profiles of float, exact or mixed actions, some of
    them drawn again."""
    terms = {X6Z: draw(coefficients), X4Y: draw(coefficients),
             X3Y: draw(coefficients), X2: F(1), X1Y: draw(coefficients),
             Y: draw(coefficients)}
    profiles = draw(st.lists(
        st.tuples(st.just(0.0), batch_actions, batch_actions).map(list),
        min_size=1, max_size=6))
    profiles += draw(st.lists(st.sampled_from(profiles), max_size=2))
    lo, hi = draw(bounds)
    return expression(Polynomial(terms)), profiles, lo, hi


@given(batches())
@settings(max_examples=200, deadline=None)
# quartic and sextic float lines in one batch, with an exact profile
@example((expression(Polynomial({X6Z: F(1), X4Y: F(1, 3), X2: F(1)})),
          [[0.0, 0.5, 0.0], [0.0, 0.5, 1.0], [0.0, F(1, 2), F(1)],
           [0.0, -0.0, -0.0]], *I))
def test_batch_gives_each_line_its_own_minimum(batch):
    e, profiles, lo, hi = batch
    got = line_minima(e, 0, profiles, lo, hi)
    assert len(got) == len(profiles)
    for values, lm in zip(profiles, got):
        alone = line_minimum_at(e, 0, values, lo, hi)
        assert _same(lm.arg, alone.arg), (values, lm, alone)
        assert _same(lm.value, alone.value), (values, lm, alone)


def test_batch_takes_one_eigenvalue_call_per_companion_size(monkeypatch):
    calls = []
    original = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    e = expression(Polynomial({X6Z: F(1), X4Y: F(1, 3), X2: F(1),
                               X1: F(1, 5)}))
    profiles = [[0.0, 0.5, 1.0], [0.0, 0.25, 0.0], [0.0, 0.75, 2.0],
                [0.0, 0.0, 0.0], [0.0, F(1, 2), F(1)]]
    line_minima(e, 0, profiles, F(-1), F(1))
    assert sorted(calls) == [(1, 3, 3), (3, 5, 5)]


def test_overflowing_companion_matrix_drops_the_top_coefficient():
    # -2 / (4 * 10**-320) is -inf: the quartic term is dropped from the
    # root finding, which leaves the quadratic's vertex at -1/8
    e = expression(Polynomial({X4: F(1, 10**320), X2: F(1), X1Y: F(1, 4)}))
    assert line_minimum_at(e, 0, [0.0, 1.0], F(-2), F(2)) \
        == LineMin(-0.125, -0.015625)


def test_non_finite_derivative_is_a_solver_error():
    # 10**300 * u1^4 * u2 at u2 = 1e10: the quartic coefficient is inf
    e = expression(Polynomial({X4Y: F(10**300), X2: F(1)}))
    with pytest.raises(SolverError, match="degree 4.*not finite"):
        line_minimum_at(e, 0, [0.0, 1e10], F(-2), F(2))


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
@example([1.0, -2.0, 5e-324])
def test_derivative_roots_match_np_roots(deriv):
    got = _derivative_roots([deriv])[0]
    # where the companion matrix overflows, np.roots fails, and the
    # roots are those of the coefficients below the top nonzero one
    while True:
        try:
            with np.errstate(over="ignore"):
                want = list(np.roots(deriv[::-1]))
            break
        except np.linalg.LinAlgError:
            top = max(k for k, c in enumerate(deriv) if c != 0)
            deriv = deriv[:top]
    assert len(got) == len(want)
    assert all(_same_root(a, b) for a, b in zip(got, want)), (got, want)


# ---------------------------------------------------------------------------
# piecewise lines: abs and guarded division

N2 = ["u1", "u2"]


def _scalar_at(e, values, i, x):
    point = [float(v) for v in values]
    point[i] = x
    return float(evaluate(e, point))


def test_narrow_well_between_scan_points():
    # a well 2/100 wide and 10 deep at u1 = 54/100 under a gentle parabola
    e = parse("(u1 + 1)^2/10 - 1000*(abs(u1 - 53/100) + abs(u1 - 55/100)"
              " - 2*abs(u1 - 54/100)) + u2", N2)
    got = line_minimum_at(e, 0, [0.0, 0.7], F(-2), F(2))
    assert got.arg == 0.54
    assert got.value == pytest.approx(-19.06284, abs=1e-12)


def test_nested_abs_is_cut_on_the_pieces_of_its_operand():
    # |u1 - 1/2| = 1/3 at u1 = 1/6 and 5/6; the parabola prefers 1/6
    e = parse("abs(abs(u1 - u2) - 1/3) + u1^2/100", N2)
    got = line_minimum_at(e, 0, [0.0, 0.5], F(-2), F(2))
    assert got.arg == pytest.approx(1 / 6, abs=1e-16)
    assert got.value == pytest.approx(1 / 3600, abs=1e-18)


def test_abs_of_a_coupled_operand():
    # below u1 = 5/7 the cost is u1/2 + 3*u1^2/10, least at u1 = -5/6
    e = parse("abs(u1*u2 - 1/2)*u1 + u1^2", N2)
    got = line_minimum_at(e, 0, [0.0, 0.7], F(-2), F(2))
    assert got.arg == pytest.approx(-5 / 6, abs=1e-15)
    assert got.value == pytest.approx(-5 / 24, abs=1e-15)


def test_guard_interval_inside_the_box():
    # 1/(u1 - 1/2) is zero where |u1 - 1/2| <= 1/10, and tends to -10 as
    # u1 rises to 2/5: the least value is at the last float below the guard
    e = add(safediv(parse("1", N2), parse("u1 - u2", N2), F(1, 10)),
            parse("u1^2/100", N2))
    got = line_minimum_at(e, 0, [0.0, 0.5], F(-2), F(2))
    assert got.arg == math.nextafter(0.4, 0.0)
    assert got.value == _scalar_at(e, [0.0, 0.5], 0, got.arg)
    assert got.value == pytest.approx(-10 + 0.0016, abs=1e-12)


def test_zero_root_is_positive_zero():
    # the stationary polynomial is 0.0 + 2*u1, whose closed-form root
    # -0.0 / 2.0 is -0.0: the minimum is reported at +0.0
    e = parse("u1^2 + abs(u2 - 1/2)", N2)
    got = line_minimum_at(e, 0, [0.3, 0.7], F(-2), F(2))
    assert _same(got.arg, 0.0)
    assert got.value == pytest.approx(0.2, abs=1e-15)


def test_non_finite_piece_is_a_solver_error():
    # 10**300 * u1^2 * u2 at u2 = 1e10: the quadratic coefficient is inf
    e = add(absval(parse("u1 - 1/2", N2)),
            expression(Polynomial({X2Y: F(10**300)})))
    with pytest.raises(SolverError, match="not finite"):
        line_minimum_at(e, 0, [0.0, 1e10], F(-2), F(2))


small_polynomials = st.builds(
    lambda terms: Polynomial(dict(terms)),
    st.lists(st.tuples(st.sampled_from([(), X1, X2, ((0, 3),), Y, X1Y]),
                       coefficients), min_size=1, max_size=4))


@st.composite
def nonsmooth_lines(draw):
    """``abs(p) + r`` or ``p / q + r`` behind a guard, or one of them
    nested (``abs(p + abs(q)) + r``, ``abs(p / q) + r``), along u1, with
    polynomials p, q, r of degree at most 3 in u1 (one term may carry
    u2), a float u2 and an interval."""
    p, q, r = (expression(draw(small_polynomials)) for _ in range(3))
    guard = draw(st.sampled_from([F(1, 10**12), F(1, 1000), F(1, 10)]))
    e = draw(st.sampled_from([
        add(absval(p), r), add(safediv(p, q, guard), r),
        add(absval(add(p, absval(q))), r),
        add(absval(safediv(p, q, guard)), r)]))
    u2 = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    lo, hi = draw(bounds)
    return e, [0.0, u2], lo, hi


@given(nonsmooth_lines())
@settings(max_examples=200, deadline=None)
# a pole inside the box behind the default guard: the float root of
# u1^3 - 1/3 + 10^-12 misses the guard's own flip by about 2 ulps
@example((add(safediv(parse("1", N2), parse("u1^3 + u2/3", N2)),
              parse("1", N2)), [0.0, -1.0], 0.0, F(1)))
# a tiny u2 leaves N'D - ND' = u1^2 - 1 + 8.4e-207*u1^4: beside the quartic
# term's roots near 1e103 the eigenvalues lost the stationary point u1 = 1
@example((add(safediv(parse("u1", N2), parse("-1 - u1^2", N2)),
              parse("u1*u2", N2)), [0.0, 8.388820545926033e-207], 0.0, F(2)))
# the guard's float root of u1^3/8 + 1/1000 is 2 ulps below the box's
# end -0.2: the cost jumps from u1 back to about 1000 only at the end, and
# the piece's infimum near -0.2 is found from cuts beside that root
@example((add(absval(safediv(parse("1", N2), parse("u1^3/8", N2), F(1, 1000))),
              parse("u1", N2)), [0.0, 0.0], F(-1, 5), 0.0))
def test_nonsmooth_line_is_no_worse_than_a_dense_scan(line):
    e, values, lo, hi = line
    got = line_minimum_at(e, 0, values, lo, hi)
    # the box in floats: a float search starts from float(lo), float(hi)
    assert type(got.arg) is float and float(lo) <= got.arg <= float(hi)
    assert got.value == _scalar_at(e, values, 0, got.arg)
    xs = np.linspace(float(lo), float(hi), 20_001)
    scan = np.broadcast_to(vector_fn(e)([xs, values[1]]), xs.shape)
    best = float(np.min(scan))
    assert got.value <= best + 1e-12 * max(1.0, abs(best)), (got, best)


# ---------------------------------------------------------------------------
# piecewise lines in one batch: the same minima as one profile at a time


def reference_piecewise_minimum(e, i, base, lo, hi):
    """The piecewise line search one profile and one piece at a time,
    each piece's nodes cut and its stationary points found on their own:
    what the lockstep rounds of ``line_minima`` must reproduce."""
    candidates, pieces = {lo, hi}, [(lo, hi)]
    while pieces:
        a, b = pieces.pop()
        cuts = []
        num, den = reference_restrict(e, i, base, a, b, cuts)
        if cuts:
            ends = [a, *sorted(set(cuts)), b]
            pieces += zip(ends, ends[1:])
            candidates.update(cuts)
        else:
            stationary = _plus(_times(_derivative(num), den),
                               _times(num, _derivative(den)), -1.0)
            candidates.update(_real_roots([(stationary, a, b)])[0])
    scores = {x: float(evaluate(e, base[:i] + [x] + base[i + 1:]))
              for x in candidates}
    arg = min(sorted(scores), key=scores.get)
    return LineMin(arg, scores[arg])


def reference_restrict(e, i, base, a, b, cuts):
    """``e`` on the piece (a, b) as float coefficients (N, D) of N/D; adds
    to ``cuts`` the points where one of its nodes changes piece, searching
    a guard's second level only when the first leaves it possible."""
    if as_polynomial(e) is not None:
        plan = line_plan(e, i)
        return plan.float_line(plan.coefficients(base))[0], [1.0]
    parts = [reference_restrict(c, i, base, a, b, cuts) for c in children(e)]
    if isinstance(e, Sum):
        return reduce(_add, parts)
    if isinstance(e, (Product, Power)):
        return reduce(_mul, parts * (e.exponent if type(e) is Power else 1))
    num, den = parts[-1]
    if isinstance(e, Neg):
        return [-c for c in num], den
    guard = e.guard if isinstance(e, SafeDiv) else 0
    n, d = _poly_value(num, (a + b) / 2), _poly_value(den, (a + b) / 2)
    side = float(guard) if (n < 0) == (d < 0) else -float(guard)
    for level in (side, -side) if guard else (0.0,):
        roots = _real_roots([(_plus(num, den, -level), a, b)])[0]
        cuts += [y for x in roots for y in (
            x + k * math.ulp(x) for k in (GUARD_ULPS if guard else (0,)))
            if a < y < b]
        if not roots and abs(n) > guard * abs(d):
            break
    if isinstance(e, Abs):
        return ([-c for c in num] if (n < 0) != (d < 0) else num), den
    return ([0.0], [1.0]) if abs(n) <= guard * abs(d) \
        else _mul(parts[0], (den, num))


N3 = ["u1", "u2", "u3"]

coupled_polynomials = st.builds(
    lambda terms: expression(Polynomial(dict(terms))),
    st.lists(st.tuples(st.sampled_from(
        [(), X1, X2, X3, Y, X1Y, X2Y, ((2, 1),), ((0, 1), (2, 1)),
         ((1, 1), (2, 1))]), coefficients), min_size=1, max_size=4))
guards = st.sampled_from([F(1, 10**12), F(1, 1000), F(1, 10), F(1, 2)])
piece_actions = st.one_of(
    st.sampled_from([0.0, -0.0, F(0), F(1, 2), 1.0, -1.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.fractions(min_value=-3, max_value=3, max_denominator=10))


@st.composite
def piecewise_batches(draw):
    """A piecewise cost along u1 in three agents (the anticipatory
    proportional form ``r + p*q / (p + s)`` behind a guard, nested ``abs``,
    ``abs`` of a guarded ratio, or ``abs`` under a product, a power and a
    negation), with polynomials p, q, r, s of degree at most 3 in u1 whose
    terms may carry u2 and u3, at 1-5 profiles of float and exact actions,
    some of them drawn again, on an interval."""
    p, q, r, s = (draw(coupled_polynomials) for _ in range(4))
    guard = draw(guards)
    e = draw(st.sampled_from([
        add(r, safediv(mul(p, q), add(p, s), guard)),
        add(absval(add(p, absval(q))), r),
        add(absval(safediv(p, q, guard)), r),
        add(mul(absval(p), q), neg(power(absval(add(r, s)), 2))),
        add(safediv(p, add(absval(q), s), guard), r),
    ]))
    profiles = draw(st.lists(st.lists(piece_actions, min_size=3, max_size=3),
                             min_size=1, max_size=5))
    profiles += draw(st.lists(st.sampled_from(profiles), max_size=2))
    lo, hi = draw(bounds)
    return e, profiles, lo, hi


@given(piecewise_batches())
@settings(max_examples=300, deadline=None)
# a guarded ratio at three profiles: its polynomial subtrees differ per
# profile, and at u2 = 1/20 the guarded u1^2 - u2 is inside the guard at
# the midpoint 0, below it, and crosses only the level above
@example((add(parse("u1^2", N3), safediv(parse("u1*u3", N3),
                                         parse("u1^2 - u2", N3), F(1, 10))),
          [[0.0, 0.05, 1.0], [0.0, -0.25, F(1, 2)], [0.0, 0.05, 1.0]],
          F(-2), F(2)))
# nested abs at the signed zeros and an exact zero
@example((add(absval(add(parse("u1 - u2", N3), absval(parse("u1*u3", N3)))),
              parse("u1^2/10", N3)),
          [[0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [0.0, F(0), 1.0]],
          F(-1), F(1)))
def test_piecewise_batch_matches_the_reference(batch):
    e, profiles, lo, hi = batch
    got = line_minima(e, 0, profiles, lo, hi)
    assert len(got) == len(profiles)
    for values, lm in zip(profiles, got):
        want = reference_piecewise_minimum(
            e, 0, [float(v) for v in values], float(lo), float(hi))
        assert (repr(lm.arg), repr(lm.value)) \
            == (repr(want.arg), repr(want.value)), (values, lm, want)


#: polynomial texts in three agents, of degree at most 3 in u1
polynomial_texts = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=9),
              st.sampled_from(["1", "u1", "u1^2", "u1^3", "u2", "u1*u2",
                               "u1^2*u3", "u3"])),
    min_size=1, max_size=4).map(
    lambda terms: " + ".join(f"({c})*{m}" for c, m in terms))

#: piecewise trees of four polynomials and a guard
PIECEWISE_TREES = {
    "abs": lambda p, q, r, s, g: add(absval(p), r),
    "nested abs": lambda p, q, r, s, g: add(absval(add(p, absval(q))), r),
    "proportional": lambda p, q, r, s, g: add(
        r, safediv(mul(p, q), add(p, s), g)),
    "abs of a guarded ratio": lambda p, q, r, s, g: add(
        absval(safediv(p, q, g)), r),
}


@st.composite
def alone_and_batched(draw):
    """A piecewise tree's ingredients (its shape, four polynomial texts
    and a guard), two profiles and an interval."""
    shape = draw(st.sampled_from(sorted(PIECEWISE_TREES)))
    texts = [draw(polynomial_texts) for _ in range(4)]
    guard = draw(guards)
    p, q = (draw(st.lists(piece_actions, min_size=3, max_size=3))
            for _ in range(2))
    lo, hi = draw(bounds)
    return shape, texts, guard, p, q, lo, hi


@given(alone_and_batched())
@settings(max_examples=200, deadline=None)
def test_a_line_alone_gets_its_minimum_in_a_batch(case):
    # a line alone is scored by evaluate, a batch by the compiled vector
    # form; the second tree is parsed afresh, so it shares no compiled form
    shape, texts, guard, p, q, lo, hi = case
    e, e2 = (PIECEWISE_TREES[shape](*(parse(t, N3) for t in texts), guard)
             for _ in range(2))
    alone = line_minima(e, 0, [p], lo, hi)[0]
    batched = line_minima(e2, 0, [p, q], lo, hi)[0]
    assert (repr(alone.arg), repr(alone.value)) \
        == (repr(batched.arg), repr(batched.value)), (alone, batched)


def test_piecewise_batch_advances_in_lockstep(monkeypatch, tmp_path):
    # agent 1's anticipatory proportional cost in example1: the batch takes
    # as many root-finding stages as its slowest profile alone, each with
    # one eigenvalue call per companion size at most
    path = tmp_path / "example1_proportional.game"
    path.write_text(EXAMPLE1_PROPORTIONAL_GAME)
    ctx = ScenarioSolve(load_game_file(str(path)).scenario(), SolverConfig())
    e = ctx.effective_costs[0]
    assert as_polynomial(e) is None
    stages = []
    real_roots, eigvals = linesearch._real_roots, np.linalg.eigvals

    def staged(polys):
        stages.append([])
        return real_roots(polys)

    def counted(a):
        stages[-1].append(np.shape(a)[-1])
        return eigvals(a)

    monkeypatch.setattr(linesearch, "_real_roots", staged)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    profiles = [[0.0, x] for x in (-2.0, -1.1, -0.3, 0.0, 0.6, 1.25, 2.0)]
    alone = []
    for values in profiles:
        stages.clear()
        line_minimum_at(e, 0, values, F(-2), F(2))
        alone.append((len(stages), sum(map(len, stages))))
    stages.clear()
    line_minima(e, 0, profiles, F(-2), F(2))
    assert len(stages) == max(n for n, _ in alone)
    assert all(len(sizes) == len(set(sizes)) for sizes in stages)
    assert sum(map(len, stages)) < sum(calls for _, calls in alone)
