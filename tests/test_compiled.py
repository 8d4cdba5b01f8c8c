"""The compiled float evaluator against the exact tree walk ``evaluate``.

The vector form, and ``rows`` built on it, must reproduce
``float(evaluate(e, floats))`` bit for bit: equal values, equal sign of
zero, NaN where it is NaN; ``rows`` must also raise where ``evaluate``
raises.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit.expr import (
    DIV_GUARD,
    Abs,
    Const,
    Neg,
    Power,
    Product,
    SafeDiv,
    Sum,
    UnboundVariableError,
    Var,
    compiled,
    diff,
    evaluate,
    parse,
    vector_fn,
)

N_VARS = 3
# 1/10 rounds up to a double above it; the others round down or are exact
GUARDS = (DIV_GUARD, DIV_GUARD * DIV_GUARD, Fraction(1, 2), Fraction(1, 10))


def _edges(guard: Fraction) -> list[float]:
    """Doubles at, just below and just above the guard, both signs."""
    g = float(guard)
    out = []
    for x in (math.nextafter(g, 0.0), g, math.nextafter(g, math.inf)):
        out += [x, -x]
    return out


SPECIAL = [0.0, -0.0, 1.0, -1.0] + [x for g in GUARDS for x in _edges(g)]

floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
points = st.lists(st.tuples(*[floats] * N_VARS), min_size=1, max_size=6)

consts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
).map(Const)
leaves = st.one_of(consts, st.integers(0, N_VARS - 1).map(Var))


def _nodes(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda t: Sum(tuple(t))),
        st.lists(children, min_size=1, max_size=4).map(
            lambda f: Product(tuple(f))),
        st.builds(Power, children, st.integers(0, 6)),
        # powers near the float range, of a base that is never constant:
        # 3^216 is about 10^103, and |x|^1296 overflows from |x| = 1.73 on,
        # where Python's float ** k raises
        st.builds(lambda k, t, p: Power(Sum((Var(k), t)), p),
                  st.integers(0, N_VARS - 1), children,
                  st.sampled_from([216, 1296])),
        st.builds(Neg, children),
        st.builds(Abs, children),
        st.builds(SafeDiv, children, children, st.sampled_from(GUARDS)),
        # exact-zero prefix: the later factors are never evaluated
        st.lists(children, min_size=1, max_size=3).map(
            lambda f: Product((Const(Fraction(0)), *f))),
        # a denominator that sits on the guard for some inputs
        st.builds(lambda num, k, g: SafeDiv(num, Var(k), g), children,
                  st.integers(0, N_VARS - 1), st.sampled_from(GUARDS)),
    )


trees = st.recursive(leaves, _nodes, max_leaves=14)


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _expected(e, values):
    try:
        return float(evaluate(e, list(values)))
    except OverflowError:
        return None


def _vector_value(e, values):
    """``evaluate``'s float walk, except that a guarded division whose
    denominator is not finite, and a zeroth power of a base that is not
    finite, are NaN, as the vector form returns them."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return values[e.index]
    if isinstance(e, Sum):
        total = 0
        for t in e.terms:
            total = total + _vector_value(t, values)
        return total
    if isinstance(e, Product):
        prod = 1
        for f in e.factors:
            prod = prod * _vector_value(f, values)
            if prod == 0 and not isinstance(prod, float):
                return prod
        return prod
    if isinstance(e, Power):
        base = _vector_value(e.base, values)
        if e.exponent == 0 and _not_finite(base):
            return math.nan
        return base ** e.exponent
    if isinstance(e, (Neg, Abs)):
        x = _vector_value(e.operand, values)
        return -x if isinstance(e, Neg) else abs(x)
    den = _vector_value(e.denominator, values)
    if abs(den) <= e.guard:
        return 0.0 if isinstance(den, float) else Fraction(0)
    num = _vector_value(e.numerator, values)
    return math.nan if _not_finite(den) else num / den


def _not_finite(x) -> bool:
    # an exact value is finite, however far beyond the float range
    return isinstance(x, float) and not math.isfinite(x)


def _check(e, pts) -> None:
    if any(_expected(e, p) is None for p in pts):
        return  # float ** k raises where numpy returns inf
    expected = [float(_vector_value(e, p)) for p in pts]
    arrays = [np.array([p[k] for p in pts]) for k in range(N_VARS)]
    with np.errstate(all="ignore"):
        out = vector_fn(e)(arrays)
    out = np.broadcast_to(np.asarray(out, dtype=np.float64), (len(pts),))
    for got, want in zip(out.tolist(), expected):
        assert _same(got, want), (e, got, want)


X, Y = Var(0), Var(1)


@given(trees, points)
@settings(max_examples=400, deadline=None)
# 0 + (-0.0) is 0.0, with and without a written zero constant
@example(Sum((X,)), [(-0.0, 0.0, 0.0)])
@example(Sum((Const(Fraction(0)), Neg(X))), [(0.0, 0.0, 0.0)])
# an exact-zero prefix is exactly 0, never -0.0 or NaN
@example(Product((Const(Fraction(0)), X)), [(-1.0, 0.0, 0.0)])
# float(1/10) lies above 1/10, so a denominator equal to it is not guarded
@example(SafeDiv(Const(Fraction(1)), X, Fraction(1, 10)), [(0.1, 0.0, 0.0)])
# values where numpy's arr ** k rounds differently from float ** k
@example(Sum((Power(X, 2), Power(Y, 3))),
         [(-1.3275170599102342, 0.9027556576068978, 0.0)])
def test_compiled_matches_evaluate(e, pts):
    _check(e, pts)


#: u1^1296 as four nested powers: Python's float ** k overflows, and
#: raises, from about |u1| = 1.73 on
DEEP = Power(Power(Power(Power(X, 6), 6), 6), 6)


@given(trees, points)
@settings(max_examples=400, deadline=None)
# the second of three rows overflows in a power and the others do not
@example(Sum((DEEP, Y)), [(1.0, 2.0, 0.0), (3.0, 0.0, 0.0), (0.5, 1.0, 0.0)])
# two nested powers stay finite at 3 (3^36); -(-0.0) is 0.0
@example(Sum((Power(Power(X, 6), 6), Neg(Y))),
         [(3.0, -0.0, 0.0), (-2.5, 0.0, 0.0)])
# a guarded denominator that overflows is not a zero quotient: it raises
@example(SafeDiv(Const(Fraction(1)), DEEP, Fraction(1, 2)), [(3.0, 0.0, 0.0)])
# nor is the zeroth power of a base that overflows 1
@example(Power(DEEP, 0), [(3.0, 0.0, 0.0)])
def test_rows_match_evaluate(e, pts):
    x = np.array(pts)
    expected = [_expected(e, p) for p in pts]
    if any(w is None for w in expected):
        with pytest.raises(OverflowError):
            compiled.rows([e], x)
        return
    got = compiled.rows([e], x)
    assert got.shape == (len(pts), 1)
    for value, want in zip(got[:, 0].tolist(), expected):
        assert _same(value, want), (e, value, want)


@given(st.lists(trees, min_size=1, max_size=12), st.integers(251, 300),
       points)
@settings(max_examples=25, deadline=None)
def test_long_sum_compiles_and_matches(terms, length, pts):
    # more terms than the parser's 200 nested parentheses; the cycled
    # terms also reuse subtrees, which the code generator emits once
    _check(Sum(tuple(terms[k % len(terms)] for k in range(length))), pts)


def test_vector_mixes_arrays_and_scalars():
    e = parse("abs(u1 - u2)^3 + u1*u2^2", ["u1", "u2"])
    xs = np.linspace(-2.0, 2.0, 41)
    out = vector_fn(e)([xs, 0.7])
    assert out.tolist() == [float(evaluate(e, [x, 0.7]))
                            for x in xs.tolist()]


def test_quotient_rule_derivative_compiles():
    # second derivatives of a guarded ratio nest the quotient rule twice;
    # emitted as one statement per operation they stay far from the
    # parser's nesting limit
    x, y = Var(0), Var(1)
    e = Sum((Power(x, 2), SafeDiv(Product((x, Sum((x, y)))),
                                  Sum((x, y, Const(Fraction(1)))))))
    h = diff(diff(e, 0), 0)
    for p in ([0.3, 0.9], [-0.5, 0.5], [1e-13, -1e-13]):
        assert _same(float(vector_fn(h)(p)), float(evaluate(h, p)))


def test_functions_are_built_once_per_node():
    e = parse("u1^2 + u2", ["u1", "u2"])
    assert vector_fn(e) is vector_fn(e)


def test_unbound_variable():
    e = parse("u1 + u3", ["u1", "u2", "u3"])
    with pytest.raises(UnboundVariableError):
        vector_fn(e)([1.0, 2.0])
