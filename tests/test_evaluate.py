"""``evaluate`` against the walk in Python's own arithmetic.

At an all-exact profile (ints and Fractions) ``evaluate`` walks the tree
on integer numerators and denominators and forms one Fraction at the
end; at a profile holding a float it walks in Python's arithmetic.
``reference_evaluate`` is that second walk, applied to every profile, so
at an exact one it is Fraction arithmetic throughout.  Both must give the
same value and type, or raise the same error with the same text.

No benchmark workload evaluates a guarded division at an exact profile,
so the guard cases here (a denominator exactly at the guard, just inside
it and just outside it, on either side of zero) are that branch's check.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit.expr import (DIV_GUARD, Abs, Const, Neg, Power, Product,
                                  SafeDiv, Sum, UnboundVariableError, Var,
                                  add, evaluate, mul)

F = Fraction

#: beyond the guard by this much is just outside it, short of it just inside
NUDGE = F(1, 10**30)


def reference_evaluate(e, values):
    """The evaluation in Python's arithmetic: Fractions stay exact and
    promote to float as Python promotes them."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index >= len(values):
            raise UnboundVariableError(
                f"variable u{e.index + 1} has no assigned value")
        v = values[e.index]
        return v if isinstance(v, float) else F(v)
    if isinstance(e, Sum):
        total = 0
        for t in e.terms:
            total = total + reference_evaluate(t, values)
        return total
    if isinstance(e, Product):
        prod = 1
        for f in e.factors:
            prod = prod * reference_evaluate(f, values)
            if prod == 0 and not isinstance(prod, float):
                return prod
        return prod
    if isinstance(e, Power):
        return reference_evaluate(e.base, values) ** e.exponent
    if isinstance(e, Neg):
        return -reference_evaluate(e.operand, values)
    if isinstance(e, Abs):
        return abs(reference_evaluate(e.operand, values))
    den = reference_evaluate(e.denominator, values)
    if abs(den) <= e.guard:
        return 0.0 if isinstance(den, float) else F(0)
    return reference_evaluate(e.numerator, values) / den


def outcome(walk, e, values):
    """(type, repr) of ``walk(e, values)``, or (error type, text): a
    float's repr gives its bits back, sign of zero included."""
    try:
        v = walk(e, values)
    except (UnboundVariableError, OverflowError) as exc:
        return type(exc), str(exc)
    return type(v), repr(v)


guards = st.sampled_from([DIV_GUARD, F(1, 4), F(3, 997)])
# u4 is past every drawn profile: an unbound variable
leaves = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(Const),
    st.integers(0, 3).map(Var))


def _extend(inner):
    parts = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        parts.map(Sum), parts.map(Product),
        st.builds(Power, inner, st.integers(0, 3)),
        inner.map(Neg), inner.map(Abs),
        st.builds(SafeDiv, inner, inner, guards))


trees = st.recursive(leaves, _extend, max_leaves=10)
exacts = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10),
    st.integers(-3, 3),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from([997, 991])))
floats = st.one_of(st.sampled_from([0.0, -0.0, 0.5]),
                   st.floats(min_value=-3.0, max_value=3.0))


def _place_guards(draw, e, values):
    """``e`` with each guarded denominator moved, when drawn, to exactly
    +-guard, just inside or just outside it at ``values`` (a constant
    added to the denominator that the reference evaluates there)."""
    t = type(e)
    if t in (Const, Var):
        return e
    if t in (Sum, Product):
        return t(tuple(_place_guards(draw, c, values)
                       for c in (e.terms if t is Sum else e.factors)))
    if t is Power:
        return Power(_place_guards(draw, e.base, values), e.exponent)
    if t in (Neg, Abs):
        return t(_place_guards(draw, e.operand, values))
    num = _place_guards(draw, e.numerator, values)
    den = _place_guards(draw, e.denominator, values)
    nudge = draw(st.sampled_from([None, F(0), -NUDGE, NUDGE]))
    if nudge is not None:
        try:
            at = reference_evaluate(den, values)
        except (UnboundVariableError, OverflowError):
            at = None
        if at is not None and not isinstance(at, float):
            target = draw(st.sampled_from([1, -1])) * (e.guard + nudge)
            den = Sum((den, Const(target - at)))
    return SafeDiv(num, den, e.guard)


@st.composite
def exact_cases(draw):
    """A tree and an all-exact profile of 0-3 actions, the tree's guarded
    denominators placed at the profile."""
    values = draw(st.lists(exacts, max_size=3))
    return _place_guards(draw, draw(trees), values), values


@st.composite
def mixed_cases(draw):
    values = draw(st.lists(st.one_of(exacts, floats), min_size=1,
                           max_size=3))
    return draw(trees), values


X, Y = Var(0), Var(1)


@given(exact_cases())
@settings(max_examples=500, deadline=None)
# a guarded denominator exactly at the guard, just inside and just outside
@example((SafeDiv(Const(F(1)), Sum((X, Const(-F(1, 2)))), F(1, 4)), [F(3, 4)]))
@example((SafeDiv(X, Sum((X, Const(DIV_GUARD - NUDGE))), DIV_GUARD), [0]))
@example((SafeDiv(X, Sum((X, Const(-DIV_GUARD - NUDGE))), DIV_GUARD),
          [F(1, 3)]))
# Power with exponent 0, and a power of an unbound variable
@example((Power(Sum((X, Const(F(-1, 3)))), 0), [F(1, 3)]))
@example((Power(Y, 0), [F(1)]))
def test_exact_evaluate_matches_the_reference(case):
    e, values = case
    got = outcome(evaluate, e, values)
    assert got == outcome(reference_evaluate, e, values)
    assert got[0] in (Fraction, UnboundVariableError)


@given(mixed_cases())
@settings(max_examples=300, deadline=None)
def test_float_and_mixed_evaluate_match_the_reference(case):
    e, values = case
    assert outcome(evaluate, e, values) \
        == outcome(reference_evaluate, e, values)


def test_a_zero_factor_before_an_unbound_variable_gives_zero():
    for values in ([F(0)], [0], [F(0), F(1, 3)]):
        for e in (Product((X, Var(5))),
                  Sum((Product((Sum((X, Const(F(0)))), Power(Var(7), 2))),
                       Const(F(1, 3))))):
            got = evaluate(e, values)
            assert type(got) is Fraction
            assert got == reference_evaluate(e, values)
    # a nonzero factor first: the unbound variable is reached
    with pytest.raises(UnboundVariableError,
                       match="^variable u6 has no assigned value$"):
        evaluate(Product((Const(F(1, 2)), Var(5))), [F(0)])


def reference_add(*terms):
    """The Sum constructor as it folded before: from a Fraction(0) seed."""
    flat, acc = [], F(0)
    for t in terms:
        for u in (t.terms if isinstance(t, Sum) else (t,)):
            if isinstance(u, Const):
                acc += u.value
            else:
                flat.append(u)
    if acc != 0 or not flat:
        flat.append(Const(acc))
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def reference_mul(*factors):
    """The Product constructor as it folded before: from a Fraction(1)
    seed."""
    flat, acc = [], F(1)
    for f in factors:
        for u in (f.factors if isinstance(f, Product) else (f,)):
            if isinstance(u, Const):
                acc *= u.value
            else:
                flat.append(u)
    if acc == 0:
        return Const(F(0))
    if acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return Const(F(1))
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


operands = st.lists(st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2)]).map(Const), leaves, trees),
    max_size=5)


@given(operands)
@settings(max_examples=300, deadline=None)
def test_folding_constructors_build_the_trees_they_built(parts):
    assert add(*parts) == reference_add(*parts)
    assert mul(*parts) == reference_mul(*parts)
