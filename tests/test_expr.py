"""Expression AST, parser, calculus, and structure analysis."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit.expr import (
    Abs,
    Const,
    Expression,
    Neg,
    Power,
    Product,
    SafeDiv,
    Sum,
    Var,
    NonDifferentiableError,
    ParseError,
    UnknownVariable,
    absval,
    add,
    as_polynomial,
    children,
    const,
    dependencies,
    diff,
    evaluate,
    expand,
    hessian,
    is_smooth,
    mul,
    neg,
    parse,
    power,
    safediv,
    structural_variables,
    substitute,
    var,
)
from incentive_audit.expr import polynomial
from incentive_audit.expr.parser import MAX_DEPTH
from incentive_audit.expr.polynomial import Polynomial
from incentive_audit.solve.oracle import FLOAT_SAFE_BOUND

NAMES = ["u1", "u2"]


class TestParse:
    def test_coupled_quadratic(self):
        e = parse("u1^2 - 2*u1*u2", NAMES)
        assert evaluate(e, [Fraction(1), Fraction(2)]) == Fraction(-3)
        assert dependencies(e) == {0, 1}

    def test_zero_constant(self):
        e = parse("0", NAMES)
        assert e == const(0)

    def test_operator_objective(self):
        e = parse("(u1 - 3/4)^2 + (u2 - 2)^2", NAMES)
        assert evaluate(e, [Fraction(3, 4), Fraction(2)]) == 0
        assert evaluate(e, [Fraction(1), Fraction(1)]) == Fraction(17, 16)

    def test_rational_and_decimal_constants(self):
        assert parse("3/4", []) == const(Fraction(3, 4))
        assert parse("0.25", []) == const(Fraction(1, 4))
        assert parse("-1/2", NAMES) == const(Fraction(-1, 2))

    @pytest.mark.parametrize("text", ["0", "7", "007", "2" * 30, "0.25",
                                      ".5", "3.000", "3/4", "10/4", "7/1"])
    def test_literals_are_their_fractions(self, text):
        got = parse(text, [])
        assert type(got) is Const and type(got.value) is Fraction
        assert got.value == Fraction(text)

    @pytest.mark.parametrize("divisor", ["3", "0.5", "(1/3)", "(2 - 5)",
                                         "-4", "(u2 - u2 + 2)"])
    def test_division_by_a_constant_is_the_general_reciprocal(self, divisor):
        # the general path: the divisor's constant polynomial value
        value = as_polynomial(parse(divisor, NAMES)).constant_value()
        assert parse(f"u1/{divisor}", NAMES) == mul(
            var(0), const(Fraction(1) / value))
        with pytest.raises(ParseError, match="division by zero"):
            parse(f"u1/({divisor} - {divisor})", NAMES)

    def test_division_by_constant_folds(self):
        e = parse("u1^2/2", NAMES)
        assert as_polynomial(e) == as_polynomial(
            mul(const(Fraction(1, 2)), power(var(0), 2)))

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("u1/u2", NAMES)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse("u1/(2 - 2)", NAMES)

    def test_unknown_variable_with_position(self):
        with pytest.raises(UnknownVariable) as err:
            parse("u1 + u3", NAMES)
        assert err.value.position == 5

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("u1 + * u2", NAMES)
        assert err.value.position == 5

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("u1^1.5", NAMES)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("u1^-2", NAMES)

    def test_unary_minus_precedence(self):
        # ^ binds tighter than unary minus
        e = parse("-u1^2", NAMES)
        assert evaluate(e, [Fraction(3), Fraction(0)]) == -9

    def test_abs(self):
        e = parse("abs(u1 + u2 - 2)", NAMES)
        assert evaluate(e, [Fraction(0), Fraction(0)]) == 2
        assert evaluate(e, [Fraction(1), Fraction(1)]) == 0

    @pytest.mark.parametrize("text, position", [
        ("u1 $ u2", 3), ("  \t$", 3), ("u1 + 2 é", 7), ("1.", 1)])
    def test_unexpected_character_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, NAMES)
        assert err.value.message == f"unexpected character {text[position]!r}"
        assert err.value.position == position

    def test_surrounding_whitespace(self):
        assert parse(" \t u1*u2 \n ", NAMES) == parse("u1*u2", NAMES)

    def test_power_chain_nests(self):
        # a ^ that builds a power node is one nesting level; ^1 and powers
        # of constants build none
        within = "(u1 - u1)" + "^2" * MAX_DEPTH
        assert isinstance(parse(within, NAMES), Power)
        assert parse("-" * (MAX_DEPTH - 1) + "u1^2", NAMES) == neg(
            power(var(0), 2))
        for deeper in (within + "^2", "-" * MAX_DEPTH + "u1^2"):
            with pytest.raises(ParseError, match="nested more than") as err:
                parse(deeper, NAMES)
            assert err.value.position == len(deeper) - 2
        assert parse("u1" + "^1" * 1000, NAMES) == var(0)
        assert parse("2" + "^1" * 1000, NAMES) == const(2)
        assert parse("1" + "^2" * 1000, NAMES) == const(1)

    def test_constant_power_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse(f"10^{limit - 1}", []) == const(10 ** (limit - 1))
        assert parse(f"(1/10)^{limit - 1}", []) == const(
            Fraction(1, 10 ** (limit - 1)))
        # refused at the ^ that would pass the limit, before computing it
        for text in (f"10^{limit}", f"(1/10)^{limit}", f"(-17)^{limit}",
                     "2^100^100^100"):
            with pytest.raises(ParseError) as err:
                parse(text, [])
            assert err.value.message == (
                f"constant power would have more than {limit} digits")
            assert err.value.position == text.rindex("^")
        assert parse(f"1^{10 ** 20} + 0^{10 ** 20}", []) == const(1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("u1 u2", NAMES)


class TestEvaluate:
    def test_exact_rational(self):
        e = parse("u1*u2 - u2", NAMES)
        v = evaluate(e, [Fraction(1), Fraction(2)])
        assert v == 0 and isinstance(v, Fraction)

    def test_float_promotes(self):
        e = parse("u1*u2 - u2", NAMES)
        assert isinstance(evaluate(e, [1.0, 2.0]), float)

    def test_pure_product_at_zero(self):
        e = parse("u1*u2", NAMES)
        assert evaluate(e, [Fraction(0), Fraction(0)]) == 0

    def test_safediv_guard(self):
        e = safediv(const(1), var(0))
        assert evaluate(e, [Fraction(0)]) == 0
        assert evaluate(e, [Fraction(2)]) == Fraction(1, 2)
        assert evaluate(e, [0.0]) == 0.0


class TestDiff:
    def test_polynomial_rule(self):
        e = parse("u1^2 - 2*u1*u2", NAMES)
        d = diff(e, 0)
        assert as_polynomial(d) == as_polynomial(parse("2*u1 - 2*u2", NAMES))

    def test_best_response_slope(self):
        e = parse("u1*u2 - u2", NAMES)
        assert as_polynomial(diff(e, 1)) == as_polynomial(
            parse("u1 - 1", NAMES))

    def test_constant(self):
        assert diff(const(5), 0) == const(0)

    def test_abs_refused(self):
        with pytest.raises(NonDifferentiableError):
            diff(absval(var(0)), 0)

    def test_safediv_quotient_rule(self):
        # d/dx (x^2 / (x + 3)) at x = 1: (2x(x+3) - x^2) / (x+3)^2 = 7/16
        e = safediv(power(var(0), 2), add(var(0), const(3)))
        d = diff(e, 0)
        assert evaluate(d, [Fraction(1)]) == Fraction(7, 16)


class TestHessian:
    def test_cross_terms(self):
        e = parse("u1^2/2 + u2^2 - u1 + u2 - u1*u2", NAMES)
        H = hessian(e, 2)
        assert H[0][0] == const(1)
        assert H[0][1] == const(-1)
        assert H[1][0] == const(-1)
        assert H[1][1] == const(2)

    def test_separable_diagonal(self):
        H = hessian(parse("u1^2 + u2^2", NAMES), 2)
        assert H == [[const(2), const(0)], [const(0), const(2)]]

    def test_linear_is_zero(self):
        H = hessian(parse("3*u1 - u2", NAMES), 2)
        assert all(h == const(0) for row in H for h in row)

    def test_kept_on_the_node_per_agent_count(self):
        e = parse("u1^3*u2 + u2^2", NAMES)
        assert hessian(e, 2) is hessian(e, 2)
        assert len(hessian(e, 3)) == 3 and hessian(e, 3) is hessian(e, 3)


class TestDependencies:
    def test_both(self):
        assert dependencies(parse("u1^2 - 2*u1*u2", NAMES)) == {0, 1}

    def test_zero_coefficient_drops(self):
        assert dependencies(parse("u1^2 + 0*u2", NAMES)) == {0}

    def test_constant(self):
        assert dependencies(const(7)) == frozenset()

    def test_cancellation(self):
        assert dependencies(parse("u1*u2 - u1*u2 + u1", NAMES)) == {0}

    def test_abs_conservative(self):
        assert dependencies(absval(parse("u1 + u2", NAMES))) == {0, 1}


class TestExpand:
    def test_canonical_equality(self):
        a = parse("(u1 + u2)^2", NAMES)
        b = parse("u1^2 + 2*u1*u2 + u2^2", NAMES)
        assert as_polynomial(a) == as_polynomial(b)
        assert expand(a) == expand(b)

    def test_inequality(self):
        assert as_polynomial(parse("u1^2", NAMES)) \
            != as_polynomial(parse("u1^2 + u2", NAMES))

    def test_non_polynomial_passthrough(self):
        e = absval(var(0))
        assert expand(e) is e
        assert as_polynomial(e) is None

    def test_expansion_is_kept_on_the_node(self, monkeypatch):
        smooth = parse("(u1 + u2)^2", NAMES)
        rough = add(absval(var(0)), power(var(1), 2))
        first = as_polynomial(smooth)
        assert as_polynomial(rough) is None

        def walk(e):
            raise AssertionError("tree expanded twice")

        monkeypatch.setattr(polynomial, "_expand", walk)
        assert as_polynomial(smooth) is first
        assert as_polynomial(rough) is None

    def test_shared_subtree_is_expanded_once(self, monkeypatch):
        shared = parse("(u1 - u2)^3", NAMES)
        first, second = add(shared, var(0)), mul(shared, var(1))
        expanded = []
        expand_node = polynomial._expand

        def counted(e):
            expanded.append(e)
            return expand_node(e)

        monkeypatch.setattr(polynomial, "_expand", counted)
        as_polynomial(first)
        assert any(e is shared for e in expanded)
        expanded.clear()
        assert as_polynomial(second) == as_polynomial(shared) \
            * as_polynomial(var(1))
        assert not any(e is shared for e in expanded)
        # the shared subtree's cached form was not changed by its users
        assert as_polynomial(shared) == as_polynomial(
            parse("(u1 - u2)^3", NAMES))


def _pairwise_merge(a, b):
    exps = dict(a)
    for idx, e in b:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted((i, e) for i, e in exps.items() if e > 0))


def _pairwise_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c != 0}


def _pairwise_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _pairwise_merge(m1, m2)
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _pairwise_pow(p, k):
    result, base = {(): Fraction(1)}, p
    while k > 0:
        if k & 1:
            result = _pairwise_mul(result, base)
        base = _pairwise_mul(base, base)
        k >>= 1
    return result


def _pairwise(e):
    """The terms of ``e`` as expansion built them before: a sum or product
    folded child by child, one new dict per step, and powers from 1."""
    if isinstance(e, Const):
        return {(): e.value} if e.value else {}
    if isinstance(e, Var):
        return {((e.index, 1),): Fraction(1)}
    if isinstance(e, (Sum, Product)):
        total = {} if isinstance(e, Sum) else {(): Fraction(1)}
        fold = _pairwise_add if isinstance(e, Sum) else _pairwise_mul
        for c in children(e):
            p = _pairwise(c)
            if p is None:
                return None
            total = fold(total, p)
        return total
    if isinstance(e, Power):
        p = _pairwise(e.base)
        return None if p is None else _pairwise_pow(p, e.exponent)
    if isinstance(e, Neg):
        p = _pairwise(e.operand)
        return None if p is None else {m: -c for m, c in p.items()}
    return None


#: trees built from the nodes directly: cancelling sums, zero constants,
#: one-child sums and products, powers 0 and 1, powers of sums
_leaves = st.one_of(
    st.builds(Var, st.integers(0, 2)),
    st.builds(Const, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                      Fraction(1, 2), Fraction(-3, 7)])))
_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(lambda t: Sum(tuple(t)), st.lists(sub, min_size=1, max_size=4)),
    st.builds(lambda t: Product(tuple(t)),
              st.lists(sub, min_size=1, max_size=3)),
    st.builds(Power, sub, st.integers(0, 3)),
    st.builds(Neg, sub),
    st.builds(lambda t, k: Power(Sum(tuple(t)), k),
              st.lists(_leaves, min_size=2, max_size=3), st.integers(2, 6)),
    st.builds(Abs, sub),
), max_leaves=10)

U1, U2 = Var(0), Var(1)


class TestExpansionOrder:
    """Expansion gives the terms the pairwise fold gave, in its order:
    line plans and magnitude bounds fold floats in that order."""

    @settings(max_examples=400, deadline=None)
    @given(_trees)
    @example(Sum((U1, Neg(U1), U1)))
    @example(Sum((U1, U2, Neg(U1), Const(Fraction(0)), U1)))
    @example(Product((Sum((U1, Const(Fraction(-1)))),
                      Sum((U1, Const(Fraction(1)))))))
    @example(Sum((Power(U1, 0), Power(Sum((U1, U2)), 1), Power(U2, 1))))
    @example(Power(Sum((U1, Neg(U2), Const(Fraction(1)))), 5))
    @example(Product((Const(Fraction(0)), U1)))
    @example(Power(Abs(U1), 0))
    def test_same_terms_in_the_same_order(self, e):
        expected = _pairwise(e)
        got = as_polynomial(e)
        if expected is None:
            assert got is None
            return
        assert list(got.terms.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_abs_anywhere_has_no_polynomial(self):
        for e in (Sum((U1, Abs(U2))), Product((Abs(U1), U2)),
                  Power(Abs(U1), 0), Neg(Abs(U1))):
            assert as_polynomial(e) is None and _pairwise(e) is None

    def test_power_squares_to_the_top_bit(self, monkeypatch):
        # 40 = 0b101000: five squarings and one multiply (8 before: a
        # multiply by 1 and a sixth squaring that nothing read)
        squares = []
        multiply = Polynomial.__mul__

        def counted(a, b):
            squares.append(a is b)
            return multiply(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        p = as_polynomial(parse("(u1 + u2 + 1)^40", NAMES))
        assert squares == [True] * 5 + [False]
        assert len(p.terms) == 861
        assert p.terms[((0, 20), (1, 20))] == Fraction(
            math.factorial(40), math.factorial(20) ** 2)


class TestMagnitudeBound:
    BOX = ((Fraction(-3), Fraction(2)), (Fraction(-1, 2), Fraction(1, 4)))

    @pytest.mark.parametrize("text, bound", [
        # max(|c|, 1) times max(|lo|, |hi|, 1)^e per axis, summed
        ("u1^2 - 5*u1*u2 + 1/4", 9 + 5 * 3 * 1 + 1),
        ("-u2^3 + 1/2*u1", 1 + 3),
        ("7", 7),
        ("0", 0),
    ])
    def test_exact_small_cases(self, text, bound):
        assert as_polynomial(parse(text, NAMES)).magnitude_bound(self.BOX) \
            == bound

    def test_float_bounds(self):
        p = as_polynomial(parse("u1^3", NAMES))
        assert p.magnitude_bound([(-2.5, 0.5)]) == 2.5 ** 3

    def test_past_two_to_the_thousand(self):
        box = ((Fraction(-2**25), Fraction(2)),)
        below = as_polynomial(parse("u1^2 + u1^39", NAMES))
        assert below.magnitude_bound(box) == 2.0 ** 975 + 2.0 ** 50
        assert below.magnitude_bound(box) < FLOAT_SAFE_BOUND
        past = as_polynomial(parse("u1^2 + u1^40", NAMES))
        assert past.magnitude_bound(box) == 2.0 ** 1000 + 2.0 ** 50
        assert past.magnitude_bound(box) >= FLOAT_SAFE_BOUND
        # 10^400 is beyond the float range
        box = ((Fraction(-10**10), Fraction(10**10)),)
        assert past.magnitude_bound(box) == float("inf")

    def test_coefficient_beyond_float_range_does_not_raise(self):
        p = as_polynomial(parse("u1^2", NAMES)) \
            * polynomial.Polynomial.constant(Fraction(10) ** 400)
        with pytest.raises(OverflowError):
            float(p.terms[((0, 2),)])
        assert p.magnitude_bound(self.BOX) == float("inf")


class TestConstructors:
    def test_sum_folding(self):
        assert add(const(2), const(3)) == const(5)
        assert add(var(0), const(0)) == var(0)

    def test_product_folding(self):
        assert mul(const(0), var(1)) == const(0)
        assert mul(const(1), var(1)) == var(1)
        assert mul(const(2), const(3)) == const(6)

    def test_power_folding(self):
        assert power(var(0), 0) == const(1)
        assert power(var(0), 1) == var(0)
        assert power(const(2), 3) == const(8)

    def test_neg_folding(self):
        assert neg(const(2)) == const(-2)
        assert neg(neg(var(0))) == var(0)

    def test_nodes_are_immutable(self):
        e = parse("u1 + u2", NAMES)
        with pytest.raises(Exception):
            e.terms = ()


def _nested_trees():
    """One tree per container node type, each holding an ``abs`` node
    and a guarded division below it, paired with the node type on top."""
    a = absval(add(var(0), const(-1)))                     # abs over a sum
    d = safediv(var(1), add(var(2), const(1)), Fraction(1, 8))
    zero = power(add(var(3), neg(var(3))), 2)               # expands to 0
    return {
        "sum": add(a, d, zero),
        "product": mul(a, d, zero),
        "power": power(add(a, d), 3),
        "neg": neg(mul(a, d)),
        "abs": absval(add(d, zero)),
        "safediv-numerator": safediv(add(a, zero), var(2)),
        "safediv-denominator": safediv(var(2), mul(d, zero, a)),
    }


class TestStructuralQueries:
    """Pin the structural queries on trees nesting abs and safediv."""

    def test_children_covers_every_node_type(self):
        u1, u2 = var(0), var(1)
        nodes = {const(2): (), u1: (),
                 Sum((u1, u2)): (u1, u2), Product((u1, u2)): (u1, u2),
                 Power(u1, 2): (u1,), Neg(u1): (u1,), Abs(u1): (u1,),
                 SafeDiv(u1, u2): (u1, u2)}
        assert {type(e) for e in nodes} == set(Expression.__subclasses__())
        for e, kids in nodes.items():
            assert children(e) == kids

    def test_node_types(self):
        trees = _nested_trees()
        assert {k: type(e).__name__ for k, e in trees.items()} == {
            "sum": "Sum", "product": "Product", "power": "Power",
            "neg": "Neg", "abs": "Abs", "safediv-numerator": "SafeDiv",
            "safediv-denominator": "SafeDiv"}

    def test_structural_variables(self):
        got = {k: structural_variables(e) for k, e in _nested_trees().items()}
        assert got == {
            "sum": {0, 1, 2, 3}, "product": {0, 1, 2, 3},
            "power": {0, 1, 2}, "neg": {0, 1, 2}, "abs": {1, 2, 3},
            "safediv-numerator": {0, 2, 3},
            "safediv-denominator": {0, 1, 2, 3}}

    def test_is_smooth(self):
        got = {k: is_smooth(e) for k, e in _nested_trees().items()}
        assert got == {
            "sum": False, "product": False, "power": False, "neg": False,
            "abs": False, "safediv-numerator": False,
            "safediv-denominator": False}
        d = safediv(var(1), add(var(2), const(1)))
        assert is_smooth(d)
        assert is_smooth(neg(power(mul(add(d, var(0)), d), 2)))
        assert is_smooth(safediv(d, d))

    def test_dependencies(self):
        # a polynomial subtree that cancels drops its variable, even below
        # a non-polynomial node; anything below abs/safediv is kept
        got = {k: dependencies(e) for k, e in _nested_trees().items()}
        assert got == {
            "sum": {0, 1, 2}, "product": {0, 1, 2},
            "power": {0, 1, 2}, "neg": {0, 1, 2}, "abs": {1, 2},
            "safediv-numerator": {0, 2},
            "safediv-denominator": {0, 1, 2}}

    def test_substitute(self):
        trees = _nested_trees()
        at = {0: const(3), 2: const(1), 3: var(0)}
        d = safediv(var(1), const(2), Fraction(1, 8))
        zero = power(add(var(0), neg(var(0))), 2)
        assert {k: substitute(e, at) for k, e in trees.items()} == {
            "sum": add(const(2), d, zero),
            "product": mul(const(2), d, zero),
            "power": power(add(const(2), d), 3),
            "neg": neg(mul(const(2), d)),
            "abs": absval(add(d, zero)),
            "safediv-numerator": safediv(add(const(2), zero), const(1)),
            "safediv-denominator": safediv(const(1), mul(d, zero, const(2)))}
        assert substitute(trees["abs"], at).operand.terms[0].guard \
            == Fraction(1, 8)

    def test_substitute_agrees_with_evaluate(self):
        at = {0: const(Fraction(1, 3)), 1: const(-2)}
        point = [Fraction(1, 3), Fraction(-2), Fraction(5, 4), Fraction(7)]
        for e in _nested_trees().values():
            assert evaluate(substitute(e, at), point) == evaluate(e, point)
