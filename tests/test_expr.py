"""Expression AST, parser, calculus, and structure analysis."""

from fractions import Fraction

import pytest

from incentive_audit.expr import (
    Abs,
    Expression,
    Neg,
    Power,
    Product,
    SafeDiv,
    Sum,
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
    separable_decomposition,
    structural_variables,
    structurally_equal,
    substitute,
    var,
)
from incentive_audit.expr import polynomial

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

    def test_division_by_constant_folds(self):
        e = parse("u1^2/2", NAMES)
        assert structurally_equal(e, mul(const(Fraction(1, 2)),
                                         power(var(0), 2)))

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
        assert structurally_equal(d, parse("2*u1 - 2*u2", NAMES))

    def test_best_response_slope(self):
        e = parse("u1*u2 - u2", NAMES)
        assert structurally_equal(diff(e, 1), parse("u1 - 1", NAMES))

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


class TestSeparable:
    def test_simple(self):
        parts = separable_decomposition(parse("u1^2 + u2^2 + u1", NAMES))
        assert [i for i, _ in parts] == [0, 1]
        f = dict(parts)
        assert structurally_equal(f[0], parse("u1^2 + u1", NAMES))
        assert structurally_equal(f[1], parse("u2^2", NAMES))

    def test_cross_term_fails(self):
        assert separable_decomposition(parse("u1*u2", NAMES)) is None

    def test_operator_objective(self):
        e = parse("(u1 - 3/4)^2 + (u2 - 2)^2", NAMES)
        parts = separable_decomposition(e)
        assert parts is not None
        total = add(*(f for _, f in parts))
        assert structurally_equal(total, e)
        for i, f in parts:
            assert dependencies(f) <= {i}

    def test_abs_unknown(self):
        assert separable_decomposition(absval(var(0))) is None

    def test_constant_expression(self):
        parts = separable_decomposition(const(3))
        assert parts == [(0, const(3))]


class TestExpand:
    def test_canonical_equality(self):
        a = parse("(u1 + u2)^2", NAMES)
        b = parse("u1^2 + 2*u1*u2 + u2^2", NAMES)
        assert structurally_equal(a, b)
        assert expand(a) == expand(b)

    def test_inequality(self):
        assert not structurally_equal(parse("u1^2", NAMES),
                                      parse("u1^2 + u2", NAMES))

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
