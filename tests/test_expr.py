"""Expression AST, parser, calculus, and structure analysis."""

from fractions import Fraction

import pytest

from incentive_audit.expr import (
    NonDifferentiableError,
    ParseError,
    UnknownVariable,
    absval,
    add,
    as_polynomial,
    const,
    dependencies,
    diff,
    evaluate,
    expand,
    hessian,
    mul,
    neg,
    parse,
    power,
    safediv,
    separable_decomposition,
    structurally_equal,
    to_text,
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

    def test_roundtrip_through_text(self):
        for text in ["u1^2 - 2*u1*u2", "(u1 - 3/4)^2 + (u2 - 2)^2",
                     "abs(u1) + u2^3", "-u1*u2 + 1/2"]:
            e = parse(text, NAMES)
            again = parse(to_text(e, NAMES), NAMES)
            for pt in ([0.3, -1.2], [1.0, 2.0], [-2.0, 0.5]):
                assert evaluate(again, pt) == pytest.approx(
                    float(evaluate(e, pt)), rel=1e-12, abs=1e-12)


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
