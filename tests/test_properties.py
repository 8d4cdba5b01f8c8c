"""Property-based invariants: calculus, canonicalization, allocation rules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incentive_audit.expr import (
    add,
    as_polynomial,
    const,
    dependencies,
    diff,
    evaluate,
    expand,
    mul,
    power,
    separable_decomposition,
    var,
)
from incentive_audit.game import ActionProfile, Game
from incentive_audit.incentive import (
    cost_decomposition,
    proportional_allocation,
)
from incentive_audit.solve import SolverConfig, minimize_operator

# random polynomials as monomial lists: (coefficient, exponent-per-variable)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
exponents = st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                     max_size=3)
monomials = st.tuples(coeffs, exponents)
polynomials = st.lists(monomials, min_size=1, max_size=6)
points = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=3)


def build(monos):
    terms = []
    for coeff, exps in monos:
        factors = [const(coeff)]
        for i, e in enumerate(exps):
            if e:
                factors.append(power(var(i), e))
        terms.append(mul(*factors))
    return add(*terms)


@given(polynomials, points, st.integers(min_value=0, max_value=2))
@settings(max_examples=100, deadline=None)
def test_derivative_matches_central_differences(monos, point, index):
    e = build(monos)
    d = diff(e, index)
    h = 1e-5
    up = list(point)
    dn = list(point)
    up[index] += h
    dn[index] -= h
    fd = (float(evaluate(e, up)) - float(evaluate(e, dn))) / (2 * h)
    sym = float(evaluate(d, point))
    assert sym == pytest.approx(fd, rel=1e-6, abs=1e-5)


@given(polynomials, points)
@settings(max_examples=100, deadline=None)
def test_expand_preserves_evaluation(monos, point):
    e = build(monos)
    expanded = expand(e)
    a = float(evaluate(e, point))
    b = float(evaluate(expanded, point))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(polynomials, points)
@settings(max_examples=100, deadline=None)
def test_separable_decomposition_sums_back(monos, point):
    e = build(monos)
    parts = separable_decomposition(e)
    if parts is None:
        p = as_polynomial(e)
        assert any(len(mono) > 1 for mono in p.terms)
        return
    total = sum(float(evaluate(f, point)) for _, f in parts)
    assert total == pytest.approx(float(evaluate(e, point)), rel=1e-12,
                                  abs=1e-12)
    for i, f in parts:
        assert dependencies(f) <= {i}


@given(polynomials, points, st.integers(min_value=0, max_value=2),
       st.floats(min_value=-2, max_value=2, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_dependencies_sound(monos, point, index, replacement):
    e = build(monos)
    if index in dependencies(e):
        return
    moved = list(point)
    moved[index] = replacement
    assert float(evaluate(e, moved)) == float(evaluate(e, point))


# ---------------------------------------------------------------------------
# proportional rule invariants

thetas = st.lists(
    st.fractions(min_value=0, max_value=5, max_denominator=16),
    min_size=2, max_size=4)


def _theta_game(theta_values):
    """Separable game whose marginal costs at the all-ones profile are the
    requested values: J = sum theta_i * u_i^2 with optimum at the origin."""
    n = len(theta_values)
    objective = add(*(mul(const(th), var(i), var(i))
                      for i, th in enumerate(theta_values)))
    costs = tuple(power(add(var(i), const(-1)), 2) for i in range(n))
    return Game(n=n, agent_costs=costs, operator_cost=objective,
                bounds=((Fraction(-10), Fraction(10)),) * n)


@given(thetas)
@settings(max_examples=100, deadline=None)
def test_proportional_budget_balance_exact(theta_values):
    game = _theta_game(theta_values)
    u_star = ActionProfile([Fraction(0)] * game.n)
    u_r = ActionProfile([Fraction(1)] * game.n)
    t = proportional_allocation(game, u_star, u_r)
    dec = cost_decomposition(game, u_star, u_r)
    assert sum(t) == dec.total_excess  # exact rational identity
    assert dec.theta == tuple(theta_values)


@given(thetas)
@settings(max_examples=100, deadline=None)
def test_proportional_equity_and_monotonicity(theta_values):
    game = _theta_game(theta_values)
    u_star = ActionProfile([Fraction(0)] * game.n)
    u_r = ActionProfile([Fraction(1)] * game.n)
    t = proportional_allocation(game, u_star, u_r)
    theta = cost_decomposition(game, u_star, u_r).theta
    for i in range(game.n):
        for j in range(game.n):
            if theta[i] == theta[j]:
                assert t[i] == t[j]
            if theta[i] >= theta[j]:
                assert t[i] >= t[j]


@given(thetas)
@settings(max_examples=100, deadline=None)
def test_proportional_bounded_by_marginal_for_separable(theta_values):
    # separable objective: the excess equals the marginal sum, so each
    # agent pays exactly its own marginal cost
    game = _theta_game(theta_values)
    u_star = ActionProfile([Fraction(0)] * game.n)
    u_r = ActionProfile([Fraction(1)] * game.n)
    t = proportional_allocation(game, u_star, u_r)
    dec = cost_decomposition(game, u_star, u_r)
    assert sum(dec.theta) == dec.total_excess
    for ti, th in zip(t, dec.theta):
        assert ti <= th


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_quadratic_games_minimize_exactly(seed):
    import numpy as np

    from conftest import random_game

    rng = np.random.default_rng(seed)
    game = random_game(rng, n=int(rng.integers(2, 4)), separable=True)
    sol = minimize_operator(game, SolverConfig())
    assert sol.exact
