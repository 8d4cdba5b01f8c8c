"""Grid kernels against scalar evaluation and plain Python loops."""

from fractions import Fraction

import numpy as np
import pytest

from incentive_audit.expr import evaluate, parse
from incentive_audit.expr.polynomial import Polynomial, as_polynomial
from incentive_audit.solve import kernels
from incentive_audit.solve.oracle import eval_on_grid

NAMES = ["u1", "u2"]


def _tables(points=60):
    rng = np.random.default_rng(5)
    exprs = [parse("u1^2 - 2*u1*u2", NAMES),
             parse("u1*u2 - u2", NAMES),
             parse("(u1 - 3/4)^2 + (u2 - 2)^2", NAMES)]
    axes = [np.linspace(-2, 2, points), np.linspace(-2, 2, points + 7)]
    return exprs, axes, rng


def test_poly_grid_eval_matches_scalar_evaluation():
    exprs, axes, rng = _tables(points=15)
    for e in exprs:
        coeffs, exps = as_polynomial(e).to_arrays(2)
        table = kernels.poly_grid_eval(coeffs, exps, axes)
        for _ in range(20):
            i = int(rng.integers(len(axes[0])))
            j = int(rng.integers(len(axes[1])))
            direct = float(evaluate(e, [axes[0][i], axes[1][j]]))
            assert table[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def _poly_grid_eval_terms(coeffs, exps, axes):
    """Reference: the full grid zeroed, then each term added to it."""
    n = len(axes)
    shape = tuple(len(ax) for ax in axes)
    out = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(coeffs.size):
            term = coeffs[t]
            for k in range(n):
                e = int(exps[t, k])
                if e:
                    reshape = [1] * n
                    reshape[k] = shape[k]
                    term = term * (axes[k] ** e).reshape(reshape)
            out += term
    return out


def _assert_same_bits(got, want):
    """Equal values and sign bits, NaN where both are NaN."""
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _random_polynomial(rng, n):
    """Coefficient and exponent arrays: a few terms, in random order, some
    with coefficients past 1e300 (inf and nan cells), some that give -0.0
    on a zero of the axes."""
    m = int(rng.integers(1, 7))
    scale = rng.choice([1.0, 1.0, 1.0, 1e300])
    coeffs = rng.choice([-2.0, -1.0, -0.5, 0.25, 1.0, 3.0], size=m) * scale
    exps = rng.integers(0, 4, size=(m, n)) * (rng.random((m, n)) < 0.6)
    return coeffs, exps


def _random_axes(rng, n):
    # odd counts on a symmetric box put 0.0 on the axis
    return [np.linspace(-2.0, 2.0, int(rng.choice([3, 5, 6]))) * rng.choice(
        [1.0, 1e30]) for _ in range(n)]


def test_poly_grid_eval_matches_term_by_term_fold():
    rng = np.random.default_rng(17)
    for _ in range(3000):
        n = int(rng.integers(1, 5))
        coeffs, exps = _random_polynomial(rng, n)
        axes = _random_axes(rng, n)
        want = _poly_grid_eval_terms(coeffs, exps, axes)
        _assert_same_bits(kernels.poly_grid_eval(coeffs, exps, axes), want)


def test_poly_eval_at_lines_matches_full_grid():
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        coeffs, exps = _random_polynomial(rng, n)
        axes = _random_axes(rng, n)
        table = _poly_grid_eval_terms(coeffs, exps, axes)
        a = int(rng.integers(n))
        lines = int(rng.integers(1, 6))
        index = [rng.integers(len(ax), size=(lines, 1)) for ax in axes]
        index[a] = np.arange(len(axes[a]))
        _assert_same_bits(kernels.poly_eval_at(coeffs, exps, axes, index),
                          table[tuple(index)])


def _pure_nash_mask_loop(tables, tol_abs=1e-12, tol_rel=1e-12):
    """Reference scan: test every unilateral grid move of every agent."""
    shape = tables.shape[1:]
    mask = np.ones(shape, dtype=bool)
    for idx in np.ndindex(*shape):
        for a in range(len(shape)):
            line = [tables[(a,) + idx[:a] + (t,) + idx[a + 1:]]
                    for t in range(shape[a])]
            best = min(line)
            if tables[(a,) + idx] > best + tol_abs + tol_rel * abs(best):
                mask[idx] = False
    return mask


@pytest.mark.parametrize("shape", [(2, 7, 7), (3, 5, 4, 3)])
def test_pure_nash_mask_matches_loop(shape):
    # small integers make ties, so the mask has both true and false cells
    tables = np.random.default_rng(9).integers(0, 3, size=shape).astype(float)
    expected = _pure_nash_mask_loop(tables)
    assert expected.any() and not expected.all()
    axes = [np.arange(p, dtype=float) for p in shape[1:]]
    np.testing.assert_array_equal(kernels.pure_nash_mask(list(tables), axes),
                                  np.argwhere(expected))


def _random_game(rng, n):
    """n polynomial costs: own-axis quadratics with small rational
    coefficients plus couplings, so lines tie and interior minima occur."""
    costs = []
    for a in range(n):
        terms = {((a, 2),): Fraction(int(rng.integers(0, 3)), 2)}
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(n))
            mono = tuple(sorted({(a, 1), (k, 1)} if k != a else {(a, 1)}))
            terms[mono] = terms.get(mono, 0) + Fraction(
                int(rng.integers(-4, 5)), 4)
        costs.append(Polynomial(terms))
    return costs


def _game_sources(costs, axes, full=()):
    """The first cost as a table, the others as polynomial arrays except
    those in ``full``; and the stacked tables of every cost."""
    n = len(axes)
    tables = np.stack([kernels.poly_grid_eval(*p.to_arrays(n), axes)
                       for p in costs])
    sources = [tables[0]] + [tables[a] if a in full else costs[a].to_arrays(n)
                             for a in range(1, n)]
    return sources, tables


def test_pure_nash_mask_matches_loop_on_polynomial_games():
    rng = np.random.default_rng(31)
    nonempty = 0
    for trial in range(60):
        n = int(rng.integers(2, 5))
        points = {2: 9, 3: 7, 4: 5}[n]
        axes = [np.linspace(-1.0, 1.0, points) for _ in range(n)]
        costs = _random_game(rng, n)
        full = {a for a in range(1, n) if rng.random() < 0.3}
        sources, tables = _game_sources(costs, axes, full)
        expected = np.argwhere(_pure_nash_mask_loop(tables))
        nonempty += len(expected) > 0
        np.testing.assert_array_equal(kernels.pure_nash_mask(sources, axes),
                                      expected)
    assert nonempty > 10


@pytest.mark.parametrize("texts", [
    # the second agent's cost is flat in its own action: every cell ties
    ["(u1 - u2/2)^2 + u3", "u1*u3 - u3^2", "(u3 - u1)^2"],
    # -u1*u2 is -0.0 on the zero of each axis
    ["u1^2 - u1*u2", "-u1*u2 + u2^2/4", "u3^2 - u1*u3"],
    # an abs cost is tabulated: the full-table source
    ["(u1 - 1/3)^2 + u1*u2", "abs(u2 - u1) + u2*u3", "(u3 + u2/2)^2"],
])
def test_pure_nash_mask_special_costs(texts):
    names = ["u1", "u2", "u3"]
    exprs = [parse(t, names) for t in texts]
    axes = [np.linspace(-2.0, 2.0, 9) for _ in names]
    tables = np.stack([eval_on_grid(e, axes) for e in exprs])
    sources = [tables[0]] + [
        tables[a] if as_polynomial(e) is None
        else as_polynomial(e).to_arrays(3)
        for a, e in enumerate(exprs) if a]
    expected = np.argwhere(_pure_nash_mask_loop(tables))
    assert len(expected)
    np.testing.assert_array_equal(kernels.pure_nash_mask(sources, axes),
                                  expected)
