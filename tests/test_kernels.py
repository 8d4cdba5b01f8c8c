"""Grid kernels against scalar evaluation and plain Python loops."""

import numpy as np
import pytest

from incentive_audit.expr import evaluate, parse
from incentive_audit.expr.polynomial import as_polynomial
from incentive_audit.solve import kernels

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
    np.testing.assert_array_equal(kernels.pure_nash_mask(tables), expected)
