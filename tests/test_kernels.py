"""Grid kernels against scalar evaluation and plain Python loops."""

import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_audit.expr import evaluate, parse
from incentive_audit.expr.polynomial import Polynomial, as_polynomial
from incentive_audit.solve import kernels
from incentive_audit.solve.oracle import _cost_source, eval_on_grid

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
    sources = [tables[0]] + [
        tables[a] if a in full else kernels.Poly(*costs[a].to_arrays(n))
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
        else kernels.Poly(*as_polynomial(e).to_arrays(3))
        for a, e in enumerate(exprs) if a]
    expected = np.argwhere(_pure_nash_mask_loop(tables))
    assert len(expected)
    np.testing.assert_array_equal(kernels.pure_nash_mask(sources, axes),
                                  expected)


def test_table_costs_are_read_without_a_copy():
    # a table cost is read on its box as a slice of the table, which is a
    # view: gathering its lines by index would copy it
    names = ["u1", "u2", "u3"]
    axes = [np.linspace(-1.0, 1.0, 81) for _ in names]
    tables = [eval_on_grid(parse(t, names), axes) for t in
              ["(u1 - 1/3)^2 + u1*u2/8", "(u2 + 1/4)^2 - u2*u3/8",
               "u3^2 + u1*u3/4"]]
    for read in (lambda: kernels.pure_nash_mask(tables, axes),
                 lambda: kernels.grid_argmin(tables[0], axes)):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables[0].nbytes / 2


def test_full_grid_reads_hold_one_table_at_a_time():
    # cross coefficients above the own curvature: the candidate box stays
    # the whole grid, so every agent reads its full table, and each table
    # is freed before the next agent's is built
    names = ["u1", "u2", "u3"]
    axes = [np.linspace(-2.0, 2.0, 61) for _ in names]
    bounds = [(Fraction(-2), Fraction(2))] * 3
    sources = [_cost_source(parse(t, names), axes, bounds) for t in
               ["u1^2 - 4*u1*u2", "u2^2 + 4*u2*u3", "u3^2 - 4*u1*u3 + u2/2"]]
    assert kernels.candidate_box(sources, axes) == [range(61)] * 3
    tracemalloc.start()
    try:
        kernels.pure_nash_mask(sources, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 61 ** 3 * 8


# ---------------------------------------------------------------------------
# box reads against the full table

#: cells of one drawn game at most, so that tables stay small
GAME_CELLS = 40_000

_BOX_LO = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
           Fraction(1, 4), Fraction(1, 2), Fraction(1)]
_BOX_WIDTH = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(4)]
#: own quadratic and linear coefficients: the last ones make nearly flat
#: lines, and a 0 square a linear or constant one
_OWN_SQUARE = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(0),
               Fraction(1, 2 ** 40)]
_OWN_LINEAR = [Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-5, 2),
               Fraction(0), Fraction(1, 2 ** 45), Fraction(-1, 2 ** 45)]
#: constant terms come first in the fold, so they round at the scale of
#: the large terms that follow them
_CONSTANT = [Fraction(0), Fraction(1, 3), Fraction(-7, 5)]
_COUPLING = [Fraction(-1), Fraction(1, 2), Fraction(1, 4), Fraction(-3),
             Fraction(2)]


@st.composite
def own_convex_games(draw):
    """(bounds, axes, costs): 2-4 agents with 3-121 points per axis (3-7
    about half the time), each cost a Polynomial of degree <= 2 in its own
    action with a nonnegative exact square coefficient.

    Some lines are flat or nearly flat, so that many cells of a line are
    best responses; some costs minimize midway between two grid points, so
    cells tie.  With ``twin`` the last two axes are equal and the first
    agent's cost has K*u1*u_b - K*u1*u_c with large K: on the lines where
    u_b = u_c the exact slope terms cancel, but the float fold rounds at
    K's scale, so the line's floats are noise around a near-flat line."""
    n = draw(st.integers(2, 4))
    twin = n >= 3 and draw(st.booleans())
    bounds, axes, left = [], [], GAME_CELLS
    for k in range(n):
        if twin and k == n - 1:
            bounds.append(bounds[-1])
            axes.append(axes[-1])
            break
        # leave at least 3 points for each axis still to come
        top = min(121, isqrt(left) if twin and k == n - 2
                  else left // 3 ** (n - 1 - k))
        # short axes about half the time
        p = draw(st.one_of(st.integers(3, min(top, 7)), st.integers(3, top)))
        left //= p
        lo = draw(st.sampled_from(_BOX_LO))
        bounds.append((lo, lo + draw(st.sampled_from(_BOX_WIDTH))))
        axes.append(np.linspace(float(bounds[k][0]), float(bounds[k][1]), p))
    points = [len(ax) for ax in axes]
    costs = []
    for a in range(n):
        terms: dict = {}
        lo, hi = bounds[a]
        own = draw(st.sampled_from(["tie", "flat", "any"]))
        if own == "tie":
            # minimum midway between two grid points: (u_a - t)^2
            i = draw(st.integers(0, points[a] - 2))
            t = lo + (hi - lo) * Fraction(2 * i + 1, 2 * (points[a] - 1))
            terms[((a, 2),)] = Fraction(1)
            terms[((a, 1),)] = -2 * t
            terms[()] = t * t
        else:
            flat = own == "flat"
            terms[((a, 2),)] = draw(st.sampled_from(
                _OWN_SQUARE[-2:] if flat else _OWN_SQUARE))
            terms[((a, 1),)] = draw(st.sampled_from(
                _OWN_LINEAR[-3:] if flat else _OWN_LINEAR))
            terms[()] = draw(st.sampled_from(_CONSTANT))
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.sampled_from([k for k in range(n) if k != a]))
            mono = {k: draw(st.integers(1, 2))}
            if draw(st.booleans()):
                mono[a] = 1
            key = tuple(sorted(mono.items()))
            terms[key] = terms.get(key, 0) + draw(st.sampled_from(_COUPLING))
        if twin and a == 0:
            big = draw(st.sampled_from([Fraction(2 ** 20),
                                        Fraction(10 ** 6) + Fraction(1, 3)]))
            terms[((0, 1), (n - 2, 1))] = big
            terms[((0, 1), (n - 1, 1))] = -big
        costs.append(Polynomial(terms))
    return bounds, axes, costs


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@given(own_convex_games())
@settings(max_examples=150, deadline=None)
def test_box_reads_match_the_full_table(game):
    bounds, axes, costs = game
    shape = tuple(len(ax) for ax in axes)
    exprs = [p.to_expression() for p in costs]
    sources = [_cost_source(e, axes, bounds) for e in exprs]
    tables = [kernels.poly_grid_eval(s.coeffs, s.exps, axes) for s in sources]
    # reference: each agent's best responses on its lines in the full table
    mask = np.ones(shape, dtype=bool)
    for a, table in enumerate(tables):
        line_min = table.min(axis=a, keepdims=True)
        mask &= table <= (line_min + kernels.MASK_TOL_ABS
                          + kernels.MASK_TOL_REL * np.abs(line_min))
    for costs_read in (sources, tables):
        np.testing.assert_array_equal(
            kernels.pure_nash_mask(costs_read, axes), np.argwhere(mask))
    for source, table in zip(sources, tables):
        # the grid minimum: np.argmin's cell and its value bits
        idx, best = kernels.grid_argmin(source, axes)
        want = np.unravel_index(int(np.argmin(table)), shape)
        assert tuple(map(int, idx)) == tuple(map(int, want))
        assert _bits(best) == _bits(table[want])


@st.composite
def tie_games(draw):
    """(bounds, axes, costs, ties): 2-4 agents with 17-40 points per axis,
    each cost (u_a - t_a)^2 with t_a midway between the grid points
    ``ties[a]`` and ``ties[a] + 1``, plus terms in the other actions only,
    so that every line along u_a has its vertex at t_a and those two cells
    tie for its minimum."""
    n = draw(st.integers(2, 4))
    top = {2: 40, 3: 30, 4: 20}[n]
    bounds, axes, costs, ties = [], [], [], []
    for _ in range(n):
        p = draw(st.integers(17, top))
        lo = draw(st.sampled_from(_BOX_LO))
        bounds.append((lo, lo + draw(st.sampled_from(_BOX_WIDTH))))
        axes.append(np.linspace(float(bounds[-1][0]), float(bounds[-1][1]),
                                p))
    for a in range(n):
        lo, hi = bounds[a]
        points = len(axes[a])
        i = draw(st.integers(0, points - 2))
        t = lo + (hi - lo) * Fraction(2 * i + 1, 2 * (points - 1))
        terms = {((a, 2),): Fraction(1), ((a, 1),): -2 * t, (): t * t}
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.sampled_from([k for k in range(n) if k != a]))
            key = ((k, draw(st.integers(1, 2))),)
            terms[key] = terms.get(key, 0) + draw(st.sampled_from(_COUPLING))
        costs.append(Polynomial(terms))
        ties.append(i)
    return bounds, axes, costs, ties


@given(tie_games())
@settings(max_examples=60, deadline=None)
def test_pure_nash_mask_holds_both_tied_cells(game):
    # the two cells a grid spacing h apart around the vertex differ in
    # float rounding only, far under the best-response tolerance, and the
    # next cells cost 2 h^2 more; so every line's best responses are
    # exactly the tied pair, and the grid equilibria are every choice of
    # one cell of each agent's pair, in C order
    bounds, axes, costs, ties = game
    n = len(axes)
    sources = [_cost_source(p.to_expression(), axes, bounds) for p in costs]
    tables = [kernels.poly_grid_eval(*p.to_arrays(n), axes) for p in costs]
    want = list(itertools.product(*((i, i + 1) for i in ties)))
    # on the candidate box, and on every line of the full tables
    for costs_read in (sources, tables):
        np.testing.assert_array_equal(
            kernels.pure_nash_mask(costs_read, axes), want)


# ---------------------------------------------------------------------------
# the candidate box against full tables

#: own-square coefficients: the first certify, the last are small enough
#: that the margin refuses the certificate on every drawn grid
_CERTIFIED_SQUARE = [Fraction(1), Fraction(1, 2), Fraction(3)]
_REFUSED_SQUARE = [Fraction(1, 2 ** 40), Fraction(1, 2 ** 44)]
#: cross coefficients against own squares of 1/2-3: weak ones contract,
#: strong ones need not, so some games have no grid equilibrium
_WEAK = [Fraction(1, 8), Fraction(-1, 8), Fraction(1, 16), Fraction(-1, 4)]
_STRONG = [Fraction(-3), Fraction(2), Fraction(4), Fraction(-2)]


@st.composite
def box_games(draw):
    """(bounds, axes, costs): 2-4 agents on 3-41-point grids of at most
    ``GAME_CELLS`` cells, each cost a Polynomial whose own part is a
    convex parabola (some with their vertex midway between two grid
    points), a parabola too flat for the margin, linear, cubic, or carries
    u_a^2 * u_k; plus cross terms u_k, u_k^2, u_a * u_k or u_a * u_k^2,
    weak or strong.  With ``chase`` the first agent's cost is
    (u1 - u2)^2 and the second's (u2 + u1)^2, both on the same symmetric
    grid without a zero: the first matches the second, who moves to the
    mirror image, so the grid has no equilibrium."""
    n = draw(st.integers(2, 4))
    chase = draw(st.integers(0, 3)) == 0
    bounds, axes, left = [], [], GAME_CELLS
    for k in range(n):
        top = min(41, left // 3 ** (n - 1 - k))
        if chase and k == 1:
            bounds.append(bounds[0])
            axes.append(axes[0])
            left //= len(axes[0])
            continue
        if chase and k == 0:
            # an even count with room for it twice, short about half the
            # time so that the box is read
            half = min(20, isqrt(left // 3 ** (n - 2)) // 2)
            p = 2 * draw(st.one_of(st.integers(2, 3), st.integers(2, half)))
            lo = Fraction(-1)
            bounds.append((lo, Fraction(1)))
        else:
            p = draw(st.integers(3, top))
            lo = draw(st.sampled_from(_BOX_LO))
            bounds.append((lo, lo + draw(st.sampled_from(_BOX_WIDTH))))
        left //= p
        axes.append(np.linspace(float(lo), float(bounds[k][1]), p))
    coupling = draw(st.sampled_from([_WEAK, _STRONG]))
    costs = []
    for a in range(n):
        lo, hi = bounds[a]
        others = [k for k in range(n) if k != a]
        own = draw(st.sampled_from(["convex", "midpoint", "flat", "linear",
                                    "cubic", "square-coupled"]))
        terms: dict = {((a, 1),): draw(st.sampled_from(_OWN_LINEAR))}
        if own == "midpoint":
            i = draw(st.integers(0, len(axes[a]) - 2))
            t = lo + (hi - lo) * Fraction(2 * i + 1, 2 * (len(axes[a]) - 1))
            terms = {((a, 2),): Fraction(1), ((a, 1),): -2 * t, (): t * t}
        elif own != "linear":
            terms[((a, 2),)] = draw(st.sampled_from(
                _REFUSED_SQUARE if own == "flat" else _CERTIFIED_SQUARE))
        if own == "cubic":
            terms[((a, 3),)] = draw(st.sampled_from([Fraction(1, 8),
                                                     Fraction(-1, 4)]))
        elif own == "square-coupled":
            k = draw(st.sampled_from(others))
            terms[tuple(sorted([(a, 2), (k, 1)]))] = draw(
                st.sampled_from(_WEAK))
        for _ in range(draw(st.integers(0, 3))):
            mono = {draw(st.sampled_from(others)): draw(st.integers(1, 2))}
            if draw(st.booleans()):
                mono[a] = 1
            key = tuple(sorted(mono.items()))
            terms[key] = terms.get(key, 0) + draw(st.sampled_from(coupling))
        costs.append(Polynomial(terms))
    if chase:
        costs[:2] = [Polynomial({((0, 2),): Fraction(1), ((1, 2),): Fraction(1),
                                 ((0, 1), (1, 1)): sign * Fraction(2)})
                     for sign in (-1, 1)]
    return bounds, axes, costs


def _best_everywhere(tables):
    """Reference: the cells that are best responses of every table along
    its own axis, from each line's minimum and ``_bar``."""
    keep = np.ones(tables[0].shape, dtype=bool)
    for a, table in enumerate(tables):
        keep &= table <= kernels._bar(table.min(axis=a, keepdims=True))
    return keep


def _in_box(cells, box):
    return all(np.isin(cells[:, k], list(r)).all() for k, r in enumerate(box))


@given(box_games())
@settings(max_examples=200, deadline=None)
def test_candidate_box_reads_match_full_tables(game):
    bounds, axes, costs = game
    n, shape = len(axes), tuple(len(ax) for ax in axes)
    exprs = [p.to_expression() for p in costs]
    sources = [_cost_source(e, axes, bounds) for e in exprs]
    tables = [kernels.poly_grid_eval(s.coeffs, s.exps, axes) for s in sources]
    want = np.argwhere(_best_everywhere(tables))
    # the box holds every grid equilibrium, whether or not it is read
    assert _in_box(want, kernels.candidate_box(sources, axes))
    np.testing.assert_array_equal(kernels.pure_nash_mask(sources, axes), want)
    for e, table in zip(exprs, tables):
        objective = _cost_source(e, axes, bounds)
        assert _in_box(np.argwhere(table == table.min()),
                       kernels.candidate_box([objective] * n, axes))
        idx, best = kernels.grid_argmin(objective, axes)
        first = np.unravel_index(int(np.argmin(table)), shape)
        assert tuple(map(int, idx)) == tuple(map(int, first))
        assert _bits(best) == _bits(table[first])


def test_candidate_box_certifies_parabolas_only():
    names = ["u1", "u2", "u3"]
    axes = [np.linspace(-2.0, 2.0, 101) for _ in names]
    bounds = [(Fraction(-2), Fraction(2))] * 3

    def box(texts):
        return kernels.candidate_box(
            [_cost_source(parse(t, names), axes, bounds) for t in texts],
            axes)

    weak = ["u1^2 - u1*u2/4", "(u2 - 1/3)^2 + u2*u3/8", "u3^2/2 - u1*u3/8"]
    assert prod(len(r) for r in box(weak)) < 30
    # a cubic own term, a square with another factor and a square too flat
    # for the margin: those axes keep their full range
    for a, text in enumerate(["u1^3/8 + u1^2 - u1*u2/4",
                              "u2^2*u3/8 + u2^2 - u2",
                              "u3^2/2^44 - u1*u3/8"]):
        ranges = box(weak[:a] + [text] + weak[a + 1:])
        assert len(ranges[a]) == 101
    # cross terms above the own curvature: no sweep shrinks any range
    strong = ["u1^2 - 4*u1*u2", "u2^2 + 4*u2*u3", "u3^2 - 4*u1*u3"]
    assert box(strong) == [range(101)] * 3
    # a quartic u2 keeps its whole axis, over which u2^2 spans [0, 4]: u1's
    # vertex u2^2/4 spans [0, 1], so the equilibrium (0, 0, 0) stays in
    ranges = box(["u1^2 - u1*u2^2/2", "u2^4", "u3^2"])
    assert all(50 in r for r in ranges) and len(ranges[0]) < 40


# ---------------------------------------------------------------------------
# the error bound of the float fold

#: coefficients with large magnitudes, non-dyadic parts and near-opposite
#: pairs, so that sums cancel
_HEAVY = [Fraction(1), Fraction(-1, 3), Fraction(10 ** 6) + Fraction(1, 7),
          -Fraction(10 ** 6), Fraction(2 ** 40) - Fraction(1, 3),
          -Fraction(2 ** 40), Fraction(5, 11), Fraction(-7, 3 * 10 ** 5)]


@st.composite
def polynomials_at_cells(draw):
    """(polynomial, bounds, points): degree <= 4 in 1-4 agents on boxes
    within [-10, 10], and up to 8 points of the box."""
    n = draw(st.integers(1, 4))
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-10, 9))
        bounds.append((Fraction(lo), Fraction(draw(st.integers(lo + 1, 10)))))
    terms: dict = {}
    for _ in range(draw(st.integers(1, 8))):
        exps: dict = {}
        for _ in range(draw(st.integers(0, 4))):
            k = draw(st.integers(0, n - 1))
            exps[k] = exps.get(k, 0) + 1
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0) + draw(st.sampled_from(_HEAVY))
    poly = Polynomial(terms)
    coordinate = [st.one_of(st.sampled_from([float(lo), float(hi), 0.0]),
                            st.floats(float(lo), float(hi)))
                  for lo, hi in bounds]
    points = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=8))
    return poly, bounds, points


@given(polynomials_at_cells())
@settings(max_examples=300, deadline=None)
def test_float_error_bounds_the_fold(case):
    # float_error is twice the fold's error bound; the candidate box's
    # margin (3 err) relies on the error staying under half of it
    poly, bounds, points = case
    n = len(bounds)
    half = Fraction(poly.float_error(bounds)) / 2
    axes = [np.array([p[k] for p in points]) for k in range(n)]
    index = [np.arange(len(points))] * n
    values = kernels.poly_eval_at(*poly.to_arrays(n), axes, index)
    for value, point in zip(values, points):
        exact = sum((c * prod(Fraction(point[k]) ** e for k, e in mono)
                     for mono, c in poly.terms.items()), Fraction(0))
        assert abs(Fraction(float(value)) - exact) <= half
