"""Operator optimization and Nash equilibrium computation.

Two independent routes produce equilibrium candidates: simultaneous
stationarity (exact rational linear solve for quadratic games, damped
multistart Newton otherwise) and best-response iteration.  Every candidate
is verified against the unilateral-deviation inequality before it is
reported, duplicates are merged, and results are ordered lexicographically
so that reruns and concurrent evaluation cannot change the output.

One solve computes each distinct line minimum once: the best-response
sweeps and the verification of every candidate read them through a
:class:`LineCache` that lives as long as the ``nash_equilibrium`` call, so
sweeps from different seeds that reach the same fixed point, and the
verification of those endpoints, reuse the lines already minimized.  Every
line is minimized from its piece ends and stationary points
(``linesearch``), so one slack, ``POLY_SLACK``, covers float residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from ..expr import (Expression, Number, add, diff, evaluate, is_smooth,
                    scalar_fn)
from ..expr.compiled import ScalarFn
from ..expr.polynomial import as_polynomial, hessian
from ..game import ActionProfile, Game
from .config import RNG_SEED, SolverConfig
from .exact import is_positive_definite, solve_linear
from .linesearch import LineMin, SolverError, line_minimum_at
from .oracle import eval_on_grid, grid_axes, max_axis_points

Bounds = Sequence[tuple[Number, Number]]

#: extra allowance on verification residuals for float candidates
POLY_SLACK = 1e-9

#: candidates closer than this (max-norm) count as the same equilibrium
MERGE_TOL = 1e-7

#: cells in the operator-minimum seed table (8 MiB of float64); it binds
#: only past today's largest tables (61**3 cells for three agents)
SEED_MAX_CELLS = 1 << 20

#: points of a sampled check: from six agents on, drawn from its lattice
SAMPLE_MAX_CELLS = 5 ** 5

#: random seeds per multistart, and grid-table starts of the operator
#: polish
MULTISTART_COUNT = 8

#: best-response sweeps from one seed
BR_MAX_ITERS = 500

#: iteration limits: the operator's Newton polish and Newton on the
#: stationarity system
NEWTON_MIN_ITERS = 60
STATIONARITY_MAX_ITERS = 80


class EquilibriumNotFound(SolverError):
    """No candidate equilibrium verified for a required subproblem."""


@dataclass(frozen=True)
class EquilibriumResult:
    profile: ActionProfile
    residual: float
    method: str  # "newton" | "best-response"
    converged: bool
    exact: bool = False


@dataclass(frozen=True)
class OperatorSolution:
    profile: ActionProfile
    value: Number
    on_boundary: bool
    exact: bool
    stationarity: float


@dataclass(frozen=True)
class ConvexityReport:
    status: str  # "holds" | "fails" | "unknown"
    sampled: bool
    witness: Optional[ActionProfile] = None
    min_eigenvalue: Optional[float] = None


def _within(values: Sequence[Number], bounds: Bounds) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(values, bounds))


def _axis_counts(n: int, cfg: SolverConfig) -> int:
    if n <= 2:
        points = cfg.grid_points_per_axis
    elif n == 3:
        points = min(cfg.grid_points_per_axis, 61)
    else:
        points = min(cfg.grid_points_per_axis, 21)
    return min(points, max_axis_points(SEED_MAX_CELLS, n))


def _seeds(bounds: Bounds) -> list[tuple[float, ...]]:
    n = len(bounds)
    lows = [float(lo) for lo, _ in bounds]
    highs = [float(hi) for _, hi in bounds]
    seeds = [tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))]
    if n <= 3:
        seeds.extend(itertools.product(*zip(lows, highs)))
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(MULTISTART_COUNT):
        seeds.append(tuple(rng.uniform(lows, highs)))
    unique = []
    for s in seeds:
        if all(max(abs(a - b) for a, b in zip(s, t)) > 1e-12 for t in unique):
            unique.append(s)
    return unique


# ---------------------------------------------------------------------------
# operator optimum


def minimize_operator(game: Game, cfg: SolverConfig) -> OperatorSolution:
    """Minimize the operator objective over the bound box.

    A quadratic objective with positive definite curvature is solved
    exactly, as the stationary point of the identical-interest game in
    which every agent bears it; everything else goes through a grid seed
    plus local polish (projected Newton when smooth, best-response sweeps
    with the objective as every agent's cost otherwise).  Ties break to
    the lexicographically smallest profile.
    """
    objective = game.operator_cost
    sol, definite = _stationarity_exact([objective] * game.n) or (None, False)
    if definite and _within(sol, game.bounds):
        return OperatorSolution(
            profile=ActionProfile(sol),
            value=evaluate(objective, sol),
            on_boundary=False,
            exact=True,
            stationarity=0.0,
        )
    return _minimize_numeric(objective, game.bounds, cfg)


def _minimize_numeric(objective: Expression, bounds: Bounds,
                      cfg: SolverConfig) -> OperatorSolution:
    n = len(bounds)
    axes = grid_axes(bounds, _axis_counts(n, cfg))
    table = eval_on_grid(objective, axes)
    order = np.argsort(table, axis=None, kind="stable")
    starts = []
    for flat in order[:MULTISTART_COUNT]:
        idx = np.unravel_index(int(flat), table.shape)
        starts.append(tuple(float(axes[k][i]) for k, i in enumerate(idx)))
    starts.extend(_seeds(bounds))

    smooth = is_smooth(objective)
    value = scalar_fn(objective)
    if smooth:
        grad = [scalar_fn(diff(objective, i)) for i in range(n)]
        hess = [[scalar_fn(h) for h in row] for row in hessian(objective, n)]
    # coordinate descent: best response with the objective as every cost
    lines = LineCache([objective] * n, bounds)
    candidates = [_newton_min(value, grad, hess, start, bounds, cfg)
                  if smooth else _best_response_iteration(lines, start, cfg)
                  for start in starts]

    best_val = min(value(c) for c in candidates)
    near = [c for c in candidates
            if value(c) <= best_val + 1e-12 * max(1.0, abs(best_val))]
    best = min(near)
    profile = ActionProfile(best)
    stat = _stationarity(grad, best) if smooth else float("nan")
    on_edge = any(
        abs(v - float(lo)) < 1e-12 or abs(v - float(hi)) < 1e-12
        for v, (lo, hi) in zip(best, bounds))
    boundary = on_edge and (not smooth or stat > cfg.tol)
    return OperatorSolution(
        profile=profile,
        value=value(best),
        on_boundary=boundary,
        exact=False,
        stationarity=stat,
    )


def _stationarity(grad: Sequence[ScalarFn], point: Sequence[float]) -> float:
    return max(abs(g(point)) for g in grad)


def _float_box(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([float(lo) for lo, _ in bounds]),
            np.array([float(hi) for _, hi in bounds]))


def _newton_min(objective: ScalarFn, grad: Sequence[ScalarFn],
                hess: Sequence[Sequence[ScalarFn]], start, bounds: Bounds,
                cfg: SolverConfig) -> tuple[float, ...]:
    lo, hi = _float_box(bounds)
    x = np.array(start, dtype=float)
    fx = objective(x.tolist())
    for _ in range(NEWTON_MIN_ITERS):
        pt = x.tolist()
        g = np.array([gi(pt) for gi in grad])
        if np.max(np.abs(g)) <= cfg.tol:
            break
        H = np.array([[hij(pt) for hij in row] for row in hess])
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        if not np.all(np.isfinite(step)):
            step = -g
        lam, improved = 1.0, False
        while lam >= 1e-8:
            xn = np.clip(x + lam * step, lo, hi)
            fn = objective(xn.tolist())
            if fn < fx - 1e-15:
                x, fx, improved = xn, fn, True
                break
            lam /= 2
        if not improved:
            break
    return tuple(float(v) for v in x)


# ---------------------------------------------------------------------------
# best responses and equilibria


def best_response(costs: Sequence[Expression], i: int,
                  others: Sequence[Number], bounds: Bounds) -> Number:
    """Agent ``i``'s cost-minimizing action with everyone else fixed.

    ``others`` is a full profile whose i-th entry is ignored.  Flat or
    tied objectives resolve to the smallest action in the interval.
    """
    lo, hi = bounds[i]
    return line_minimum_at(costs[i], i, others, lo, hi).arg


class LineCache:
    """The line minima of one game's costs over one box, each computed once.

    Agent ``i``'s line minimum never reads the agent's own action, so it is
    keyed by the agent and the other agents' actions with their types and,
    for zeros, their signs: ``Fraction(1, 2)`` and ``0.5`` take the exact
    and the float path, and ``0.0`` and ``-0.0`` can give minima of
    different sign.
    """

    def __init__(self, costs: Sequence[Expression], bounds: Bounds) -> None:
        self.costs, self.bounds = costs, bounds
        self.minima: dict[tuple, LineMin] = {}

    def minimum(self, i: int, values: Sequence[Number]) -> LineMin:
        key = (i,) + tuple(
            (type(v), v, not v and math.copysign(1.0, v))
            for j, v in enumerate(values) if j != i)
        lm = self.minima.get(key)
        if lm is None:
            lo, hi = self.bounds[i]
            lm = self.minima[key] = line_minimum_at(
                self.costs[i], i, values, lo, hi)
        return lm


def verify_nash(costs: Sequence[Expression], profile: ActionProfile | Sequence[Number],
                bounds: Bounds, lines: Optional[LineCache] = None) -> float:
    """Largest unilateral improvement any agent can find from ``profile``.

    Zero (up to numerics) certifies the defining equilibrium inequality;
    each agent's line is minimized from its stationary points, piece by
    piece for ``abs`` and guarded-division costs.  ``lines`` shares the
    line minima of the caller's solve; without it the check keeps its own.
    """
    if lines is None:
        lines = LineCache(costs, bounds)
    values = tuple(profile)
    floats = all(type(v) is float for v in values)
    worst = 0.0
    for i in range(len(bounds)):
        # the compiled form is float(evaluate(...)), bit for bit
        here = scalar_fn(costs[i])(values) if floats \
            else evaluate(costs[i], values)
        lm = lines.minimum(i, values)
        worst = max(worst, float(here - lm.value))
    return max(worst, 0.0)


def _stationarity_exact(costs: Sequence[Expression]
                        ) -> Optional[tuple[list[Fraction], bool]]:
    """Solve the stacked first-order system when every cost is quadratic.

    Also reports whether the symmetrized matrix of own-action cross second
    derivatives is positive definite: under that (diagonal strict
    convexity) condition the equilibrium over the box is unique.
    """
    n = len(costs)
    rows, rhs = [], []
    for i in range(n):
        p = as_polynomial(costs[i])
        if p is None or p.degree() > 2:
            return None
        # dC_i/du_i = (Q u)_i + b_i
        Q, b = p.quadratic_form(n)
        rows.append(Q[i])
        rhs.append(-b[i])
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    return sol, is_positive_definite(sym)


def _newton_system(costs: Sequence[Expression]
                   ) -> tuple[list[ScalarFn], list[list[ScalarFn]]]:
    """Compiled stacked first-order conditions F_i = dC_i/du_i and their
    Jacobian, built once per equilibrium solve."""
    n = len(costs)
    F = [diff(costs[i], i) for i in range(n)]
    Jac = [[scalar_fn(diff(F[i], j)) for j in range(n)] for i in range(n)]
    return [scalar_fn(f) for f in F], Jac


def _newton_stationarity(F: Sequence[ScalarFn],
                         Jac: Sequence[Sequence[ScalarFn]], start,
                         bounds: Bounds, cfg: SolverConfig
                         ) -> Optional[tuple[float, ...]]:
    lo, hi = _float_box(bounds)
    x = np.array(start, dtype=float)
    fx = np.array([f(x.tolist()) for f in F])
    for _ in range(STATIONARITY_MAX_ITERS):
        norm = np.max(np.abs(fx))
        if norm <= cfg.tol:
            return tuple(float(v) for v in x)
        pt = x.tolist()
        J = np.array([[fn(pt) for fn in row] for row in Jac])
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        lam, advanced = 1.0, False
        while lam >= 1e-10:
            xn = np.clip(x + lam * step, lo, hi)
            pt = xn.tolist()
            fn = np.array([f(pt) for f in F])
            if np.max(np.abs(fn)) < norm * (1.0 - 0.25 * lam) + 1e-15:
                x, fx, advanced = xn, fn, True
                break
            lam /= 2
        if not advanced:
            return None
    return None


def _best_response_iteration(lines: LineCache, start, cfg: SolverConfig
                             ) -> tuple[float, ...]:
    """Gauss-Seidel best-response sweep from one seed.

    Always returns the final iterate as a candidate: a revisited point may
    be a genuine oscillation (dropped later by verification) or just the
    line-search noise floor around a fixed point (which verifies fine).
    """
    point = [float(v) for v in start]
    seen: list[tuple[float, ...]] = []
    for _ in range(BR_MAX_ITERS):
        moved = 0.0
        for i in range(len(point)):
            new = float(lines.minimum(i, point).arg)
            moved = max(moved, abs(new - point[i]))
            point[i] = new
        snapshot = tuple(point)
        if moved <= cfg.tol or snapshot in seen:
            break
        seen = (seen + [snapshot])[-8:]
    return tuple(point)


def nash_equilibrium(costs: Sequence[Expression], bounds: Bounds,
                     cfg: SolverConfig) -> list[EquilibriumResult]:
    """All verified pure equilibria found by the two candidate routes.

    Returns an empty list when nothing verifies (no pure equilibrium was
    found empirically); callers treat that as a reportable condition, not
    an error.
    """
    lines = LineCache(costs, bounds)
    candidates: list[tuple[tuple[Number, ...], str, bool]] = []

    exact_path = _stationarity_exact(costs)
    exact_sol = None
    if exact_path is not None:
        sol, unique = exact_path
        if _within(sol, bounds):
            exact_sol = sol
            candidates.append((tuple(sol), "newton", True))
            if unique:
                # diagonally strictly convex: no other equilibrium exists,
                # so skip the multistart routes and just verify
                residual = verify_nash(costs, sol, bounds, lines)
                if residual <= cfg.tol + POLY_SLACK:
                    return [EquilibriumResult(
                        profile=ActionProfile(sol), residual=residual,
                        method="newton", converged=True, exact=True)]

    seeds = _seeds(bounds)
    br_points = []
    for seed in seeds:
        found = _best_response_iteration(lines, seed, cfg)
        br_points.append(found)
        candidates.append((found, "best-response", False))

    # Newton on the stacked first-order system; guarded divisions are
    # smooth wherever the guard is off, so they go through here too (the
    # best-response endpoints make good seeds near degenerate flats)
    if all(is_smooth(c) for c in costs) and exact_sol is None:
        F, Jac = _newton_system(costs)
        for seed in seeds + br_points:
            found = _newton_stationarity(F, Jac, seed, bounds, cfg)
            if found is not None and _within(found, bounds):
                candidates.append((found, "newton", False))

    verified: list[EquilibriumResult] = []
    for values, method, exact in candidates:
        residual = verify_nash(costs, values, bounds, lines)
        if residual <= cfg.tol + POLY_SLACK:
            verified.append(EquilibriumResult(
                profile=ActionProfile(values),
                residual=residual,
                method=method,
                converged=True,
                exact=exact,
            ))

    # merge duplicates; exact representatives win, then lexicographic order
    verified.sort(key=lambda r: (not r.exact, r.profile.as_floats()))
    merged: list[EquilibriumResult] = []
    for r in verified:
        if all(r.profile.max_distance(m.profile) > MERGE_TOL for m in merged):
            merged.append(r)
    merged.sort(key=lambda r: r.profile.as_floats())
    return merged


# ---------------------------------------------------------------------------
# curvature conditions


def _constant_matrix(entries: list[list[Expression]]
                     ) -> Optional[list[list[Fraction]]]:
    out = []
    for row in entries:
        vals = []
        for e in row:
            p = as_polynomial(e)
            if p is None or not p.is_constant():
                return None
            vals.append(p.constant_value())
        out.append(vals)
    return out


def sample_grid(bounds: Bounds, per_axis: int) -> Iterator[tuple[float, ...]]:
    """The lattice with ``per_axis`` evenly spaced values per axis: all of
    it, or past SAMPLE_MAX_CELLS points its middle point (the box centre for
    an odd count) and SAMPLE_MAX_CELLS - 1 points drawn with RNG_SEED."""
    axes = [np.linspace(float(lo), float(hi), per_axis) for lo, hi in bounds]
    n = len(axes)
    if per_axis ** n <= SAMPLE_MAX_CELLS:
        return itertools.product(*axes)
    rng = np.random.default_rng(RNG_SEED)
    picks = rng.integers(per_axis, size=(SAMPLE_MAX_CELLS - 1, n))
    rows = itertools.chain([(per_axis // 2,) * n], picks)
    return (tuple(ax[k] for ax, k in zip(axes, row)) for row in rows)


def _sampled_pd(entries: list[list[Expression]], bounds: Bounds
                ) -> ConvexityReport:
    fns = [[scalar_fn(e) for e in row] for row in entries]
    worst = np.inf
    for point in sample_grid(bounds, 9 if len(entries) <= 3 else 5):
        M = np.array([[fn(point) for fn in row] for row in fns])
        eig = float(np.linalg.eigvalsh(M)[0])
        if eig < worst:
            worst = eig
        if eig <= 0:
            return ConvexityReport(
                status="fails", sampled=True,
                witness=ActionProfile(point), min_eigenvalue=eig)
    return ConvexityReport(status="holds", sampled=True,
                           min_eigenvalue=worst)


def _pd_report(entries: list[list[Expression]], bounds: Bounds) -> ConvexityReport:
    constant = _constant_matrix(entries)
    if constant is not None:
        mat = np.array([[float(v) for v in row] for row in constant])
        eig = float(np.linalg.eigvalsh(mat)[0])
        if is_positive_definite(constant):
            return ConvexityReport(status="holds", sampled=False,
                                   min_eigenvalue=eig)
        return ConvexityReport(status="fails", sampled=False,
                               min_eigenvalue=eig)
    return _sampled_pd(entries, bounds)


def hessian_pd_check(e: Expression, game: Game) -> ConvexityReport:
    """Positive definiteness of the Hessian: exact for quadratics, sampled
    over the bound box otherwise; 'unknown' for non-differentiable input."""
    if not is_smooth(e):
        return ConvexityReport(status="unknown", sampled=False)
    return _pd_report(hessian(e, game.n), game.bounds)


def diagonal_strict_convexity_check(costs: Sequence[Expression],
                                    game: Game) -> ConvexityReport:
    """Rosen's uniqueness condition: the symmetrized matrix of own-action
    cross second derivatives must be positive definite."""
    n = len(costs)
    if not all(is_smooth(c) for c in costs):
        return ConvexityReport(status="unknown", sampled=False)
    rows = []
    for i in range(n):
        own = diff(costs[i], i)
        rows.append([diff(own, j) for j in range(n)])
    sym = [[add(rows[i][j], rows[j][i]) for j in range(n)] for i in range(n)]
    return _pd_report(sym, game.bounds)
