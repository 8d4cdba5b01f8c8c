"""Operator optimization and Nash equilibrium computation.

Two independent routes produce equilibrium candidates: simultaneous
stationarity (exact rational linear solve for quadratic games, damped
multistart Newton otherwise) and best-response iteration.  Every candidate
is verified against the unilateral-deviation inequality before it is
reported, duplicates are merged, and results are ordered lexicographically
so that reruns and concurrent evaluation cannot change the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..expr import Expression, Number, diff, evaluate, is_smooth, scalar_fn
from ..expr.compiled import ScalarFn
from ..expr.polynomial import Polynomial, as_polynomial, hessian
from ..game import ActionProfile, Game
from .config import SolverConfig
from .exact import is_positive_definite, solve_linear
from .linesearch import line_minimum_at
from .oracle import eval_on_grid, grid_axes, max_axis_points

Bounds = Sequence[tuple[Number, Number]]

#: extra allowance on verification residuals for float candidates
POLY_SLACK = 1e-9
SCAN_SLACK = 1e-7

#: candidates closer than this (max-norm) count as the same equilibrium
MERGE_TOL = 1e-7

#: cells in the operator-minimum seed table (8 MiB of float64); it binds
#: only past today's largest tables (61**3 cells for three agents)
SEED_MAX_CELLS = 1 << 20


class SolverError(Exception):
    """Solver escalation: a result violates a guaranteed property."""


class EquilibriumNotFound(SolverError):
    """No candidate equilibrium verified for a required subproblem."""


@dataclass(frozen=True)
class EquilibriumResult:
    profile: ActionProfile
    residual: float
    method: str  # "newton" | "best-response" | "grid"
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
    detail: str = ""


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


def _seeds(bounds: Bounds, cfg: SolverConfig) -> list[tuple[float, ...]]:
    n = len(bounds)
    lows = [float(lo) for lo, _ in bounds]
    highs = [float(hi) for _, hi in bounds]
    seeds = [tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))]
    if n <= 3:
        seeds.extend(itertools.product(*zip(lows, highs)))
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(cfg.multistart_count):
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

    Quadratic objectives with positive definite curvature are solved
    exactly over the rationals; everything else goes through a grid seed
    plus local polish (projected Newton when smooth, cyclic line
    minimization otherwise).  Ties break to the lexicographically
    smallest profile.
    """
    n = game.n
    objective = game.operator_cost
    p = as_polynomial(objective)
    if p is not None and p.degree() <= 2:
        Q, b, _ = p.quadratic_form(n)
        if is_positive_definite(Q):
            sol = solve_linear(Q, [-bi for bi in b])
            if sol is not None and _within(sol, game.bounds):
                profile = ActionProfile(sol)
                return OperatorSolution(
                    profile=profile,
                    value=p.evaluate(sol),
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
    for flat in order[: max(cfg.multistart_count, 4)]:
        idx = np.unravel_index(int(flat), table.shape)
        starts.append(tuple(float(axes[k][i]) for k, i in enumerate(idx)))
    starts.extend(_seeds(bounds, cfg))

    smooth = is_smooth(objective)
    value = scalar_fn(objective)
    if smooth:
        grad = [scalar_fn(diff(objective, i)) for i in range(n)]
        hess = [[scalar_fn(h) for h in row] for row in hessian(objective, n)]

    candidates: list[tuple[float, ...]] = []
    for start in starts:
        if smooth:
            polished = _newton_min(value, grad, hess, start, bounds, cfg)
        else:
            polished = _coordinate_descent(objective, start, bounds, cfg)
        if polished is not None:
            candidates.append(polished)
    if not candidates:
        candidates = starts[:1]

    best_val = min(value(c) for c in candidates)
    near = [c for c in candidates
            if value(c) <= best_val + 1e-12 * max(1.0, abs(best_val))]
    best = min(near)
    profile = ActionProfile(best)
    stat = _stationarity(grad, best) if smooth else float("nan")
    on_edge = any(
        abs(v - float(lo)) < 1e-12 or abs(v - float(hi)) < 1e-12
        for v, (lo, hi) in zip(best, bounds))
    boundary = on_edge and (not smooth or stat > cfg.tol_stationarity)
    return OperatorSolution(
        profile=profile,
        value=value(best),
        on_boundary=boundary,
        exact=False,
        stationarity=stat,
    )


def _stationarity(grad: Sequence[ScalarFn], point: Sequence[float]) -> float:
    return max(abs(g(point)) for g in grad)


def _clip(point: np.ndarray, bounds: Bounds) -> np.ndarray:
    lo = np.array([float(l) for l, _ in bounds])
    hi = np.array([float(h) for _, h in bounds])
    return np.clip(point, lo, hi)


def _newton_min(objective: ScalarFn, grad: Sequence[ScalarFn],
                hess: Sequence[Sequence[ScalarFn]], start, bounds: Bounds,
                cfg: SolverConfig, iters: int = 60) -> Optional[tuple[float, ...]]:
    x = np.array(start, dtype=float)
    fx = objective(x.tolist())
    for _ in range(iters):
        pt = x.tolist()
        g = np.array([gi(pt) for gi in grad])
        if np.max(np.abs(g)) <= cfg.tol_stationarity:
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
            xn = _clip(x + lam * step, bounds)
            fn = objective(xn.tolist())
            if fn < fx - 1e-15:
                x, fx, improved = xn, fn, True
                break
            lam /= 2
        if not improved:
            break
    return tuple(float(v) for v in x)


def _coordinate_descent(objective: Expression, start, bounds: Bounds,
                        cfg: SolverConfig, sweeps: int = 200
                        ) -> Optional[tuple[float, ...]]:
    p = as_polynomial(objective)
    point = [float(v) for v in start]
    for _ in range(sweeps):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            lm = line_minimum_at(objective, p, i, point, lo, hi, cfg)
            new = float(lm.arg)
            moved = max(moved, abs(new - point[i]))
            point[i] = new
        if moved <= cfg.tol_fixed_point:
            break
    return tuple(point)


# ---------------------------------------------------------------------------
# best responses and equilibria


def best_response(costs: Sequence[Expression], i: int,
                  others: Sequence[Number], bounds: Bounds,
                  cfg: SolverConfig) -> Number:
    """Agent ``i``'s cost-minimizing action with everyone else fixed.

    ``others`` is a full profile whose i-th entry is ignored.  Flat or
    tied objectives resolve to the smallest action in the interval.
    """
    lo, hi = bounds[i]
    return line_minimum_at(costs[i], as_polynomial(costs[i]), i, others,
                           lo, hi, cfg).arg


def verify_nash(costs: Sequence[Expression], profile: ActionProfile | Sequence[Number],
                bounds: Bounds, cfg: SolverConfig) -> float:
    """Largest unilateral improvement any agent can find from ``profile``.

    Zero (up to numerics) certifies the defining equilibrium inequality;
    the per-agent line is minimized by stationary-point analysis for
    polynomial costs and scan-plus-refine otherwise.
    """
    values = tuple(profile)
    worst = 0.0
    for i, (lo, hi) in enumerate(bounds):
        here = evaluate(costs[i], values)
        lm = line_minimum_at(costs[i], as_polynomial(costs[i]), i, values,
                             lo, hi, cfg, full_scan=True)
        worst = max(worst, float(here - lm.value))
    return max(worst, 0.0)


def _verify_slack(costs: Sequence[Expression]) -> float:
    if all(as_polynomial(c) is not None for c in costs):
        return POLY_SLACK
    return SCAN_SLACK


def _stationarity_exact(costs: Sequence[Expression], n: int
                        ) -> Optional[tuple[list[Fraction], bool]]:
    """Solve the stacked first-order system when every cost is quadratic.

    Also reports whether the symmetrized matrix of own-action cross second
    derivatives is positive definite: under that (diagonal strict
    convexity) condition the equilibrium over the box is unique.
    """
    rows, rhs = [], []
    for i in range(n):
        p = as_polynomial(costs[i])
        if p is None or p.degree() > 2:
            return None
        dp = as_polynomial(diff(costs[i], i))
        lin = dp.linear_coefficients(n)
        if lin is None:
            return None
        coeffs, constant = lin
        rows.append(coeffs)
        rhs.append(-constant)
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
                         bounds: Bounds, cfg: SolverConfig, iters: int = 80
                         ) -> Optional[tuple[float, ...]]:
    x = np.array(start, dtype=float)
    fx = np.array([f(x.tolist()) for f in F])
    for _ in range(iters):
        norm = np.max(np.abs(fx))
        if norm <= cfg.tol_stationarity:
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
            xn = _clip(x + lam * step, bounds)
            pt = xn.tolist()
            fn = np.array([f(pt) for f in F])
            if np.max(np.abs(fn)) < norm * (1.0 - 0.25 * lam) + 1e-15:
                x, fx, advanced = xn, fn, True
                break
            lam /= 2
        if not advanced:
            return None
    return None


def _best_response_iteration(costs: Sequence[Expression],
                             polys: Sequence[Optional[Polynomial]], start,
                             bounds: Bounds, cfg: SolverConfig
                             ) -> tuple[float, ...]:
    """Gauss-Seidel best-response sweep from one seed.

    Always returns the final iterate as a candidate: a revisited point may
    be a genuine oscillation (dropped later by verification) or just the
    line-search noise floor around a fixed point (which verifies fine).
    """
    point = [float(v) for v in start]
    seen: list[tuple[float, ...]] = []
    for _ in range(cfg.br_max_iters):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            lm = line_minimum_at(costs[i], polys[i], i, point, lo, hi, cfg)
            new = float(lm.arg)
            moved = max(moved, abs(new - point[i]))
            point[i] = new
        snapshot = tuple(point)
        if moved <= cfg.tol_fixed_point or snapshot in seen:
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
    n = len(costs)
    candidates: list[tuple[tuple[Number, ...], str, bool]] = []

    exact_path = _stationarity_exact(costs, n)
    exact_sol = None
    if exact_path is not None:
        sol, unique = exact_path
        if _within(sol, bounds):
            exact_sol = sol
            candidates.append((tuple(sol), "newton", True))
            if unique:
                # diagonally strictly convex: no other equilibrium exists,
                # so skip the multistart routes and just verify
                residual = verify_nash(costs, sol, bounds, cfg)
                if residual <= cfg.tol_fixed_point + POLY_SLACK:
                    return [EquilibriumResult(
                        profile=ActionProfile(sol), residual=residual,
                        method="newton", converged=True, exact=True)]

    polys = [as_polynomial(c) for c in costs]
    seeds = _seeds(bounds, cfg)
    br_points = []
    for seed in seeds:
        found = _best_response_iteration(costs, polys, seed, bounds, cfg)
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

    slack = _verify_slack(costs)
    verified: list[EquilibriumResult] = []
    for values, method, exact in candidates:
        residual = verify_nash(costs, values, bounds, cfg)
        if residual <= cfg.tol_fixed_point + slack:
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


def _sample_axes(bounds: Bounds, n: int) -> list[np.ndarray]:
    per_axis = 9 if n <= 3 else 5
    return [np.linspace(float(lo), float(hi), per_axis) for lo, hi in bounds]


def _sampled_pd(entries: list[list[Expression]], bounds: Bounds
                ) -> ConvexityReport:
    n = len(entries)
    fns = [[scalar_fn(e) for e in row] for row in entries]
    worst = np.inf
    for point in itertools.product(*_sample_axes(bounds, n)):
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
                               min_eigenvalue=eig,
                               detail="constant matrix is not positive definite")
    return _sampled_pd(entries, bounds)


def hessian_pd_check(e: Expression, game: Game, cfg: SolverConfig) -> ConvexityReport:
    """Positive definiteness of the Hessian: exact for quadratics, sampled
    over the bound box otherwise; 'unknown' for non-differentiable input."""
    if not is_smooth(e):
        return ConvexityReport(status="unknown", sampled=False,
                               detail="objective is not twice differentiable")
    return _pd_report(hessian(e, game.n), game.bounds)


def diagonal_strict_convexity_check(costs: Sequence[Expression], game: Game,
                                    cfg: SolverConfig) -> ConvexityReport:
    """Rosen's uniqueness condition: the symmetrized matrix of own-action
    cross second derivatives must be positive definite."""
    n = len(costs)
    if not all(is_smooth(c) for c in costs):
        return ConvexityReport(status="unknown", sampled=False,
                               detail="some cost is not twice differentiable")
    rows = []
    for i in range(n):
        own = diff(costs[i], i)
        rows.append([diff(own, j) for j in range(n)])
    sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    return _pd_report(sym, game.bounds)
