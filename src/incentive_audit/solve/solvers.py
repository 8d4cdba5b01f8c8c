"""Operator optimization and Nash equilibrium computation.

Two independent routes produce equilibrium candidates: simultaneous
stationarity (exact rational linear solve for quadratic games, damped
multistart Newton otherwise) and best-response iteration.  Candidates are
verified against the unilateral-deviation inequality in report order
(exact first, then lexicographic); one within ``MERGE_TOL`` of an
equilibrium already kept would be merged into it, so it is dropped
without verification.  Results are ordered lexicographically so that
reruns and concurrent evaluation cannot change the output.

The multistart runs in lockstep.  The best-response seeds sweep together,
and at each agent's step the lines of all running seeds are minimized in
one batch; the Newton starts iterate together on the compiled vector form
of the first-order system, with one stacked linear solve per iteration,
and so do the Newton starts that polish the operator optimum.  Both try
every full step in one evaluation, and the shorter steps of the starts it
does not advance in a second (``_damped``).  Each seed and start follows
the path it follows alone, to the bit.

One solve computes each distinct line minimum once: the best-response
sweeps and the verification of every candidate read them through a
:class:`LineCache` that lives as long as the ``nash_equilibrium`` call,
keyed by the agent and the actions its cost reads.  So sweeps from
different seeds that reach the same fixed point, and the verification of
those endpoints, reuse the lines already minimized, and seeds that differ
only in actions a cost leaves out share that cost's lines.  Every
line is minimized from its piece ends and stationary points
(``linesearch``), so one slack, ``POLY_SLACK``, covers float residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .._lazy import np
from ..expr import (Expression, Number, add, compiled, diff, evaluate,
                    is_smooth, structural_variables)
from ..expr.polynomial import as_polynomial, hessian
from ..game import ActionProfile, Game
from .config import RNG_SEED, SolverConfig
from .exact import is_positive_definite, solve_linear
from .linesearch import LineMin, SolverError, line_minima, line_minimum_at
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

#: the fractions of a Newton step each loop tries, the full step first:
#: the operator polish halves it down to 1e-8, the stationarity Newton down
#: to 1e-10
POLISH_STEPS = tuple(2.0 ** -k for k in range(27))
STATIONARITY_STEPS = tuple(2.0 ** -k for k in range(34))


class EquilibriumNotFound(SolverError):
    """No candidate equilibrium verified for a required subproblem."""


@dataclass(frozen=True)
class EquilibriumResult:
    profile: ActionProfile
    residual: float
    method: str  # "newton" | "best-response"


@dataclass(frozen=True)
class OperatorSolution:
    profile: ActionProfile
    value: Number
    on_boundary: bool


@dataclass(frozen=True)
class ConvexityReport:
    status: str  # "holds" | "fails" | "unknown"
    sampled: bool
    witness: Optional[ActionProfile] = None
    min_eigenvalue: Optional[float] = None


def _within(values: Sequence[Number], bounds: Bounds) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(values, bounds))


def _exact_floats(bounds: Bounds) -> list[tuple[Number, Number]]:
    """``bounds`` with every end that a float holds exactly replaced by that
    float: comparisons with it give the same answers without Fraction
    arithmetic."""
    return [tuple(float(b) if Fraction(float(b)) == b else b for b in ends)
            for ends in bounds]


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
    seeds += random_points(bounds, MULTISTART_COUNT)
    # a seed is kept when it is more than 1e-12 (max-norm) from every seed
    # kept before it; only the midpoint can be infinite, so the one nan gap
    # (inf - inf) is its gap to itself, which is never read
    points = np.array(seeds)
    with np.errstate(invalid="ignore"):
        gaps = np.abs(points[:, None] - points).max(axis=2)
    near = (gaps <= 1e-12).tolist()
    kept: list[int] = []
    for k, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(k)
    return [seeds[k] for k in kept]


def random_points(bounds: Bounds, count: int) -> list[tuple[float, ...]]:
    """``count`` points drawn uniformly from the box with RNG_SEED, as
    Python floats (numpy scalars would overflow to inf, with a warning):
    one draw of ``count`` rows, which are the draws of one point at a
    time."""
    rng = np.random.default_rng(RNG_SEED)
    lows, highs = _float_box(bounds)
    draws = rng.uniform(lows, highs, size=(count, len(lows)))
    return list(map(tuple, draws.tolist()))


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
    if smooth:
        grad = [diff(objective, i) for i in range(n)]
        candidates = _newton_min(objective, grad, hessian(objective, n),
                                 starts, bounds, cfg)
    else:
        # coordinate descent: best response with the objective as every cost
        candidates = _best_response_iteration(
            LineCache([objective] * n, bounds), starts, cfg)

    values = compiled.rows([objective], np.array(candidates))[:, 0].tolist()
    best_val = min(values)
    best, value = min(
        (c, v) for c, v in zip(candidates, values)
        if v <= best_val + 1e-12 * max(1.0, abs(best_val)))
    # on the box edge, a smooth optimum is a boundary one unless stationary
    steep = not smooth or max(
        map(abs, compiled.rows(grad, np.array([best]))[0].tolist())) > cfg.tol
    on_edge = any(
        abs(v - float(lo)) < 1e-12 or abs(v - float(hi)) < 1e-12
        for v, (lo, hi) in zip(best, bounds))
    return OperatorSolution(
        profile=ActionProfile(best),
        value=value,
        on_boundary=on_edge and steep,
    )


def _float_box(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([float(lo) for lo, _ in bounds]),
            np.array([float(hi) for _, hi in bounds]))


def _newton_min(objective: Expression, grad: Sequence[Expression],
                hess: Sequence[Sequence[Expression]], starts,
                bounds: Bounds, cfg: SolverConfig
                ) -> list[tuple[float, ...]]:
    """Damped Newton descent from every start, in lockstep: each start
    takes the steps it takes alone, steepest descent where the Newton step
    is singular or not finite, until its gradient is within ``cfg.tol`` or
    no step down to 1e-8 of it lowers the objective."""
    lo, hi = _float_box(bounds)
    n = len(bounds)
    x = np.array(starts, dtype=float).reshape(len(starts), n)
    fx = compiled.rows([objective], x)[:, 0]
    entries = [h for row in hess for h in row]
    live = np.arange(len(x))
    for _ in range(NEWTON_MIN_ITERS):
        g = compiled.rows(grad, x[live])
        done = np.max(np.abs(g), axis=1) <= cfg.tol
        live, g = live[~done], g[~done]
        if not live.size:
            break
        step, finite = _finite_steps(_newton_steps(
            compiled.rows(entries, x[live]).reshape(len(live), n, n), g), n)
        step = np.where(finite[:, None], step, -g)
        bar = fx[live] - 1e-15
        moved, xn, fn = _damped([objective], x[live], step, POLISH_STEPS,
                                lo, hi, lambda v, lam, k: v[..., 0] < bar[k])
        x[live[moved]], fx[live[moved]] = xn[moved], fn[moved, 0]
        live = live[moved]
    return [tuple(row) for row in x.tolist()]


def _damped(exprs: Sequence[Expression], x: np.ndarray, step: np.ndarray,
            fractions: Sequence[float], lo: np.ndarray, hi: np.ndarray,
            accept) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each start's first point ``x + lam * step`` (clipped to the box),
    over ``fractions``, whose values of ``exprs`` ``accept(values, lam, k)``
    takes for start ``k``: whether each start moved, its point and values.

    The first fraction is tried on every start in one evaluation, the rest
    on the starts it does not advance in a second.  A value that is not
    finite is evaluated again by ``evaluate`` (which may raise) only
    where trying one fraction at a time would evaluate it: in the second
    evaluation, at or before the start's accepted fraction, fraction by
    fraction, start by start."""
    points = np.clip(x + fractions[0] * step, lo, hi)
    values = compiled.rows(exprs, points)
    moved = accept(values, fractions[0], np.arange(len(x)))
    back = np.flatnonzero(~moved)
    if not back.size:
        return moved, points, values
    lams = np.array(fractions[1:])[:, None]
    trials = np.clip(x[back] + lams[..., None] * step[back], lo, hi)
    levels, starts, n = trials.shape
    tried = compiled.vector_rows(exprs, trials.reshape(-1, n)).reshape(
        levels, starts, len(exprs))
    finite = np.isfinite(tried).all(axis=2)
    ok = accept(tried, lams, back) & finite
    reach = np.where(ok.any(axis=0), ok.argmax(axis=0), levels - 1)
    for level, j in zip(*np.nonzero(~finite)):
        if level <= reach[j]:
            tried[level, j] = compiled.rows(exprs, trials[level, [j]])[0]
            if accept(tried[level, j], lams[level, 0], back[j]):
                ok[level, j], reach[j] = True, level
    cols = np.flatnonzero(ok[reach, np.arange(starts)])
    rows, at = back[cols], reach[cols]
    moved[rows] = True
    points[rows], values[rows] = trials[at, cols], tried[at, cols]
    return moved, points, values


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

    Agent ``i``'s line minimum reads only the actions its cost reads: every
    variable of the cost's tree but the agent's own.  A variable that
    cancels is read too, since the candidate scorer binds every variable of
    the tree, and ``(a + u2) - u2`` is not ``a`` in floats.  So a line is
    keyed by the agent and the actions its cost reads, with their types
    and, for zeros, their signs: ``Fraction(1, 2)`` and ``0.5`` take the
    exact and the float path, and ``0.0`` and ``-0.0`` can give minima of
    different sign.
    """

    def __init__(self, costs: Sequence[Expression], bounds: Bounds) -> None:
        self.costs, self.bounds = costs, bounds
        self.reads = [sorted(structural_variables(c) - {i})
                      for i, c in enumerate(costs)]
        self.minima: dict[tuple, LineMin] = {}

    def minimum(self, i: int, values: Sequence[Number]) -> LineMin:
        return self.minima_at(i, [values])[0]

    def minima_at(self, i: int, profiles: Sequence[Sequence[Number]]
                  ) -> list[LineMin]:
        """Agent ``i``'s line minima at ``profiles``; the lines not seen
        yet are computed together, each once."""
        reads = self.reads[i]
        keys = [(i,) + tuple((type(v), v, not v and math.copysign(1.0, v))
                             for v in [values[j] for j in reads])
                for values in profiles]
        todo = {}
        for key, values in zip(keys, profiles):
            if key not in self.minima:
                todo.setdefault(key, values)
        if todo:
            lo, hi = self.bounds[i]
            found = line_minima(self.costs[i], i, list(todo.values()), lo, hi)
            self.minima.update(zip(todo, found))
        return [self.minima[key] for key in keys]


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
    worst = 0.0
    for i in range(len(bounds)):
        here = evaluate(costs[i], values)
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
    polys = []
    for cost in costs:
        p = as_polynomial(cost)
        if p is None or p.degree() > 2:
            return None
        polys.append(p)
    # the rows are integers, every coefficient times one positive scale:
    # that keeps the solution and the sign of every leading minor of sym
    scale = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    rows, rhs = [], []
    for i, p in enumerate(polys):
        # dC_i/du_i = row . u + b: c u_i^2 puts 2c at i, c u_i u_j puts c
        # at j, and b u_i gives b
        row, b = [0] * n, 0
        for mono, c in p.terms.items():
            c = c.numerator * (scale // c.denominator)
            if mono == ((i, 2),):
                row[i] = 2 * c
            elif mono == ((i, 1),):
                b = c
            elif len(mono) == 2 and (i, 1) in mono:
                other = mono[1] if mono[0] == (i, 1) else mono[0]
                row[other[0]] = c
        rows.append(row)
        rhs.append(-b)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    return sol, is_positive_definite(sym)


def _newton_system(costs: Sequence[Expression]
                   ) -> tuple[list[Expression], list[Expression]]:
    """The stacked first-order conditions F_i = dC_i/du_i and their
    Jacobian, row by row."""
    n = len(costs)
    F = [diff(costs[i], i) for i in range(n)]
    return F, [diff(F[i], j) for i in range(n) for j in range(n)]


def _newton_steps(J: np.ndarray, fx: np.ndarray
                  ) -> np.ndarray | list[Optional[np.ndarray]]:
    """``np.linalg.solve(J[k], -fx[k])`` for every k: their stack from one
    stacked call, or, when the stack holds a singular matrix, the list of
    one call per matrix with ``None`` where the matrix is singular."""
    try:
        return np.linalg.solve(J, -fx[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps: list[Optional[np.ndarray]] = []
        for Jk, fk in zip(J, fx):
            try:
                steps.append(np.linalg.solve(Jk, -fk))
            except np.linalg.LinAlgError:
                steps.append(None)
        return steps


def _finite_steps(steps: np.ndarray | list[Optional[np.ndarray]], n: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The ``_newton_steps`` as one (k, n) array, a singular matrix's row
    all NaN, and whether each row is finite."""
    if isinstance(steps, list):
        steps = np.array([np.full(n, np.nan) if s is None else s
                          for s in steps])
    return steps, np.isfinite(steps).all(axis=1)


def _newton_stationarity(F: Sequence[Expression], Jac: Sequence[Expression],
                         starts, bounds: Bounds, cfg: SolverConfig
                         ) -> list[Optional[tuple[float, ...]]]:
    """Damped Newton on the stacked first-order system from every start,
    in lockstep: each start takes the steps it takes alone, and every
    evaluation of F and of the Jacobian covers all the starts still running.
    A start that stalls, meets a singular Jacobian or runs out of
    iterations gives ``None``."""
    lo, hi = _float_box(bounds)
    n = len(bounds)
    found: list[Optional[tuple[float, ...]]] = [None] * len(starts)
    live = np.arange(len(starts))
    x = np.array(starts, dtype=float).reshape(len(starts), n)
    fx = compiled.rows(F, x)
    for _ in range(STATIONARITY_MAX_ITERS):
        norm = np.max(np.abs(fx), axis=1)
        done = norm <= cfg.tol
        for k, row in zip(live[done], x[done]):
            found[k] = tuple(row.tolist())
        live, x, fx, norm = live[~done], x[~done], fx[~done], norm[~done]
        if not live.size:
            break
        steps, going = _finite_steps(
            _newton_steps(compiled.rows(Jac, x).reshape(len(x), n, n), fx), n)
        live, x, fx, norm = live[going], x[going], fx[going], norm[going]
        step = steps[going]
        moved, x, fx = _damped(
            F, x, step, STATIONARITY_STEPS, lo, hi,
            lambda v, lam, k: np.max(np.abs(v), axis=-1)
            < norm[k] * (1.0 - 0.25 * lam) + 1e-15)
        live, x, fx = live[moved], x[moved], fx[moved]
    return found


def _best_response_iteration(lines: LineCache, starts, cfg: SolverConfig
                             ) -> list[tuple[float, ...]]:
    """Gauss-Seidel best-response sweeps from every seed, in lockstep.

    Each seed follows the path it follows alone and stops under its own
    rules; at each agent's step the live seeds' lines not cached yet are
    minimized in one batch.  Always returns each seed's final iterate as a
    candidate: a revisited point may be a genuine oscillation (dropped
    later by verification) or just the line-search noise floor around a
    fixed point (which verifies fine).
    """
    points = [[float(v) for v in start] for start in starts]
    seen: list[list[tuple[float, ...]]] = [[] for _ in points]
    live = list(range(len(points)))
    for _ in range(BR_MAX_ITERS):
        if not live:
            break
        moved = [0.0] * len(points)
        for i in range(len(points[0])):
            found = lines.minima_at(i, [points[k] for k in live])
            for k, lm in zip(live, found):
                new = float(lm.arg)
                moved[k] = max(moved[k], abs(new - points[k][i]))
                points[k][i] = new
        running = []
        for k in live:
            snapshot = tuple(points[k])
            if moved[k] <= cfg.tol or snapshot in seen[k]:
                continue
            seen[k] = (seen[k] + [snapshot])[-8:]
            running.append(k)
        live = running
    return [tuple(point) for point in points]


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
    if exact_path is not None:
        sol, unique = exact_path
        if _within(sol, bounds):
            candidates.append((tuple(sol), "newton", True))
            if unique:
                # diagonally strictly convex: no other equilibrium exists,
                # so skip the multistart routes and just verify
                residual = verify_nash(costs, sol, bounds, lines)
                if residual <= cfg.tol + POLY_SLACK:
                    return [EquilibriumResult(
                        profile=ActionProfile(sol), residual=residual,
                        method="newton")]

    seeds = _seeds(bounds)
    br_points = _best_response_iteration(lines, seeds, cfg)
    candidates += [(found, "best-response", False) for found in br_points]

    # Newton on the stacked first-order system; guarded divisions are
    # smooth wherever the guard is off, so they go through here too (the
    # best-response endpoints make good seeds near degenerate flats).  A
    # game with an exact solve skips it: its F is affine, and the one zero
    # of F has been tried
    if all(is_smooth(c) for c in costs) and exact_path is None:
        F, Jac = _newton_system(costs)
        box = _exact_floats(bounds)
        for found in _newton_stationarity(F, Jac, seeds + br_points, bounds,
                                          cfg):
            if found is not None and _within(found, box):
                candidates.append((found, "newton", False))

    # verify in report order (exact representatives first, then
    # lexicographic): a candidate within MERGE_TOL of one already reported
    # would be merged into it, so it is dropped without verification
    candidates.sort(key=lambda c: (not c[2], tuple(float(v) for v in c[0])))
    merged: list[EquilibriumResult] = []
    for values, method, _ in candidates:
        profile = ActionProfile(values)
        if not all(profile.max_distance(m.profile) > MERGE_TOL
                   for m in merged):
            continue
        residual = verify_nash(costs, values, bounds, lines)
        if residual <= cfg.tol + POLY_SLACK:
            merged.append(EquilibriumResult(
                profile=profile,
                residual=residual,
                method=method,
            ))
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
    an odd count) and SAMPLE_MAX_CELLS - 1 points drawn with RNG_SEED.
    Coordinates are Python floats."""
    axes = [np.linspace(float(lo), float(hi), per_axis).tolist()
            for lo, hi in bounds]
    n = len(axes)
    if per_axis ** n <= SAMPLE_MAX_CELLS:
        return itertools.product(*axes)
    rng = np.random.default_rng(RNG_SEED)
    picks = rng.integers(per_axis, size=(SAMPLE_MAX_CELLS - 1, n))
    rows = itertools.chain([(per_axis // 2,) * n], picks)
    return (tuple(ax[k] for ax, k in zip(axes, row)) for row in rows)


def _sampled_pd(entries: list[list[Expression]], bounds: Bounds
                ) -> ConvexityReport:
    """The matrix at sample points, in sample order, up to the first that
    is not finite (verdict unknown) or not positive definite (fails): the
    points before the first non-finite one share one stacked ``eigvalsh``
    call, and only that one is evaluated again, by ``evaluate``."""
    n = len(entries)
    points = list(sample_grid(bounds, 9 if n <= 3 else 5))
    flat = [e for row in entries for e in row]
    x = np.array(points)
    matrices = compiled.vector_rows(flat, x).reshape(len(x), n, n)
    finite = np.isfinite(matrices).all(axis=(1, 2))
    first = len(x) if finite.all() else int(finite.argmin())
    eigs = np.linalg.eigvalsh(matrices[:first])[:, 0]
    bad = np.flatnonzero(eigs <= 0)
    if bad.size:
        k = int(bad[0])
        return ConvexityReport(status="fails", sampled=True,
                               witness=ActionProfile(points[k]),
                               min_eigenvalue=float(eigs[k]))
    if first < len(x):
        compiled.rows(flat, x[first:first + 1])  # raises where evaluate does
        return ConvexityReport(status="unknown", sampled=True,
                               witness=ActionProfile(points[first]))
    return ConvexityReport(status="holds", sampled=True,
                           min_eigenvalue=float(eigs.min()))


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
