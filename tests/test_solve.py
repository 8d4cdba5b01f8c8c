"""Operator optimization, best responses, equilibria, curvature checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_audit import incentive
from incentive_audit.audit import full_audit
from incentive_audit.expr import (absval, add, compiled, const, diff,
                                  evaluate, hessian, is_smooth, mul, neg,
                                  parse, power, safediv, var)
from incentive_audit.game import ActionProfile, Game
from incentive_audit.gamefile import load_game_file
from incentive_audit.solve import LineMin, solvers
from incentive_audit.solve.linesearch import line_minimum_at
from incentive_audit.solve import (
    ConvexityReport,
    SolverConfig,
    best_response,
    diagonal_strict_convexity_check,
    grid_nash_oracle,
    hessian_pd_check,
    minimize_operator,
    nash_equilibrium,
    verify_nash,
)

from conftest import (BOX2, GAMES_DIR, NAMES2, OUTSIDE_BOX_COSTS,
                      random_game)


class TestMinimizeOperator:
    def test_example1_optimum(self, example1, cfg):
        sol = minimize_operator(example1, cfg)
        assert sol.profile.values == (Fraction(3, 4), Fraction(2))
        assert sol.value == 0
        assert sol.profile.exact and not sol.on_boundary

    def test_example2_optimum(self, example2, cfg):
        sol = minimize_operator(example2, cfg)
        assert sol.profile.values == (Fraction(-1), Fraction(-1))

    def test_example3_optimum(self, example3_case1, cfg):
        sol = minimize_operator(example3_case1, cfg)
        assert sol.profile.values == (Fraction(1), Fraction(0))

    def test_boundary_minimizer_flagged(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1 + u2", NAMES2), bounds=BOX2)
        sol = minimize_operator(g, cfg)
        assert sol.on_boundary
        assert sol.profile.as_floats() == (-2.0, -2.0)

    def test_nonsmooth_objective(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=absval(parse("u1 + u2 - 2", NAMES2)),
                 bounds=BOX2)
        sol = minimize_operator(g, cfg)
        assert float(sol.value) == pytest.approx(0.0, abs=1e-9)

    def test_never_beats_grid(self, cfg):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_game(rng, 2, separable=False)
            sol = minimize_operator(g, cfg)
            from incentive_audit.solve import grid_minimum

            _, grid_val = grid_minimum(g.operator_cost, g.bounds,
                                       cfg.replace(grid_points_per_axis=41))
            assert float(sol.value) <= grid_val + 1e-9


class TestSeedTable:
    # arithmetic only: no seed table is built here

    @pytest.mark.parametrize("n, grid, points", [
        (1, 10_001, 10_001), (2, 201, 201), (3, 101, 61), (3, 201, 61),
        (4, 31, 21), (4, 201, 21)])
    def test_budget_leaves_current_sizes_alone(self, n, grid, points):
        cfg = SolverConfig(grid_points_per_axis=grid)
        assert solvers._axis_counts(n, cfg) == points

    @pytest.mark.parametrize("n, points", [(2, 1024), (5, 16), (7, 7),
                                           (12, 3)])
    def test_budget_shrinks_the_axis(self, n, points):
        cfg = SolverConfig(grid_points_per_axis=10_001)
        assert solvers._axis_counts(n, cfg) == points
        assert points ** n <= solvers.SEED_MAX_CELLS < (points + 1) ** n

    def test_seven_agent_operator_asks_for_a_bounded_table(self, cfg,
                                                           monkeypatch):
        asked = []

        def record(e, axes):
            asked.append([len(ax) for ax in axes])
            raise LookupError("stop before tabulating")

        monkeypatch.setattr(solvers, "eval_on_grid", record)
        n = 7
        g = Game(n=n, agent_costs=tuple(var(i) for i in range(n)),
                 operator_cost=add(*(power(var(i), 4) for i in range(n))),
                 bounds=((Fraction(-1), Fraction(1)),) * n)
        with pytest.raises(LookupError):
            minimize_operator(g, cfg)
        assert asked == [[7] * n]


def _seeds_reference(bounds):
    """The multistart seeds, de-duplicated by the pairwise loop: a seed is
    kept when it is more than 1e-12 (max-norm) from every seed kept."""
    lows = [float(lo) for lo, _ in bounds]
    highs = [float(hi) for _, hi in bounds]
    seeds = [tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))]
    if len(bounds) <= 3:
        seeds.extend(itertools.product(*zip(lows, highs)))
    seeds += solvers.random_points(bounds, solvers.MULTISTART_COUNT)
    unique = []
    for s in seeds:
        if all(max(abs(a - b) for a, b in zip(s, t)) > 1e-12 for t in unique):
            unique.append(s)
    return unique


def _box(*ends):
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in ends)


NARROW = (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 13))
SEED_BOXES = {
    "one agent": _box((-2, 2)),
    "two agents": _box((-2, 2), (0, Fraction(1, 3))),
    # corners 1e-13 apart merge
    "narrow axis": _box((-1, 1), NARROW),
    "narrow box": _box(NARROW, NARROW),
    "flat axes": _box((0, 0), (2, 2), (-1, 1)),
    "four agents": _box((-2, 2), (-2, 2), (-2, 2), (Fraction(-1, 2), 0)),
    "six agents": _box(*[(-1, 3)] * 6),
    # the midpoint is inf
    "huge ends": _box((1e308, 1.7e308), (-1, 1)),
}


@pytest.mark.parametrize("box", SEED_BOXES.values(), ids=SEED_BOXES)
def test_seeds_are_the_pairwise_loop_seeds(box):
    got = solvers._seeds(box)
    assert repr(got) == repr(_seeds_reference(box))
    assert {type(v) for seed in got for v in seed} == {float}


def test_narrow_boxes_merge_their_seeds():
    # the midpoint, two of the four corners and the random points
    assert len(solvers._seeds(SEED_BOXES["narrow axis"])) \
        == 3 + solvers.MULTISTART_COUNT
    # everything merges into the midpoint
    assert len(solvers._seeds(SEED_BOXES["narrow box"])) == 1


class TestBestResponse:
    def test_example1_agent1(self, example1, cfg):
        r = best_response(example1.agent_costs, 0, [0, Fraction(1)],
                          example1.bounds)
        assert r == Fraction(1)

    def test_degenerate_flat_returns_lowest(self, example1, cfg):
        # agent 2's cost is flat once u1 = 1; ties go to the lower bound
        r = best_response(example1.agent_costs, 1, [Fraction(1), 0],
                          example1.bounds)
        assert r == Fraction(-2)

    def test_pure_quadratic(self, cfg):
        costs = [power(add(var(0), const(Fraction(-1, 3))), 2), var(1)]
        r = best_response(costs, 0, [0, 0], BOX2)
        assert r == Fraction(1, 3)


class TestNashEquilibrium:
    def test_example1_baseline(self, example1, cfg):
        eqs = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        assert len(eqs) == 1
        assert eqs[0].profile.values == (Fraction(1), Fraction(1))
        assert eqs[0].profile.exact

    def test_example1_with_incentive(self, example1, cfg):
        costs = [parse("u1^2 - 2*u1*u2 + u1^2", NAMES2),
                 parse("u1*u2 - u2 - 1/2", NAMES2)]
        eqs = nash_equilibrium(costs, example1.bounds, cfg)
        assert [e.profile.values for e in eqs] == [(Fraction(1), Fraction(2))]

    def test_single_agent_degenerates_to_argmin(self, cfg):
        costs = [power(add(var(0), const(-1)), 2)]
        eqs = nash_equilibrium(costs, ((Fraction(-2), Fraction(2)),), cfg)
        assert eqs[0].profile.values == (Fraction(1),)

    def test_no_pure_equilibrium_reports_empty(self, cfg):
        # matching-style conflict: agent 1 chases agent 2, agent 2 flees
        costs = [power(add(var(0), mul(const(-1), var(1))), 2),
                 mul(const(-1), power(add(var(0), mul(const(-1), var(1))), 2))]
        eqs = nash_equilibrium(costs, BOX2, cfg)
        assert eqs == []

    def test_returned_equilibria_verify(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_game(rng, int(rng.integers(2, 4)), separable=True)
            for eq in nash_equilibrium(g.agent_costs, g.bounds, cfg):
                assert verify_nash(g.agent_costs, eq.profile,
                                   g.bounds) <= cfg.tol + 1e-9

    def test_unique_on_diagonally_convex_quadratics(self, cfg):
        # strict diagonal convexity forces uniqueness; the single
        # equilibrium must agree with the exhaustive grid
        rng = np.random.default_rng(23)
        small = cfg.replace(grid_points_per_axis=101)
        for _ in range(5):
            g = random_game(rng, 2, separable=True)
            dsc = diagonal_strict_convexity_check(g.agent_costs, g)
            if dsc.status != "holds":
                continue
            eqs = nash_equilibrium(g.agent_costs, g.bounds, small)
            assert len(eqs) == 1
            grid = grid_nash_oracle(g.agent_costs, g.bounds, small)
            step = 20.0 / 100
            assert any(eqs[0].profile.max_distance(p) <= step + 1e-9
                       for p in grid)


class TestVerifyNash:
    def test_zero_at_equilibrium(self, example1, cfg):
        r = verify_nash(example1.agent_costs,
                        ActionProfile([Fraction(1), Fraction(1)]),
                        example1.bounds)
        assert r <= 1e-9

    def test_positive_off_equilibrium(self, example1, cfg):
        r = verify_nash(example1.agent_costs,
                        ActionProfile([Fraction(0), Fraction(0)]),
                        example1.bounds)
        # agent 2 gains by running to the top of the box
        assert r >= 2.0 - 1e-9

    def test_constant_costs_zero_residual(self, cfg):
        r = verify_nash([const(3), const(5)],
                        ActionProfile([Fraction(0), Fraction(0)]), BOX2)
        assert r == 0.0


def _sign(x) -> float:
    return math.copysign(1.0, x)


class TestLineCache:
    def test_exact_and_float_actions_are_separate_lines(self, cfg):
        costs = (parse("u1^2 + u1*u2", NAMES2), parse("u2^2", NAMES2))
        lines = solvers.LineCache(costs, BOX2)
        exact = lines.minimum(0, [0.0, Fraction(1, 2)])
        floated = lines.minimum(0, [0.0, 0.5])
        assert exact == LineMin(Fraction(-1, 4), Fraction(-1, 16))
        assert type(exact.arg) is Fraction and type(exact.value) is Fraction
        assert floated == LineMin(-0.25, -0.0625)
        assert type(floated.arg) is float and type(floated.value) is float
        assert len(lines.minima) == 2

    def test_signed_zeros_are_separate_lines(self, cfg):
        # |u1| * u2 is a signed zero all along u1 when u2 is one
        costs = (parse("abs(u1)*u2", NAMES2), parse("u2^2", NAMES2))
        lines = solvers.LineCache(costs, BOX2)
        plus = lines.minimum(0, [0.3, 0.0])
        minus = lines.minimum(0, [0.3, -0.0])
        assert (_sign(plus.value), _sign(minus.value)) == (1.0, -1.0)
        assert len(lines.minima) == 2

    def test_own_action_is_not_in_the_key(self):
        costs = (parse("abs(u1 - u2) + u1^2", NAMES2), parse("u2^2", NAMES2))
        lines = solvers.LineCache(costs, BOX2)
        first = lines.minimum(0, [0.3, 0.7])
        assert lines.minimum(0, [-1.5, 0.7]) is first
        assert len(lines.minima) == 1

    @pytest.mark.parametrize("text", ["abs(u1 - 1) + u1^2",
                                      "u1^4 - u1 + u1^2/2"])
    def test_unread_action_is_not_in_the_key(self, text):
        # agent 1's cost reads only u1 (piecewise, then polynomial)
        costs = (parse(text, NAMES2), parse("u2^2 + u1*u2", NAMES2))
        lines = solvers.LineCache(costs, BOX2)
        first = lines.minimum(0, [0.3, 0.7])
        assert lines.minimum(0, [0.3, -1.2]) is first
        assert lines.minimum(0, [-1.5, Fraction(1, 2)]) is first
        assert len(lines.minima) == 1
        # agent 2's cost reads u1
        lines.minimum(1, [0.3, 0.7])
        lines.minimum(1, [-1.5, 0.7])
        assert len(lines.minima) == 3

    def test_cancelling_action_stays_in_the_key(self):
        # the candidate scorer binds u2 where it cancels too, and in floats
        # (u1 + u2) - u2 is not u1: the expansion's variables would leave
        # u2 out of the second key
        assert solvers.LineCache(
            (parse("abs(u1) + u2 - u2", NAMES2),) * 2, BOX2).reads[0] == [1]
        e = parse("abs(u1 - 1) + 7*(u1 + u2 - u2)^2/10", NAMES2)
        lines = solvers.LineCache((e, parse("u2^2", NAMES2)), BOX2)
        got = [lines.minimum(0, [0.3, u2]) for u2 in (0.2, 0.3)]
        assert got == [line_minimum_at(e, 0, [0.3, u2], *BOX2[0])
                       for u2 in (0.2, 0.3)]
        assert got[0].value != got[1].value
        assert len(lines.minima) == 2

    @pytest.mark.parametrize("path", sorted(GAMES_DIR.glob("*.game")),
                             ids=lambda p: p.stem)
    def test_standalone_verification_repeats_the_solve(self, path,
                                                       monkeypatch):
        # every game an audit solves: baseline, adjusted and opt-out games
        solved = []

        def recorded(costs, bounds, cfg):
            found = nash_equilibrium(costs, bounds, cfg)
            solved.append((costs, bounds, cfg, found))
            return found

        monkeypatch.setattr(incentive, "nash_equilibrium", recorded)
        spec = load_game_file(str(path))
        full_audit(spec.scenario(), spec.solver,
                   declared_base=spec.declared_base)
        assert any(found for *_, found in solved)
        for costs, bounds, cfg, found in solved:
            for r in found:
                residual = verify_nash(costs, r.profile, bounds)
                assert type(residual) is float
                assert residual == r.residual \
                    and _sign(residual) == _sign(r.residual)


#: actions of the cache property: few, so that profiles repeat what a cost
#: reads; a float and a Fraction of one number, and both zeros
CACHE_ACTIONS = [0.0, -0.0, 0.5, Fraction(1, 2), Fraction(0), -1.25,
                 Fraction(-5, 4), 1.75]


@st.composite
def partial_reads(draw):
    """Costs of 2-3 agents, each reading a drawn subset of the others'
    actions through polynomial (some cancelling), ``abs`` and guarded-ratio
    terms, and profiles of those actions."""
    n = draw(st.integers(2, 3))
    coeff = st.sampled_from([Fraction(1, 4), Fraction(-1, 2), Fraction(3, 8),
                             Fraction(1)])
    costs = []
    for i in range(n):
        u = var(i)
        terms = [mul(const(1 + draw(coeff)), power(u, 2)),
                 mul(const(draw(coeff)), u)]
        for j in range(n):
            if j == i or not draw(st.booleans()):
                continue
            kind = draw(st.sampled_from(["poly", "cancel", "abs", "ratio"]))
            if kind == "poly":
                terms.append(mul(const(draw(coeff)), u, var(j)))
            elif kind == "cancel":
                # reads u_j, though its expansion does not
                terms.append(power(add(u, var(j), neg(var(j))), 2))
            elif kind == "abs":
                terms.append(absval(add(u, mul(const(draw(coeff)), var(j)),
                                        const(draw(coeff)))))
            else:
                terms.append(safediv(mul(u, var(j)),
                                     add(u, var(j), const(3)),
                                     Fraction(1, 8)))
        if draw(st.booleans()):
            terms.append(mul(const(draw(coeff)), power(u, 4)))
        costs.append(add(*terms))
    profiles = draw(st.lists(
        st.lists(st.sampled_from(CACHE_ACTIONS), min_size=n, max_size=n),
        min_size=2, max_size=6))
    return costs, profiles


def _bits(x):
    return type(x), x, _sign(x)


@given(partial_reads())
@settings(max_examples=60, deadline=None)
def test_line_cache_gives_each_profile_its_own_minimum(game):
    costs, profiles = game
    bounds = ((Fraction(-2), Fraction(2)),) * len(costs)
    one_at_a_time = solvers.LineCache(costs, bounds)
    batched = solvers.LineCache(costs, bounds)
    for i, cost in enumerate(costs):
        together = batched.minima_at(i, profiles)
        for values, got in zip(profiles, together):
            want = line_minimum_at(cost, i, values, *bounds[i])
            for found in (got, one_at_a_time.minimum(i, values)):
                assert _bits(found.arg) == _bits(want.arg)
                assert _bits(found.value) == _bits(want.value)


# ---------------------------------------------------------------------------
# the lockstep multistart against each start run alone


def _best_response_alone(lines, start, cfg):
    """Gauss-Seidel sweeps from one seed, one line at a time."""
    point = [float(v) for v in start]
    seen = []
    for _ in range(solvers.BR_MAX_ITERS):
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


def _at_a_point(e):
    """``e`` as a function of one point: the float ``evaluate`` gives."""
    return lambda point: float(evaluate(e, point))


def _newton_alone(F, Jac, start, bounds, cfg):
    """Damped Newton from one start, one point at a time."""
    F = [_at_a_point(f) for f in F]
    n = len(F)
    Jac = [[_at_a_point(Jac[i * n + j]) for j in range(n)]
           for i in range(n)]
    lo, hi = solvers._float_box(bounds)
    x = np.array(start, dtype=float)
    fx = np.array([f(x.tolist()) for f in F])
    for _ in range(solvers.STATIONARITY_MAX_ITERS):
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
            fn = np.array([f(xn.tolist()) for f in F])
            if np.max(np.abs(fn)) < norm * (1.0 - 0.25 * lam) + 1e-15:
                x, fx, advanced = xn, fn, True
                break
            lam /= 2
        if not advanced:
            return None
    return None


def _newton_min_alone(objective, start, bounds, cfg):
    """The operator's damped Newton descent from one start, one point at a
    time, with one linear solve per step."""
    n = len(bounds)
    value = _at_a_point(objective)
    grad = [_at_a_point(diff(objective, i)) for i in range(n)]
    hess = [[_at_a_point(h) for h in row] for row in hessian(objective, n)]
    lo, hi = solvers._float_box(bounds)
    x = np.array(start, dtype=float)
    fx = value(x.tolist())
    for _ in range(solvers.NEWTON_MIN_ITERS):
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
            fn = value(xn.tolist())
            if fn < fx - 1e-15:
                x, fx, improved = xn, fn, True
                break
            lam /= 2
        if not improved:
            break
    return tuple(float(v) for v in x)


def _verify_all_then_merge(costs, bounds, cfg):
    """The solve with every start run alone, every candidate verified, and
    the verified ones merged greedily in report order afterwards."""
    lines = solvers.LineCache(costs, bounds)
    candidates = []
    exact_path = solvers._stationarity_exact(costs)
    exact_sol = None
    if exact_path is not None:
        sol, unique = exact_path
        if solvers._within(sol, bounds):
            exact_sol = sol
            candidates.append((tuple(sol), "newton", True))
            if unique:
                residual = verify_nash(costs, sol, bounds, lines)
                if residual <= cfg.tol + solvers.POLY_SLACK:
                    return [solvers.EquilibriumResult(
                        ActionProfile(sol), residual, "newton")]
    seeds = solvers._seeds(bounds)
    br_points = [_best_response_alone(lines, s, cfg) for s in seeds]
    candidates += [(p, "best-response", False) for p in br_points]
    if all(is_smooth(c) for c in costs) and exact_sol is None:
        F, Jac = solvers._newton_system(costs)
        for start in seeds + br_points:
            found = _newton_alone(F, Jac, start, bounds, cfg)
            if found is not None and solvers._within(found, bounds):
                candidates.append((found, "newton", False))
    verified = []
    for values, method, _ in candidates:
        residual = verify_nash(costs, values, bounds, lines)
        if residual <= cfg.tol + solvers.POLY_SLACK:
            verified.append(solvers.EquilibriumResult(
                ActionProfile(values), residual, method))
    verified.sort(key=lambda r: (not r.profile.exact, r.profile.as_floats()))
    merged = []
    for r in verified:
        if all(r.profile.max_distance(m.profile) > solvers.MERGE_TOL
               for m in merged):
            merged.append(r)
    merged.sort(key=lambda r: r.profile.as_floats())
    return merged


def _quartic_costs(rng, n):
    """Own-quartic costs with two wells (a negative quadratic term), a
    small tilt and bilinear coupling strong enough to choose the well: none,
    one or several equilibria."""
    names = [f"u{k + 1}" for k in range(n)]
    costs = []
    for i, u in enumerate(names):
        text = (f"({_q(rng, 1, 2)})*{u}^4 + ({_q(rng, -6, -2)})*{u}^2"
                f" + ({_q(rng, -1, 1) / 4})*{u}")
        for j, v in enumerate(names):
            if j != i:
                text += f" + ({_q(rng, -1, 1)})*{u}*{v}"
        costs.append(parse(text, names))
    return costs


def _q(rng, lo, hi):
    return Fraction(int(rng.integers(lo * 4, hi * 4 + 1)), 4)


OVERFLOW = parse("(u1*u2)^200", NAMES2)
OVERFLOW_BOX = ((Fraction(-13), Fraction(13)),) * 2

THREE_EQUILIBRIA_COSTS = ("-u1*u2 + u1^2/4", "-u1*u2 + u2^2/4")


class TestLockstep:
    @pytest.mark.parametrize("seed", range(8))
    def test_solve_matches_verify_all_then_merge(self, seed, cfg):
        rng = np.random.default_rng([seed, 13])
        n = 2 + seed % 2
        costs = _quartic_costs(rng, n)
        bounds = ((Fraction(-2), Fraction(2)),) * n
        got = nash_equilibrium(costs, bounds, cfg)
        assert repr(got) == repr(_verify_all_then_merge(costs, bounds, cfg))

    @pytest.mark.parametrize("incentive", [None, ("u1/8", "u2/8")])
    def test_three_equilibria_match_verify_all_then_merge(self, incentive,
                                                          cfg):
        texts = THREE_EQUILIBRIA_COSTS if incentive is None else [
            f"{c} + {t}" for c, t in zip(THREE_EQUILIBRIA_COSTS, incentive)]
        costs = [parse(t, NAMES2) for t in texts]
        box = ((Fraction(-1), Fraction(1)),) * 2
        got = nash_equilibrium(costs, box, cfg)
        assert len(got) == 3
        assert repr(got) == repr(_verify_all_then_merge(costs, box, cfg))

    def test_sweeps_match_each_seed_alone(self, cfg):
        costs = _quartic_costs(np.random.default_rng(5), 3)
        bounds = ((Fraction(-2), Fraction(2)),) * 3
        seeds = solvers._seeds(bounds)
        together = solvers._best_response_iteration(
            solvers.LineCache(costs, bounds), seeds, cfg)
        alone = solvers.LineCache(costs, bounds)
        assert repr(together) == repr(
            [_best_response_alone(alone, s, cfg) for s in seeds])

    def test_newton_matches_each_start_alone(self, cfg):
        # the Jacobian [[2*u1, 1/4], [-1/2, 3*u2^2 + 2]] is singular at
        # (-1/32, 0): the start there fails alone and must fail in the
        # stack, which then solves that step one start at a time
        costs = [parse("u1^3/3 - u1 + u1*u2/4", NAMES2),
                 parse("u2^4/4 + u2^2 - u1*u2/2", NAMES2)]
        F, Jac = solvers._newton_system(costs)
        starts = [(0.5, 0.5), (-0.03125, 0.0), (-1.5, -0.25), (1.9, -1.9),
                  (-0.0, 0.3)] + solvers._seeds(BOX2)
        together = solvers._newton_stationarity(F, Jac, starts, BOX2, cfg)
        alone = [_newton_alone(F, Jac, s, BOX2, cfg) for s in starts]
        assert alone[1] is None and alone[0] is not None
        assert repr(together) == repr(alone)
        # a quadratic game whose stationary point lies outside the box:
        # every start stalls at a corner, trying all the fractions there
        F, Jac = solvers._newton_system(
            [parse(c, NAMES2) for c in OUTSIDE_BOX_COSTS])
        starts = solvers._seeds(BOX2)
        together = solvers._newton_stationarity(F, Jac, starts, BOX2, cfg)
        alone = [_newton_alone(F, Jac, s, BOX2, cfg) for s in starts]
        assert alone == [None] * len(starts)
        assert repr(together) == repr(alone)

    def test_newton_steps_match_each_matrix_alone(self):
        # without a singular matrix the steps come as one stacked array;
        # with one, as the list of per-matrix solves, None at that matrix
        rng = np.random.default_rng(7)
        J, fx = rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3))
        alone = [np.linalg.solve(Jk, -fk).tolist() for Jk, fk in zip(J, fx)]
        steps = solvers._newton_steps(J, fx)
        assert isinstance(steps, np.ndarray) and steps.shape == (5, 3)
        assert repr(steps.tolist()) == repr(alone)
        J[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
        alone[2] = None
        steps = solvers._newton_steps(J, fx)
        assert isinstance(steps, list)
        assert repr([None if s is None else s.tolist() for s in steps]) \
            == repr(alone)

    @pytest.mark.parametrize("seed", range(6))
    def test_operator_polish_matches_each_start_alone(self, seed, cfg):
        rng = np.random.default_rng([seed, 14])
        n = 2 + seed % 2
        objective = add(*_quartic_costs(rng, n))
        bounds = ((Fraction(-2), Fraction(2)),) * n
        starts = solvers._seeds(bounds) + [
            tuple(rng.uniform(-2.0, 2.0, n).tolist()) for _ in range(4)]
        self._check_polish(objective, starts, bounds, cfg)

    def test_operator_polish_singular_hessian(self, cfg):
        # the Hessian diag(12*u1^2, 2) is singular at u1 = 0: alone, that
        # start's solve fails and it steps along -g; in the stack it must
        # do the same
        objective = parse("u1^4 + (u2 - 1/2)^2", NAMES2)
        starts = [(0.0, 1.5), (1.0, -1.0), (0.0, -2.0), (-1.5, 0.25)]
        H = np.array([[float(evaluate(h, [0.0, 1.5])) for h in row]
                      for row in hessian(objective, 2)])
        assert np.linalg.matrix_rank(H) == 1
        self._check_polish(objective, starts, BOX2, cfg)

    @staticmethod
    def _check_polish(objective, starts, bounds, cfg):
        n = len(bounds)
        grad = [diff(objective, i) for i in range(n)]
        together = solvers._newton_min(objective, grad,
                                       hessian(objective, n), starts,
                                       bounds, cfg)
        alone = [_newton_min_alone(objective, s, bounds, cfg)
                 for s in starts]
        assert repr(together) == repr(alone)

    def test_overflow_is_raised_by_evaluate(self):
        # the vector form gives inf; evaluate raises at that start, as a
        # solve one start at a time does
        rows = compiled.rows([parse("u1^400", ["u1"])],
                             np.array([[1.0], [2.0]]))
        assert rows.tolist() == [[1.0], [2.0 ** 400]]
        with pytest.raises(OverflowError):
            compiled.rows([parse("u1^400", ["u1"])], np.array([[1.0], [10.0]]))

    def test_backtracking_tries_no_step_past_the_accepted_one(self):
        def polish(fx):
            return lambda v, lam, k: v[..., 0] < fx[k, 0] - 1e-15

        self._check_step_search(solvers.POLISH_STEPS, polish)
        starts = [(6.7, -4.5), (1.0, 1.0)]
        self._check_polish(OVERFLOW, starts, OVERFLOW_BOX, SolverConfig())

    def test_stationarity_search_tries_no_step_past_the_accepted_one(self):
        def stationarity(fx):
            norm = np.max(np.abs(fx), axis=1)
            return lambda v, lam, k: np.max(np.abs(v), axis=-1) \
                < norm[k] * (1.0 - 0.25 * lam) + 1e-15

        self._check_step_search(solvers.STATIONARITY_STEPS, stationarity)

    @staticmethod
    def _check_step_search(fractions, rule):
        # (u1*u2)^200 overflows (evaluate raises) where |u1*u2| is
        # above about 34.8.  From (6.7, -4.5) along (-9.2, -25.3) the full
        # step is not accepted, half of it is, and a quarter of it
        # overflows, which trying one fraction at a time never reaches.
        lo, hi = solvers._float_box(OVERFLOW_BOX)
        x = np.array([[6.7, -4.5]])
        fx = compiled.rows([OVERFLOW], x)
        accept = rule(fx)

        def trial(lam, step):
            return np.clip(x + lam * np.array([step]), lo, hi)

        def accepted(lam, step):
            values = compiled.rows([OVERFLOW], trial(lam, step))
            return bool(accept(values, lam, np.arange(1))[0])

        def search(step):
            return solvers._damped([OVERFLOW], x, np.array([step]),
                                   fractions, lo, hi, accept)

        step = [-9.2, -25.3]
        assert not accepted(1.0, step) and accepted(0.5, step)
        with pytest.raises(OverflowError):
            accepted(0.25, step)
        moved, points, values = search(step)
        assert moved.tolist() == [True]
        assert points.tolist() == trial(0.5, step).tolist()
        assert values.tolist() == compiled.rows([OVERFLOW], points).tolist()
        # an overflow before any fraction is accepted raises, as it does
        # when the fractions are tried one at a time: at the full step of
        # twice that step, and, along (-4.3, 25.2), at half the step, where
        # a quarter of it would be accepted
        with pytest.raises(OverflowError):
            search([-18.4, -50.6])
        other = [-4.3, 25.2]
        assert not accepted(1.0, other) and accepted(0.25, other)
        with pytest.raises(OverflowError):
            accepted(0.5, other)
        with pytest.raises(OverflowError):
            search(other)


class TestCurvatureChecks:
    def test_pd_hessian(self, example3_case1):
        rep = hessian_pd_check(example3_case1.operator_cost, example3_case1)
        assert rep.status == "holds" and not rep.sampled

    def test_indefinite_fails(self):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=mul(var(0), var(1)), bounds=BOX2)
        rep = hessian_pd_check(g.operator_cost, g)
        assert rep.status == "fails"

    def test_separable_convex_holds(self):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1^2 + u2^2", NAMES2), bounds=BOX2)
        assert hessian_pd_check(g.operator_cost, g).status == "holds"

    def test_nonsmooth_unknown(self):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=absval(var(0)), bounds=BOX2)
        assert hessian_pd_check(g.operator_cost, g).status == "unknown"

    def test_quartic_sampled(self):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1^4 + u2^4 + 1", NAMES2),
                 bounds=BOX2)
        rep = hessian_pd_check(g.operator_cost, g)
        # zero Hessian at the origin: not positive definite everywhere
        assert rep.sampled and rep.status == "fails"

    def test_dsc_for_aligned_agents(self, example3_case1):
        costs = [example3_case1.operator_cost] * 2
        rep = diagonal_strict_convexity_check(costs, example3_case1)
        assert rep.status == "holds"

    def test_dsc_concave_agent_fails(self):
        g = Game(n=2, agent_costs=(mul(const(-1), power(var(0), 2)),
                                   power(var(1), 2)),
                 operator_cost=var(0), bounds=BOX2)
        rep = diagonal_strict_convexity_check(g.agent_costs, g)
        assert rep.status == "fails"

    @pytest.mark.parametrize("check", ["hessian", "dsc"])
    def test_non_finite_sample_is_unknown(self, check):
        # every off-axis lattice point of [-1000, 1000]^2 overflows the
        # second derivatives of u1^100*u2^100; the corner comes first
        cost = parse("u1^2 + u2^2 + u1^100*u2^100", NAMES2)
        box = ((Fraction(-1000), Fraction(1000)),) * 2
        g = Game(n=2, agent_costs=(cost, cost), operator_cost=cost,
                 bounds=box)
        rep = hessian_pd_check(cost, g) if check == "hessian" \
            else diagonal_strict_convexity_check(g.agent_costs, g)
        assert rep == ConvexityReport(
            status="unknown", sampled=True,
            witness=ActionProfile((-1000.0, -1000.0)), min_eigenvalue=None)

    def test_indefinite_sample_before_a_non_finite_one_fails(self):
        # the Hessian diag(u1^398 - 4, 2) is indefinite at the first
        # sample point, u1 = -1; from u1 = 7.1875 on, u1^398 overflows a
        # float (evaluate raises there), but the check stops before it
        cost = parse("u1^400/159600 - 2*u1^2 + u2^2", NAMES2)
        box = ((Fraction(-1), Fraction(10)), (Fraction(-1), Fraction(1)))
        g = Game(n=2, agent_costs=(cost, cost), operator_cost=cost,
                 bounds=box)
        assert hessian_pd_check(cost, g) == ConvexityReport(
            status="fails", sampled=True,
            witness=ActionProfile((-1.0, -1.0)), min_eigenvalue=-3.0)

    def test_overflowing_first_sample_raises(self):
        # 399*400*u1^398 at the first sample point, u1 = -10, overflows
        # Python's float ** k, which raises
        cost = parse("u1^400 + u2^2", NAMES2)
        box = ((Fraction(-10), Fraction(10)),) * 2
        g = Game(n=2, agent_costs=(cost, cost), operator_cost=cost,
                 bounds=box)
        with pytest.raises(OverflowError):
            hessian_pd_check(cost, g)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_stacked_eigvalsh_matches_one_call_per_matrix(self, n):
        # the sampled check takes its eigenvalues from one stacked call
        rng = np.random.default_rng([n, 39])
        a = rng.standard_normal((3000, n, n))
        matrices = a + a.transpose(0, 2, 1)
        stacked = np.linalg.eigvalsh(matrices)
        alone = np.array([np.linalg.eigvalsh(m) for m in matrices])
        assert stacked.tobytes() == alone.tobytes()

    def test_dsc_decoupled_convex_holds(self):
        g = Game(n=2, agent_costs=(power(var(0), 2), power(var(1), 2)),
                 operator_cost=var(0), bounds=BOX2)
        rep = diagonal_strict_convexity_check(g.agent_costs, g)
        assert rep.status == "holds"


class TestDeterminism:
    def test_equilibria_stable_across_runs(self, example1, cfg):
        a = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        b = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        assert [e.profile.values for e in a] == [e.profile.values for e in b]
