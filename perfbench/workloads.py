"""Seeded inputs for the benchmark workloads.

A workload is a list of CLI requests over game files, built in *rounds*:
each round is one copy of the workload's fixed mix (agent counts, schemes,
operator degree, abs terms), and the seed draws only the coefficients and
the request order.  Every run of a workload therefore has the same mix, and
its end-to-end figures stay comparable across seeds.

The generated games are written as ordinary ``.game`` files with exact
rational coefficients, so the program sees nothing but its public input
format.  The coefficients are also kept in a manifest, which the output
checks evaluate with numpy, independently of the program.

Every generated family has a pure equilibrium: each agent cost is
continuous and strictly convex in the agent's own action on a compact box
(Debreu-Glicksberg-Fan).  For the anticipatory proportional rule, which
adds a guarded ratio to the costs, that guarantee covers the baseline game.
Operator objectives are strictly convex and nearly separable, so the
dense-grid minimum is within one grid step of the true one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GAMES_DIR = ROOT / "games"

WORKLOADS = ("bundled", "smooth", "nonsmooth", "oracle")

#: every generated game lives on this box
BOX = (Fraction(-2), Fraction(2))

#: grid points per axis of the ``oracle`` requests, by agent count; the
#: cost tables stay in the tens of MB (3 x 101^3 and 4 x 31^4 float64)
ORACLE_GRID = {3: 101, 4: 31}

#: requests per second at the commit that defined the benchmark; a run
#: issues rate * seconds requests, rounded up to whole rounds: a fixed set
#: per seed, so the traced counts and the tail percentile are the same on
#: every run of a seed
RATE = {"bundled": 140.0, "smooth": 3.75, "nonsmooth": 1.1, "oracle": 22.0}

#: smooth round, as (agents, scheme, mode, quartic operator): every scheme
#: on 2 agents with a quadratic and a quartic operator, and on 3 agents with
#: a quadratic one
_SCHEMES = (("custom", "anticipatory"), ("vcg", "anticipatory"),
            ("proportional", "non-anticipatory"))
SMOOTH_ROUND = [(2, kind, mode, quartic)
                for kind, mode in _SCHEMES for quartic in (False, True)]
SMOOTH_ROUND += [(3, kind, mode, False) for kind, mode in _SCHEMES]

#: nonsmooth round: example1 first, one seeded proportional game, and
#: this many seeded abs games
NONSMOOTH_ABS = 20

#: oracle round: games per agent count; most are 3-agent games, so the
#: median latency falls inside one cluster instead of between two
ORACLE_ROUND = {3: 3, 4: 1}

# A polynomial is {exponent tuple: Fraction}.  A cost is
# {"poly": polynomial, "abs": [(weight, polynomial inside abs), ...]}.


def _rat(rng: np.random.Generator, lo: float, hi: float,
         den: int = 8) -> Fraction:
    return Fraction(int(rng.integers(round(lo * den), round(hi * den) + 1)),
                    den)


def _mono(n: int, powers: dict[int, int] | None = None) -> tuple[int, ...]:
    exps = [0] * n
    for k, e in (powers or {}).items():
        exps[k] += e
    return tuple(exps)


def _add(poly: dict, exps: tuple[int, ...], coeff: Fraction) -> None:
    total = poly.get(exps, Fraction(0)) + coeff
    if total:
        poly[exps] = total
    else:
        poly.pop(exps, None)


def _shifted_power(poly: dict, n: int, k: int, shift: Fraction, p: int,
                   weight: Fraction) -> None:
    """Add weight * (u_k - shift)^p, expanded."""
    for r in range(p + 1):
        _add(poly, _mono(n, {k: r}),
             weight * comb(p, r) * (-shift) ** (p - r))


def _cost(poly: dict, abs_terms: list | None = None) -> dict:
    return {"poly": poly, "abs": abs_terms or []}


def _coupled_costs(rng: np.random.Generator, n: int, quartic: bool,
                   abs_terms: bool = False, coupling: int = 2,
                   complements: bool = False,
                   one_way: bool = False) -> list[dict]:
    """Own-action strictly convex costs with mild bilinear coupling.

    Every cross coefficient is nonzero and at most ``coupling``/8 in size,
    small against the own curvature (the stacked first-order system is
    diagonally dominant, as in the test suite's random games), so best
    responses contract.  Nonzero, because an uncoupled agent settles in one
    best-response sweep: a zero draw would make a much cheaper request and
    the cost of a round would depend on the seed.  With ``complements`` the
    coefficients are negative: the game is then supermodular, and so is its
    restriction to any grid, which therefore keeps a pure equilibrium
    (Topkis) near the analytic one.  With ``one_way`` only the last agent
    reacts to the others, which fixes the number of sweeps.
    """
    costs = []
    for i in range(n):
        poly: dict = {}
        if quartic:
            _add(poly, _mono(n, {i: 4}), _rat(rng, 1 / 8, 1))
        _add(poly, _mono(n, {i: 2}), _rat(rng, 1 / 2, 2))
        _add(poly, _mono(n, {i: 1}), _rat(rng, -2, 2))
        for j in range(n):
            if j != i and (i == n - 1 or not one_way):
                size = int(rng.integers(1, coupling + 1))
                sign = -1 if complements or rng.integers(2) else 1
                _add(poly, _mono(n, {i: 1, j: 1}), Fraction(sign * size, 8))
        terms = []
        if abs_terms:
            inner: dict = {}
            _add(inner, _mono(n, {i: 1}), Fraction(1))
            _add(inner, _mono(n), -_rat(rng, -3 / 2, 3 / 2))
            terms.append((_rat(rng, 1 / 2, 2), inner))
        costs.append(_cost(poly, terms))
    return costs


def _operator(rng: np.random.Generator, n: int, quartic: bool) -> dict:
    """Strictly convex, nearly separable operator objective."""
    poly: dict = {}
    for k in range(n):
        shift = _rat(rng, -3 / 2, 3 / 2)
        _shifted_power(poly, n, k, shift, 2, _rat(rng, 1 / 2, 2))
        if quartic:
            _shifted_power(poly, n, k, shift, 4, _rat(rng, 1 / 8, 1 / 2))
    for k in range(n):
        for m in range(k + 1, n):
            _add(poly, _mono(n, {k: 1, m: 1}),
                 Fraction(int(rng.integers(-1, 2)), 8))
    return _cost(poly)


def _custom_transfers(rng: np.random.Generator, n: int) -> list[dict]:
    """Convex quadratic taxes plus flat rewards: C_i + t_i stays convex."""
    out = []
    for i in range(n):
        poly: dict = {}
        _add(poly, _mono(n, {i: 2}), _rat(rng, 0, 1))
        _add(poly, _mono(n), _rat(rng, -1, 1))
        out.append(_cost(poly))
    return out


def _game(name: str, costs: list[dict], operator: dict,
          incentive: dict | None = None) -> dict:
    n = len(costs)
    return {"name": name, "names": [f"u{i + 1}" for i in range(n)],
            "costs": costs, "operator": operator, "incentive": incentive}


# ---------------------------------------------------------------------------
# workloads


def _bundled(rng: np.random.Generator, r: int) -> tuple[list, list]:
    requests = []
    for path in sorted(GAMES_DIR.glob("*.game")):
        text = path.read_text()
        rows = ["baseline"]
        if "[incentive]" in text:
            rows += ["incentive"] + [f"optout:{a}" for a in _agent_names(text)]
        game = path.stem
        requests.append(_request(game, ["audit", "--format", "structured"]))
        requests.append(_request(game, ["audit", "--format", "text"]))
        for row in rows:
            requests.append(_request(game, ["equilibrium", "--scenario", row,
                                            "--format", "structured"]))
        requests.append(_request(game, ["oracle", "--format", "structured"]))
    return [], _shuffle(rng, requests)


def _agent_names(text: str) -> list[str]:
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "names":
            return [v.strip() for v in value.split("#")[0].split(",")]
    raise ValueError("game file without [agents] names")


def _smooth(rng: np.random.Generator, r: int) -> tuple[list, list]:
    games = []
    for n, kind, mode, quartic_op in SMOOTH_ROUND:
        incentive = {"kind": kind, "mode": mode}
        if kind == "custom":
            incentive["t"] = _custom_transfers(rng, n)
        shape = "quartic" if quartic_op else "quadratic"
        games.append(_game(f"smooth_r{r}_n{n}_{kind}_{shape}",
                           _coupled_costs(rng, n, quartic=True),
                           _operator(rng, n, quartic_op), incentive))
    requests = [_request(g["name"], ["audit", "--format", "structured"])
                for g in games]
    return games, _shuffle(rng, requests)


def _example1_proportional() -> dict:
    """The bundled ``example1`` game under the anticipatory proportional
    rule, whose effective costs contain guarded divisions.  The file keeps
    the bundled expressions verbatim; the coefficients below are the same
    game for the numpy checks."""
    n = 2
    c1: dict = {}
    _add(c1, _mono(n, {0: 2}), Fraction(1))
    _add(c1, _mono(n, {0: 1, 1: 1}), Fraction(-2))
    c2: dict = {}
    _add(c2, _mono(n, {0: 1, 1: 1}), Fraction(1))
    _add(c2, _mono(n, {1: 1}), Fraction(-1))
    op: dict = {}
    _shifted_power(op, n, 0, Fraction(3, 4), 2, Fraction(1))
    _shifted_power(op, n, 1, Fraction(2), 2, Fraction(1))
    game = _game("example1_proportional", [_cost(c1), _cost(c2)], _cost(op),
                 {"kind": "proportional", "mode": "anticipatory"})
    bundled = (GAMES_DIR / "example1.game").read_text()
    body = bundled[:bundled.index("[incentive]")]
    body = "".join(line for line in body.splitlines(keepends=True)
                   if not line.startswith("#")).lstrip()
    game["text"] = body + "[incentive]\nkind = proportional\nmode = anticipatory\n"
    return game


def _nonsmooth(rng: np.random.Generator, r: int) -> tuple[list, list]:
    proportional = {"kind": "proportional", "mode": "anticipatory"}
    games = [_game(f"nonsmooth_r{r}_proportional",
                   _coupled_costs(rng, 2, quartic=False),
                   _operator(rng, 2, quartic=False), proportional)]
    for k in range(NONSMOOTH_ABS):
        games.append(_game(f"nonsmooth_r{r}_abs_{k}",
                           _coupled_costs(rng, 2, quartic=False,
                                          abs_terms=True, coupling=1,
                                          one_way=True),
                           _operator(rng, 2, quartic=False)))
    example1 = _example1_proportional()
    example1["name"] += f"_r{r}"
    requests = [_request(g["name"], ["audit", "--format", "structured"])
                for g in [example1] + games]
    return [example1] + games, requests[:1] + _shuffle(rng, requests[1:])


def _oracle(rng: np.random.Generator, r: int) -> tuple[list, list]:
    games, requests = [], []
    for n, count in ORACLE_ROUND.items():
        for k in range(count):
            name = f"oracle_r{r}_n{n}_{k}"
            games.append(_game(name, _coupled_costs(rng, n, quartic=False,
                                                    coupling=1,
                                                    complements=True),
                               _operator(rng, n, quartic=False)))
            requests.append(_request(name, ["oracle", "--grid",
                                            str(ORACLE_GRID[n]),
                                            "--format", "structured"]))
    return games, _shuffle(rng, requests)


_ROUNDS = {"bundled": _bundled, "smooth": _smooth,
           "nonsmooth": _nonsmooth, "oracle": _oracle}


def _request(game: str, args: list[str]) -> dict:
    return {"game": game, "args": args}


def _shuffle(rng: np.random.Generator, items: list) -> list:
    return [items[k] for k in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# game files and the manifest


def _coeff_text(c: Fraction) -> str:
    return f"({c.numerator})" if c.denominator == 1 \
        else f"({c.numerator}/{c.denominator})"


def poly_text(poly: dict, names: list[str]) -> str:
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        factors = [_coeff_text(c)]
        for k, e in enumerate(exps):
            if e:
                factors.append(names[k] if e == 1 else f"{names[k]}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms) if terms else "0"


def cost_text(cost: dict, names: list[str]) -> str:
    parts = [poly_text(cost["poly"], names)] if cost["poly"] else []
    for weight, inner in cost["abs"]:
        parts.append(f"{_coeff_text(weight)}*abs({poly_text(inner, names)})")
    return " + ".join(parts) if parts else "0"


def game_file_text(game: dict) -> str:
    names = game["names"]
    lines = ["[agents]", f"names = {', '.join(names)}", "", "[costs]"]
    lines += [f'{a} = "{cost_text(c, names)}"'
              for a, c in zip(names, game["costs"])]
    lines += ["", "[operator]", f'J = "{cost_text(game["operator"], names)}"',
              "", "[bounds]"]
    lines += [f"{a} = [{BOX[0]}, {BOX[1]}]" for a in names]
    inc = game["incentive"]
    if inc is not None:
        lines += ["", "[incentive]", f"kind = {inc['kind']}",
                  f"mode = {inc['mode']}"]
        for a, t in zip(names, inc.get("t", [])):
            lines.append(f't.{a} = "{cost_text(t, names)}"')
    return "\n".join(lines) + "\n"


def _encode_poly(poly: dict) -> list:
    return [[list(exps), str(c)] for exps, c in sorted(poly.items())]


def _encode_cost(cost: dict) -> dict:
    return {"poly": _encode_poly(cost["poly"]),
            "abs": [[str(w), _encode_poly(p)] for w, p in cost["abs"]]}


def request_count(workload: str, seconds: float) -> int:
    return max(1, round(RATE[workload] * seconds))


def build(workload: str, seed: int, count: int, out_dir: Path) -> dict:
    """Write at least ``count`` requests of ``workload`` under ``out_dir``;
    return the manifest.

    Requests come in whole rounds of the workload's fixed structure, with
    fresh coefficients each round, so every run has the same mix.  They carry full CLI argument lists (game file
    path included), the game they run on and a key naming the request.
    Bundled requests use the shipped ``games/*.game`` files in place.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    games, requests = [], []
    r = 0
    while len(requests) < count:
        more_games, more_requests = _ROUNDS[workload](rng, r)
        if not more_requests:
            raise ValueError(f"workload {workload} has no requests")
        for req in more_requests:
            req["round"] = r
        games += more_games
        requests += more_requests
        r += 1
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for game in games:
        path = out_dir / f"{game['name']}.game"
        path.write_text(game.get("text") or game_file_text(game))
        paths[game["name"]] = path
    for req in requests:
        path = paths.get(req["game"], GAMES_DIR / f"{req['game']}.game")
        req["argv"] = [req["args"][0], str(path), *req["args"][1:]]
        req["key"] = " ".join([req["args"][0], req["game"], *req["args"][1:]])
    manifest = {
        "workload": workload,
        "seed": seed,
        "games": {g["name"]: {
            "box": [str(BOX[0]), str(BOX[1])],
            "costs": [_encode_cost(c) for c in g["costs"]],
            "operator": _encode_cost(g["operator"]),
        } for g in games},
        "requests": requests,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
