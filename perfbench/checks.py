"""Output checks whose reference is not the program.

Bundled games are checked against hand-derived golden values and against
digests of their structured output recorded when the benchmark was
defined (``digests.json``; the ROADMAP requires byte-identical structured
reports).  Generated games are checked with numpy against the
coefficients the generator drew: every reported equilibrium must survive a
dense unilateral-deviation scan, and the operator optimum must lie within
one grid step of a dense grid minimum.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: grid points per agent for the unilateral-deviation scan
SCAN_POINTS = 4001

#: grid points per axis for the operator-minimum check, by agent count
OPTIMUM_GRID = {2: 201, 3: 41, 4: 21}

#: slack on a cost comparison, relative to 1 + |value|; the program's own
#: verification allows about 1e-7 on scanned (non-polynomial) lines
VALUE_TOL = 1e-6

#: hand-derived values of the worked examples (see tests/test_acceptance.py)
GOLDEN = {
    "audit example1 --format structured": {
        "operator_optimum": ["3/4", "2"],
        "baseline_operator_cost": "17/16",
        "net_cost": str(Fraction(1, 16) - Fraction(1, 2)),
    },
    "audit example3_case2 --format structured": {"t1": "-3"},
}
GOLDEN_TEXT = {
    "audit example1 --format text": (
        "profile: (0.75 (= 3/4), 2)", "operator cost 1.0625 (= 17/16)",
        "operator net cost: -0.4375 (= -7/16)"),
    "audit example3_case2 --format text": ("incentives:        u1=-3,",),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# numpy evaluation of generated games


def _decode_poly(encoded: list) -> tuple[np.ndarray, np.ndarray]:
    exps = np.array([e for e, _ in encoded], dtype=np.int64)
    coeffs = np.array([float(Fraction(c)) for _, c in encoded])
    return exps, coeffs


def _poly_at(poly: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Evaluate at points ``x`` of shape (m, n)."""
    exps, coeffs = poly
    if not len(coeffs):
        return np.zeros(len(x))
    return (np.prod(x[:, None, :] ** exps[None, :, :], axis=2) * coeffs).sum(1)


class Cost:
    """A generated cost: a polynomial plus weighted abs(polynomial) terms."""

    def __init__(self, encoded: dict):
        self.poly = _decode_poly(encoded["poly"])
        self.abs_terms = [(float(Fraction(w)), _decode_poly(p))
                          for w, p in encoded["abs"]]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = _poly_at(self.poly, x)
        for w, inner in self.abs_terms:
            out = out + w * np.abs(_poly_at(inner, x))
        return out

    def on_grid(self, axis: np.ndarray, n: int) -> np.ndarray:
        """Values on the cartesian grid axis^n (polynomial part only)."""
        out = np.zeros((len(axis),) * n)
        for e, c in zip(*self.poly):
            term = np.full((1,) * n, c)
            for k in range(n):
                if e[k]:
                    shape = [1] * n
                    shape[k] = len(axis)
                    term = term * (axis ** e[k]).reshape(shape)
            out += term
        return out


def _number(node) -> float:
    if isinstance(node, dict):
        return float(Fraction(node["rational"]))
    return float(node)


def _profile(nodes: list) -> np.ndarray:
    return np.array([_number(v) for v in nodes])


def deviation_problems(costs: list[Cost], box: tuple[float, float],
                       profile: np.ndarray, label: str) -> list[str]:
    """No agent may gain more than VALUE_TOL by a unilateral move on a
    dense grid of its own action."""
    problems = []
    grid = np.linspace(box[0], box[1], SCAN_POINTS)
    for i, cost in enumerate(costs):
        here = float(cost(profile[None, :])[0])
        moves = np.repeat(profile[None, :], SCAN_POINTS, axis=0)
        moves[:, i] = grid
        best = float(cost(moves).min())
        if here > best + VALUE_TOL * (1 + abs(best)):
            problems.append(f"{label} {profile.tolist()}: agent {i + 1} "
                            f"gains {here - best:.3g} by deviating")
    return problems


def optimum_problems(operator: Cost, box: tuple[float, float],
                     profile: np.ndarray) -> list[str]:
    """The reported optimum must be within one grid step of the dense grid
    minimum and no worse than it."""
    n = len(profile)
    points = OPTIMUM_GRID[n]
    axis = np.linspace(box[0], box[1], points)
    values = operator.on_grid(axis, n).ravel()
    best = int(np.argmin(values))
    at = axis[list(np.unravel_index(best, (points,) * n))]
    step = (box[1] - box[0]) / (points - 1)
    problems = []
    distance = float(np.max(np.abs(at - profile)))
    if distance > step + 1e-12:
        problems.append(f"operator optimum {profile.tolist()} is {distance:.3g}"
                        f" from the grid minimum (step {step:.3g})")
    here = float(operator(profile[None, :])[0])
    if here > values[best] + VALUE_TOL * (1 + abs(values[best])):
        problems.append(f"operator optimum value {here} exceeds the grid "
                        f"minimum {values[best]}")
    return problems


# ---------------------------------------------------------------------------
# per-request checks


def check_generated(game: dict, request: dict, text: str) -> list[str]:
    doc = json.loads(text)
    box = tuple(float(Fraction(b)) for b in game["box"])
    costs = [Cost(c) for c in game["costs"]]
    operator = Cost(game["operator"])
    if request["args"][0] == "oracle":
        problems = [] if doc["agreement"] is True \
            else ["oracle reports agreement: false"]
        equilibria = doc["analytic_equilibria"]
        optimum = doc["operator_optimum"]
    else:
        problems = []
        equilibria = [eq["profile"] for eq in doc["baseline_equilibria"]]
        optimum = doc["operator_optimum"]["profile"]
    if not equilibria:
        problems.append("no equilibrium reported for a game that has one")
    for eq in equilibria:
        problems += deviation_problems(costs, box, _profile(eq), "equilibrium")
    problems += optimum_problems(operator, box, _profile(optimum))
    return problems


def check_bundled(request: dict, text: str,
                  digests: dict[str, str]) -> list[str]:
    key = request["key"]
    problems = []
    if "structured" in request["args"]:
        if digests.get(key) != digest(text):
            problems.append("structured output differs from the recorded "
                            "digest")
        doc = json.loads(text)
        if request["args"][0] == "oracle" and doc["agreement"] is not True:
            problems.append("oracle reports agreement: false")
    golden = GOLDEN.get(key)
    if golden is not None:
        doc = json.loads(text)
        section = doc["sections"][0]
        seen = {
            "operator_optimum": [v["rational"] for v in
                                 doc["operator_optimum"]["profile"]],
            "baseline_operator_cost":
                doc["baseline_equilibria"][0]["operator_cost"]["rational"],
            "net_cost": section["operator_net_cost"]["rational"],
            "t1": section["incentives"][0]["rational"],
        }
        for name, want in golden.items():
            if seen[name] != want:
                problems.append(f"{name} is {seen[name]}, expected {want}")
    if "text" in request["args"] and not text.startswith("scenario:"):
        problems.append("text report does not start with its scenario line")
    for want in GOLDEN_TEXT.get(key, ()):
        if want not in text:
            problems.append(f"text report lacks {want!r}")
    return problems
