"""Exact linear algebra (``solve/exact.py``) against a reference
determinant, and the exact route of a many-agent quadratic audit."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from incentive_audit.cli import main
from incentive_audit.solve.exact import is_positive_definite, solve_linear

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sizes = st.integers(min_value=1, max_value=6)


def det(a):
    """Laplace expansion along the first row: slow, but obviously right."""
    if not a:
        return Fraction(1)
    return sum((-1) ** j * a[0][j] * det([row[:j] + row[j + 1:]
                                          for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def leading_minors_positive(a):
    return all(det([row[:k] for row in a[:k]]) > 0
               for k in range(1, len(a) + 1))


@st.composite
def square_matrices(draw):
    """Any square matrix; some with a row that is a combination of two
    others, so singular ones come up often."""
    n = draw(sizes)
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        s, t = draw(entries), draw(entries)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    return a


@st.composite
def ldl_matrices(draw):
    """Symmetric L D L^T with unit lower-triangular L; the pivots D take
    every sign, zero included, so D says whether the matrix is positive
    definite."""
    n = draw(sizes)
    lower = [[draw(entries) if j < i else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    pivots = draw(st.lists(st.sampled_from([Fraction(-1), Fraction(0),
                                            Fraction(1, 3), Fraction(2)])
                           | entries, min_size=n, max_size=n))
    a = [[sum(lower[i][k] * pivots[k] * lower[j][k] for k in range(n))
          for j in range(n)] for i in range(n)]
    return a, pivots


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_positive_definite_is_sylvester_on_any_square_matrix(a):
    assert is_positive_definite(a) == leading_minors_positive(a)


@given(ldl_matrices())
@settings(max_examples=60, deadline=None)
def test_positive_definite_on_symmetric_matrices(case):
    a, pivots = case
    expected = all(d > 0 for d in pivots)
    assert leading_minors_positive(a) == expected
    assert is_positive_definite(a) == expected


@given(square_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_linear_is_exact_and_none_when_singular(a, data):
    b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    x = solve_linear(a, b)
    if det(a) == 0:
        assert x is None
    else:
        assert all(type(v) is Fraction for v in x)
        assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b


def vcg_game(n: int) -> str:
    """A quadratic VCG-like game: C_i = u_i^2 - sum_{j != i} u_i u_j / 40
    + (i/10) u_i, J = sum_i (u_i - (i-5)/10)^2 + u_1 u_2 / 8, on [-2, 2]."""
    names = [f"u{i}" for i in range(1, n + 1)]
    costs = [f'{u} = "{u}^2 - '
             + " - ".join(f"{u}*{v}/40" for v in names if v != u)
             + f' + {i}/10*{u}"' for i, u in enumerate(names, 1)]
    objective = " + ".join(f"({u} - {i - 5}/10)^2"
                           for i, u in enumerate(names, 1))
    return "\n".join(
        ["[agents]", "names = " + ", ".join(names), "", "[costs]", *costs,
         "", "[operator]", f'J = "{objective} + u1*u2/8"', "", "[bounds]",
         *(f"{u} = [-2, 2]" for u in names), "",
         "[incentive]", "kind = vcg", "mode = anticipatory", ""])


def test_ten_agent_quadratic_audit_is_exact(capsys, tmp_path):
    path = tmp_path / "vcg10.game"
    path.write_text(vcg_game(10))
    assert main(["audit", str(path), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True
    (section,) = doc["sections"]
    verdicts = {v["name"]: v["status"] for v in section["properties"]}
    assert verdicts["social-optimality"] == "holds"
