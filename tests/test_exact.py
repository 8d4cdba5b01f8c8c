"""Exact linear algebra (``solve/exact.py``) against a reference
determinant and the Fraction Gauss-Jordan elimination it replaced, and
the exact route of a many-agent quadratic audit."""

import json
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from incentive_audit.cli import main
from incentive_audit.solve.exact import is_positive_definite, solve_linear

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sizes = st.integers(min_value=1, max_value=6)
# numerators up to 10^6 over the large coprime denominators 997, 991, 983
coprime_entries = st.builds(Fraction, st.integers(-10**6, 10**6),
                            st.sampled_from([997, 991, 983, 1]))


def reference_solve_linear(a, b):
    """Fraction Gauss-Jordan elimination with row exchanges."""
    n = len(b)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def reference_is_positive_definite(a):
    """Fraction elimination without row exchanges: pivot k is the ratio of
    leading minors k and k-1."""
    n = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for r in range(k + 1, n):
            factor = m[r][k] / pivot
            if factor:
                m[r] = [v - factor * w for v, w in zip(m[r], m[k])]
    return True


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
def square_matrices(draw, values=entries):
    """Any square matrix of ``values``; some with a row that is a
    combination of two others, so singular ones come up often, and some
    with a zero leading entry, so the elimination must exchange rows."""
    n = draw(sizes)
    a = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        s, t = draw(entries), draw(entries)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    if draw(st.booleans()):
        a[0][0] = Fraction(0)
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


@st.composite
def systems(draw, values=entries):
    """A square matrix of ``values`` and a right-hand side."""
    a = draw(square_matrices(values))
    return a, draw(st.lists(values, min_size=len(a), max_size=len(a)))


F = Fraction
B3 = [F(1, 991), F(-1, 983), F(1, 997)]


@given(st.one_of(systems(), systems(coprime_entries)))
@settings(max_examples=150, deadline=None)
# a zero leading entry: only a row exchange finds the pivot
@example(([[F(0), F(1)], [F(1), F(0)]], B3[:2]))
@example(([[F(0), F(0), F(1)], [F(0), F(2), F(0)], [F(3), F(0), F(0)]], B3))
# a zero pivot after the first step: 1*4 - 2*2 = 0
@example(([[F(1), F(2), F(1)], [F(2), F(4), F(0)], [F(0), F(1), F(1)]], B3))
# rank deficient: rank 1, rank 2 of 3, and the zero matrix
@example(([[F(1), F(2)], [F(2), F(4)]], B3[:2]))
@example(([[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]], B3))
@example(([[F(0)] * 3] * 3, B3))
# large coprime denominators
@example(([[F(1, 997), F(1, 991)], [F(1, 983), F(-1, 997)]], B3[:2]))
def test_solve_linear_matches_the_fraction_reference(system):
    a, b = system
    want = reference_solve_linear(a, b)
    got = solve_linear(a, b)
    assert got == want
    if got is not None:
        assert all(type(v) is Fraction for v in got)


@given(st.one_of(square_matrices(), square_matrices(coprime_entries),
                 ldl_matrices().map(lambda case: case[0])))
@settings(max_examples=150, deadline=None)
@example([[F(0), F(1)], [F(1), F(0)]])
@example([[F(1, 997), F(1, 991)], [F(1, 991), F(1, 983)]])
@example([[F(1, 997), F(1, 991)], [F(1, 991), F(1, 983 * 991)]])
def test_positive_definite_matches_the_fraction_reference(a):
    assert is_positive_definite(a) == reference_is_positive_definite(a)


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
