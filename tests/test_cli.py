"""Command-line behavior: outputs, scenario selectors, exit codes."""

import json
import sys
import warnings

import pytest

from incentive_audit import cli
from incentive_audit.cli import main
from incentive_audit.gamefile import load_game_file
from incentive_audit.report import render_text
from incentive_audit.solve import kernels

from conftest import GAMES_DIR

EX1 = str(GAMES_DIR / "example1.game")
EX3C2 = str(GAMES_DIR / "example3_case2.game")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _decimal(node):
    return node["decimal"] if isinstance(node, dict) else node


class TestAudit:
    def test_example1_text(self, capsys):
        code, out, _ = run(capsys, "audit", EX1)
        assert code == 0
        assert "0.75 (= 3/4)" in out
        assert "total incentive:   0.5 (= 1/2)" in out
        assert "weak" in out

    def test_example1_structured(self, capsys):
        code, out, _ = run(capsys, "audit", EX1, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        section = doc["sections"][0]
        assert [_decimal(v) for v in section["realized_profile"]] == [1.0, 2.0]
        assert _decimal(section["total_incentive"]) == 0.5
        assert _decimal(section["operator_net_cost"]) == 0.0625 - 0.5
        assert doc["exact"] is True

    def test_case2_flags_budget_failure(self, capsys):
        code, out, _ = run(capsys, "audit", EX3C2, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        verdicts = {v["name"]: v for v in doc["sections"][0]["properties"]}
        assert verdicts["budget-balance"]["status"] == "fails"
        assert verdicts["social-optimality"]["status"] == "holds"

    def test_malformed_expression_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.game"
        bad.write_text("""
[agents]
names = x, y

[costs]
x = "x^2 + * y"
y = "y^2"

[operator]
J = "x^2 + y^2"
""")
        code, _, err = run(capsys, "audit", str(bad))
        assert code == 2
        assert "line 6" in err and "column" in err

    @pytest.mark.parametrize("command,extra", [
        ("audit", ()),
        ("equilibrium", ()),
        ("oracle", ("--grid", "61")),
    ])
    def test_byte_identical_reruns(self, capsys, command, extra):
        _, first, _ = run(capsys, command, EX1, "--format", "structured",
                          *extra)
        _, second, _ = run(capsys, command, EX1, "--format", "structured",
                           *extra)
        assert first and first == second


class TestSolverOverrides:
    @pytest.mark.parametrize("override", ["--grid=2", "--grid=10002",
                                          "--tol=0", "--tol=-1e-9",
                                          "--tol=nan", "--tol=inf"])
    def test_out_of_range_exits_2(self, capsys, override):
        code, out, err = run(capsys, "audit", EX1, override)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestEquilibrium:
    def test_baseline_row(self, capsys):
        code, out, _ = run(capsys, "equilibrium", EX1, "--scenario",
                           "baseline", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        eq = doc["equilibria"][0]
        assert [_decimal(v) for v in eq["profile"]] == [1.0, 1.0]
        assert _decimal(eq["operator_cost"]) == pytest.approx(17 / 16)

    def test_incentive_row(self, capsys):
        code, out, _ = run(capsys, "equilibrium", EX1, "--format",
                           "structured")
        doc = json.loads(out)
        eq = doc["equilibria"][0]
        assert [_decimal(v) for v in eq["profile"]] == [1.0, 2.0]
        assert _decimal(eq["operator_net_cost"]) == pytest.approx(
            1 / 16 - 1 / 2)

    def test_optout_row(self, capsys):
        code, out, _ = run(capsys, "equilibrium", EX1, "--scenario",
                           "optout:u2", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert [_decimal(v) for v in doc["equilibria"][0]["profile"]] \
            == [1.0, 2.0]

    def test_optout_by_index(self, capsys):
        code, out, _ = run(capsys, "equilibrium", EX1, "--scenario",
                           "optout:1", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert [_decimal(v) for v in doc["equilibria"][0]["profile"]] \
            == [1.0, 1.0]

    def test_optout_without_incentive_exits_2(self, capsys, tmp_path):
        plain = tmp_path / "plain.game"
        plain.write_text("""
[agents]
names = x, y

[costs]
x = "(x - 1)^2"
y = "(y + 1)^2"

[operator]
J = "x^2 + y^2"
""")
        code, _, err = run(capsys, "equilibrium", str(plain), "--scenario",
                           "optout:x")
        assert code == 2
        assert "not applicable" in err

    def test_unknown_selector_exits_2(self, capsys):
        code, _, err = run(capsys, "equilibrium", EX1, "--scenario", "wat")
        assert code == 2

    @pytest.mark.parametrize("selector,message", [
        ("optout:nobody", "unknown agent 'nobody'"),
        ("optout:9", "agent index 9 out of range"),
    ])
    def test_unknown_opt_out_agent_exits_2(self, capsys, selector, message):
        code, out, err = run(capsys, "equilibrium", EX1, "--scenario",
                             selector)
        assert code == 2
        assert out == "" and message in err

    def test_subnormal_line_coefficient_solves(self, capsys, tmp_path):
        # u1's quartic coefficient is subnormal as a float: the companion
        # matrix of a line's derivative would overflow, so its roots come
        # from the quadratic below it
        tiny = tmp_path / "tiny.game"
        tiny.write_text("""
[agents]
names = u1, u2

[costs]
u1 = "u1^4/10^320 + u1^2 + u1*u2/4"
u2 = "(u2 + 1)^2"

[operator]
J = "u1^2 + u2^2"
""")
        code, out, err = run(capsys, "equilibrium", str(tiny))
        assert code == 0 and err == ""
        assert "1. profile (0.125, -1)" in out


OVERFLOW_GAME = """
[agents]
names = u1, u2

[costs]
u1 = "COST"
u2 = "u1*u2 - u2"

[operator]
J = "(u1 - 3/4)^2 + (u2 - 2)^2"

[bounds]
u1 = BOUND
"""


#: an operator objective whose second derivatives overflow a float off
#: the axes of its box, under the VCG-like rule
STEEP_GAME = """
[agents]
names = u1, u2

[costs]
u1 = "u1^2 - u1*u2"
u2 = "u2^2 - u1*u2"

[operator]
J = "u1^2 + u2^2 + u1^100*u2^100"

[bounds]
u1 = [-1000, 1000]
u2 = [-1000, 1000]

[incentive]
kind = vcg
mode = anticipatory
"""


class TestFloatRange:
    @pytest.mark.parametrize("command", ["audit", "equilibrium", "oracle"])
    @pytest.mark.parametrize("cost,bound,where", [
        ("u1^2", "[-10^400, 2]", "[bounds] u1 (line 13)"),
        ("u1^2 + 10^400*u1", "[-2, 2]", "[costs] u1 (line 6)"),
    ])
    def test_huge_number_exits_2(self, capsys, tmp_path, command, cost,
                                 bound, where):
        path = tmp_path / "huge.game"
        path.write_text(OVERFLOW_GAME.replace("COST", cost)
                        .replace("BOUND", bound))
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and where in err
        assert "beyond the float range" in err

    @pytest.mark.parametrize("command", ["audit", "equilibrium", "oracle"])
    def test_overflowing_power_exits_3(self, capsys, tmp_path, command):
        # (10^10)^40 overflows a float as 10^400 does; u1^400 on [-10, 10]
        # fails the same way after seconds of degree-399 root finding
        path = tmp_path / "power.game"
        path.write_text(OVERFLOW_GAME.replace("COST", "u1^2 + u1^40")
                        .replace("BOUND", "[-10^10, 10^10]"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, str(path))
        assert code == 3 and out == ""
        # one line, and no numpy overflow warning printed before it
        assert err.startswith("error: float overflow: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert [str(w.message) for w in caught] == []

    def test_second_cost_overflowing_exits_3(self, capsys, tmp_path):
        # u2's cost overflows off the first agent's best responses (u1 = 0)
        path = tmp_path / "second.game"
        path.write_text(OVERFLOW_GAME.replace("COST", "u1^2")
                        .replace('"u1*u2 - u2"', '"u2^2 + u1^40"')
                        .replace("BOUND", "[-10^10, 10^10]"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "oracle", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: float overflow: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert [str(w.message) for w in caught] == []

    def test_overflowing_abs_cost_exits_3_with_one_line(self, capsys,
                                                         tmp_path):
        # a cost with no polynomial form is tabulated by its compiled
        # vector function, which overflows in float_power
        path = tmp_path / "abs.game"
        path.write_text(OVERFLOW_GAME.replace(
            "COST", "u1^2 + abs(u1)^400 - u1*u2").replace("BOUND", "[-10, 10]"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "oracle", str(path), "--grid", "11")
        assert code == 3 and out == ""
        assert err.startswith("error: float overflow: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert [str(w.message) for w in caught] == []

    def test_sampled_overflow_writes_no_warning(self, capsys, tmp_path):
        # the curvature samples overflow to inf off the axes: the check is
        # unknown at the first such point, and no numpy warning is printed
        path = tmp_path / "steep.game"
        path.write_text(STEEP_GAME)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "audit", str(path), "--format",
                                 "structured")
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught] == []
        conditions = json.loads(out)["sections"][0]["conditions"]
        hess = {v["name"]: v for v in conditions}[
            "operator-hessian-positive-definite"]
        assert hess["status"] == "unknown"
        assert hess["witnesses"] == [
            {"min_eigenvalue": None, "profile": [-1000.0, -1000.0]}]


class TestLongLiterals:
    @pytest.mark.parametrize("command", ["audit", "equilibrium"])
    def test_exact_value_past_digit_limit_exits_3(self, capsys, tmp_path,
                                                  command):
        # the exact equilibrium has a 3000-digit denominator: str() of its
        # Fraction refuses past the interpreter's integer-string limit
        path = tmp_path / "tiny.game"
        tiny = "0." + "0" * 2999 + "1"
        path.write_text((GAMES_DIR / "example1.game").read_text().replace(
            '"u1*u2 - u2"', f'"u1*u2 - {tiny}*u2"'))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert err == ("error: cannot print an exact value: its numerator or "
                       "denominator has more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    @pytest.mark.parametrize("command", ["audit", "equilibrium", "oracle"])
    def test_empty_interval_past_digit_limit_exits_2(self, capsys, tmp_path,
                                                     command):
        # a legal literal whose Fraction str() refuses past the digit limit
        path = tmp_path / "empty.game"
        tiny = "0." + "0" * 4299 + "1"
        path.write_text((GAMES_DIR / "example1.game").read_text().replace(
            "u1 = [-2, 2]", f"u1 = [1, {tiny}]"))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(
            f"[bounds] u1 (line 16): empty interval [1, {tiny[:40]}…]\n")


class TestOracle:
    def test_example1_agrees(self, capsys):
        code, out, _ = run(capsys, "oracle", EX1, "--scenario", "baseline",
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert doc["grid_points_per_axis"] == 201

    def test_grid_override(self, capsys):
        code, out, _ = run(capsys, "oracle", EX1, "--scenario", "baseline",
                           "--grid", "41", "--format", "structured")
        doc = json.loads(out)
        assert doc["grid_points_per_axis"] == 41
        assert doc["agreement"] is True

    def test_five_agents_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "oracle", _separable_game(tmp_path, 5))
        assert code == 4
        assert "at most 4" in err

    def test_four_agents_at_default_grid_exits_4(self, capsys, tmp_path,
                                                 monkeypatch):
        def no_tables(*args):
            raise AssertionError("oracle tabulated a grid past the budget")

        monkeypatch.setattr(kernels, "poly_grid_eval", no_tables)
        monkeypatch.setattr(kernels, "poly_eval_at", no_tables)
        code, _, err = run(capsys, "oracle", _separable_game(tmp_path, 4))
        assert code == 4
        assert "--grid 76 " in err


def _separable_game(tmp_path, n):
    path = tmp_path / f"separable{n}.game"
    names = ", ".join(f"x{i}" for i in range(1, n + 1))
    costs = "\n".join(f'x{i} = "(x{i} - 1)^2"' for i in range(1, n + 1))
    objective = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    path.write_text(f"""
[agents]
names = {names}

[costs]
{costs}

[operator]
J = "{objective}"
""")
    return str(path)


def _report_requests():
    """Every bundled game under audit, equilibrium with each scenario
    selector, and oracle."""
    for path in sorted(GAMES_DIR.glob("*.game")):
        names = load_game_file(path).game.names
        yield "audit", str(path)
        for selector in ("baseline", "incentive",
                         *(f"optout:{name}" for name in names)):
            yield "equilibrium", str(path), "--scenario", selector
        yield "oracle", str(path), "--grid", "41"


@pytest.mark.parametrize(
    "argv", list(_report_requests()),
    ids=lambda argv: " ".join([argv[0], argv[1].rsplit("/", 1)[-1],
                               *argv[2:]]))
def test_text_renders_the_structured_document(capsys, argv):
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, structured, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    assert text == render_text(json.loads(structured))


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


class TestMissingFile:
    def test_exits_2(self, capsys):
        code, _, err = run(capsys, "audit", "nowhere.game")
        assert code == 2


def test_long_stray_line_is_one_short_error(capsys, tmp_path):
    # before, the whole line was echoed on a second line (5 075 bytes)
    path = tmp_path / "long.game"
    path.write_text((GAMES_DIR / "example1.game").read_text() + "\n"
                    + "x" * 5000 + "\n")
    code, out, err = run(capsys, "audit", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: {path}: line 25: not a [section] or key = value "
                   f"line: {'x' * 40 + '…'!r}\n")


# an operator minimum on the box edge: u2 = 20 lies outside [-10, 10]
EDGE_OPTIMUM = """
[agents]
names = u1, u2

[costs]
u1 = "u1^2"
u2 = "u2^2"

[operator]
J = "u1^4 + (u2 - 20)^2"
"""

# u2 wants to move away from u1 and u1 towards u2: no pure equilibrium
CHASE = """
[agents]
names = u1, u2

[costs]
u1 = "(u1 - u2)^2"
u2 = "-(u1 - u2)^2"

[operator]
J = "u1^2 + u2^2"

[bounds]
u1 = [-1, 1]
u2 = [-1, 1]
"""

# the incentive cancels the chase: the realized game has its equilibrium
CHASE_SETTLED = CHASE + """
[incentive]
kind = custom
t.u1 = "-(u1 - u2)^2 + u1^2"
t.u2 = "2*(u1 - u2)^2 + u2^2"
"""

# agent 1 flees agent 2, who chases it: neither the baseline game nor
# agent 1's VCG-like opt-out game (agent 2 playing J) has an equilibrium
CHASE_VCG = """
[agents]
names = u1, u2

[costs]
u1 = "-(u1 - u2)^2"
u2 = "(u2 - u1)^2"

[operator]
J = "(u2 - u1)^2 + u1^2"

[bounds]
u1 = [-1, 1]
u2 = [-1, 1]

[incentive]
kind = vcg
mode = non-anticipatory
"""


class TestEmptyAndEdgeOutputs:
    """Text the renderers write only for an optimum on the box edge or a
    game with no pure equilibrium."""

    def _path(self, tmp_path, text):
        path = tmp_path / "game.game"
        path.write_text(text)
        return str(path)

    def test_optimum_on_the_bounds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "audit", self._path(tmp_path, EDGE_OPTIMUM))
        assert code == 0
        # the profile's u1 is not pinned: the polish stops at |grad J| <= tol
        assert ("  value:   100\n"
                "  note:    minimizer sits on the action bounds\n") in out

    def test_audit_without_a_baseline_equilibrium(self, capsys, tmp_path):
        code, out, _ = run(capsys, "audit",
                           self._path(tmp_path, CHASE_SETTLED))
        assert code == 0
        assert ("baseline equilibria (no incentive)\n  none verified\n"
                "\noutcome 1\n  realized profile:  (0, 0)\n") in out
        assert ("single-deviation-dominance  not-applicable  "
                "[no baseline equilibrium available]") in out

    def test_no_equilibrium(self, capsys, tmp_path):
        code, out, _ = run(capsys, "equilibrium", self._path(tmp_path, CHASE))
        assert code == 0
        assert out.endswith("agents:   u1, u2\n\nno equilibrium verified\n")

    @pytest.mark.parametrize("command", ["audit", "equilibrium"])
    def test_non_anticipatory_error_names_the_baseline(self, capsys,
                                                       tmp_path, command):
        # agents who do not anticipate the scheme play the baseline game,
        # which is solved before the opt-out games that price the scheme
        code, out, err = run(capsys, command,
                             self._path(tmp_path, CHASE_VCG))
        assert code == 3 and out == ""
        assert err == "error: no baseline equilibrium verified\n"

    def test_no_grid_equilibrium(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle", self._path(tmp_path, CHASE))
        assert code == 0
        assert "grid equilibria\n  none\ngrid operator minimum: (0, 0)" in out
