"""Game-file parsing: the shipped examples and the failure modes."""

import configparser
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_audit import gamefile
from incentive_audit.audit import full_audit
from incentive_audit.expr.parser import MAX_DEPTH
from incentive_audit.game import ANTICIPATORY, NON_ANTICIPATORY
from incentive_audit.gamefile import GameFileError, load_game_file

from conftest import GAMES_DIR


class TestShippedFiles:
    def test_example1(self):
        spec = load_game_file(GAMES_DIR / "example1.game")
        assert spec.game.names == ("u1", "u2")
        assert spec.game.bounds == ((Fraction(-2), Fraction(2)),) * 2
        assert spec.scheme.kind == "custom"
        assert spec.scheme.mode == ANTICIPATORY
        assert len(spec.scheme.expressions) == 2

    def test_example2(self):
        spec = load_game_file(GAMES_DIR / "example2.game")
        assert spec.scheme.kind == "proportional"
        assert spec.scheme.mode == NON_ANTICIPATORY

    def test_example3_files(self):
        for name in ("example3_case1.game", "example3_case2.game"):
            spec = load_game_file(GAMES_DIR / name)
            assert spec.scheme.kind == "vcg"

    def test_decoupled_demo(self):
        spec = load_game_file(GAMES_DIR / "decoupled_demo.game")
        assert spec.scheme.kind == "proportional"


def _write(tmp_path, text):
    path = tmp_path / "game.game"
    path.write_text(text)
    return path


#: past the parser's nesting limit and the interpreter's digit limit
DEEP = "expression nested more than 64 levels deep"
LONG = "1" * 4301
TOO_LONG = ("number literal is too long (at most 4300 digits before or after "
            "the point)")

GOOD = """
[agents]
names = a, b

[costs]
a = "(a - 1)^2"
b = "(b + 1)^2 + a*b"

[operator]
J = "a^2 + b^2"
"""


class TestLoader:
    def test_minimal_file(self, tmp_path):
        spec = load_game_file(_write(tmp_path, GOOD))
        assert spec.scheme is None
        assert spec.game.bounds == ((Fraction(-10), Fraction(10)),) * 2

    def test_unquoted_expressions_accepted(self, tmp_path):
        text = GOOD.replace('"', "")
        spec = load_game_file(_write(tmp_path, text))
        assert spec.game.n == 2

    def test_missing_agents(self, tmp_path):
        with pytest.raises(GameFileError, match="agents"):
            load_game_file(_write(tmp_path, "[costs]\na = 1\n"))

    def test_missing_cost(self, tmp_path):
        bad = GOOD.replace('b = "(b + 1)^2 + a*b"\n', "")
        with pytest.raises(GameFileError, match="missing cost"):
            load_game_file(_write(tmp_path, bad))

    def test_unknown_variable_reports_line_and_column(self, tmp_path):
        bad = GOOD.replace('"(b + 1)^2 + a*b"', '"(b + 1)^2 + c"')
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, bad))
        message = str(err.value)
        assert "line 7" in message and "column" in message

    def test_syntax_error_reports_position(self, tmp_path):
        bad = GOOD.replace('"a^2 + b^2"', '"a^2 + * b"')
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, bad))
        assert "column" in str(err.value)

    def test_bad_interval(self, tmp_path):
        text = GOOD + "\n[bounds]\na = [2, -2]\n"
        with pytest.raises(GameFileError, match="empty interval"):
            load_game_file(_write(tmp_path, text))

    def test_interval_accepts_rationals(self, tmp_path):
        text = GOOD + "\n[bounds]\na = [-3/2, 3/2]\n"
        spec = load_game_file(_write(tmp_path, text))
        assert spec.game.bounds[0] == (Fraction(-3, 2), Fraction(3, 2))

    def test_unknown_incentive_kind(self, tmp_path):
        text = GOOD + "\n[incentive]\nkind = shapley\n"
        with pytest.raises(GameFileError, match="unknown kind"):
            load_game_file(_write(tmp_path, text))

    def test_custom_requires_all_expressions(self, tmp_path):
        text = GOOD + "\n[incentive]\nkind = custom\nt.a = \"a\"\n"
        with pytest.raises(GameFileError, match="t.<agent>"):
            load_game_file(_write(tmp_path, text))

    def test_custom_entries_rejected_for_builtin(self, tmp_path):
        text = GOOD + "\n[incentive]\nkind = vcg\nt.a = \"a\"\n"
        with pytest.raises(GameFileError, match="only apply"):
            load_game_file(_write(tmp_path, text))

    def test_solver_overrides(self, tmp_path):
        text = GOOD + "\n[solver]\ngrid_points_per_axis = 51\ntol = 1e-7\n"
        spec = load_game_file(_write(tmp_path, text))
        assert spec.solver.grid_points_per_axis == 51
        assert spec.solver.tol == 1e-7

    # a made-up key, and the keys of settings now fixed or merged into tol
    @pytest.mark.parametrize("key", [
        "warp_factor", "br_max_iters", "multistart_count", "rng_seed",
        "tol_fixed_point", "tol_stationarity"])
    def test_unknown_solver_key(self, tmp_path, key):
        text = GOOD + f"\n[solver]\n{key} = 9\n"
        with pytest.raises(GameFileError, match="unknown solver option"):
            load_game_file(_write(tmp_path, text))

    def test_non_finite_tolerance(self, tmp_path):
        text = GOOD + "\n[solver]\ntol = nan\n"
        with pytest.raises(GameFileError, match="positive and finite"):
            load_game_file(_write(tmp_path, text))

    def test_separable_base_parsed(self, tmp_path):
        text = GOOD + "\n[incentive]\nkind = proportional\nseparable_base = \"a + b\"\n"
        spec = load_game_file(_write(tmp_path, text))
        assert spec.declared_base is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(GameFileError):
            load_game_file(tmp_path / "missing.game")

    def test_duplicate_agent_names(self, tmp_path):
        bad = GOOD.replace("names = a, b", "names = a, a")
        with pytest.raises(GameFileError, match="duplicate"):
            load_game_file(_write(tmp_path, bad))

    def test_abs_is_not_an_agent_name(self, tmp_path):
        # a cost reading it would fail to parse: abs must open abs(...)
        bad = GOOD.replace("names = a, b", "names = abs, b").replace(
            'a = "(a - 1)^2"', 'abs = "abs^2 + abs*b"')
        with pytest.raises(GameFileError, match=r"\[agents\] names.*'abs' "
                           "is reserved for the absolute value"):
            load_game_file(_write(tmp_path, bad))

    def test_bound_beyond_float_range(self, tmp_path):
        text = GOOD + "\n[bounds]\na = [-10^400, 2]\n"
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        message = str(err.value)
        assert "[bounds] a (line 13)" in message
        assert "beyond the float range" in message

    def test_constant_beyond_float_range(self, tmp_path):
        bad = GOOD.replace('"(a - 1)^2"', '"(a - 1)^2 + 10^400*a"')
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, bad))
        message = str(err.value)
        assert "[costs] a (line 6)" in message
        assert "beyond the float range" in message

    def test_power_left_to_the_solver(self, tmp_path):
        # only its value at a profile overflows; the file itself is sound
        text = GOOD.replace('"(a - 1)^2"', '"(a - 1)^2 + a^400"')
        spec = load_game_file(_write(tmp_path, text))
        assert spec.game.bounds[0] == (Fraction(-10), Fraction(10))

    def test_comments_stripped(self, tmp_path):
        text = GOOD.replace('J = "a^2 + b^2"', 'J = "a^2 + b^2"  # operator')
        spec = load_game_file(_write(tmp_path, text))
        assert spec.game.n == 2


class TestEncoding:
    """Game files are UTF-8, with or without a byte-order mark."""

    def _write_bytes(self, tmp_path, data):
        path = tmp_path / "game.game"
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize("prefix, newline", [
        (b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"", b"\r")],
        ids=["bom", "crlf", "cr"])
    def test_loads_as_plain_text(self, tmp_path, prefix, newline):
        data = prefix + GOOD.encode().replace(b"\n", newline)
        spec = load_game_file(self._write_bytes(tmp_path, data))
        assert spec == load_game_file(_write(tmp_path, GOOD))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    def test_byte_not_utf8_names_its_line(self, tmp_path, newline):
        # before, a Latin-1 byte crashed with a UnicodeDecodeError traceback
        data = (b"\xef\xbb\xbf# caf\xc3\xa9\n" + GOOD.encode() + b"# caf\xe9\n")
        path = self._write_bytes(tmp_path, data.replace(b"\n", newline))
        with pytest.raises(GameFileError) as err:
            load_game_file(path)
        assert str(err.value).endswith(
            "game.game: line 12: byte 0xe9 is not UTF-8")


class TestUnknownEntries:
    """A misspelt section or key is refused with its place, not ignored."""

    def test_unknown_section(self, tmp_path):
        # before, [bound] was skipped and the audit used the default box
        text = GOOD + "\n[bound]\na = [-1, 1]\n"
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(
            "game.game: [bound] (line 12): unknown section (known sections: "
            "agents, costs, operator, bounds, incentive, solver)")

    @pytest.mark.parametrize("header", ["[bound]   # typo",
                                        "[bound]  # see [bounds]"],
                             ids=["comment", "comment-with-brackets"])
    def test_unknown_section_with_a_comment(self, tmp_path, header):
        text = GOOD + f"\n{header}\na = [-1, 1]\n"
        with pytest.raises(GameFileError, match=r"\[bound\] \(line 12\)"):
            load_game_file(_write(tmp_path, text))

    @pytest.mark.parametrize("text, message", [
        (GOOD.replace("names = a, b", "names = a, b\nnmes = a"),
         "[agents] nmes (line 4): unknown key (known keys: names)"),
        (GOOD + 'K = "a"\n',
         "[operator] K (line 11): unknown key (known keys: J)"),
        (GOOD + "\n[incentive]\nkind = proportional\n"
         "mdoe = non-anticipatory\n",
         "[incentive] mdoe (line 14): unknown key (known keys: kind, mode, "
         "separable_base)"),
        (GOOD + '\n[incentive]\nkind = custom\nt.a = "a"\nt.b = "b"\n'
         't.c = "1"\n',
         "[incentive] t.c (line 16): unknown key (known keys: kind, mode, "
         "separable_base, t.a, t.b)"),
    ], ids=["agents", "operator", "incentive", "custom-non-agent"])
    def test_unknown_key(self, tmp_path, text, message):
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("body", ["tol = 1e-3\n", ""],
                             ids=["with-key", "empty"])
    def test_default_section(self, tmp_path, body):
        # before, configparser copied [DEFAULT]'s keys into every section:
        # tol failed as "[costs] tol: not a declared agent", and an empty
        # [DEFAULT] was accepted
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, "[DEFAULT]\n" + body + GOOD))
        assert str(err.value).endswith(
            "game.game: [DEFAULT] (line 1): unknown section (known sections: "
            "agents, costs, operator, bounds, incentive, solver)")

    def test_other_errors_come_first(self, tmp_path):
        # an unknown entry does not change the message of a file that
        # fails for another reason
        text = GOOD.replace('"a^2 + b^2"', '"a^2 + * b"') + "\n[bound]\n"
        with pytest.raises(GameFileError, match=r"\[operator\] J \(line 10"):
            load_game_file(_write(tmp_path, text))

    def test_every_known_key_loads(self, tmp_path):
        text = GOOD + ('\n[bounds]\na = [-1, 1]\n\n[incentive]\nkind = custom'
                       '\nmode = non-anticipatory\nt.a = "a"\nt.b = "b"\n'
                       'separable_base = "a + b"\n\n[solver]\ntol = 1e-7\n')
        spec = load_game_file(_write(tmp_path, text))
        assert spec.scheme.mode == NON_ANTICIPATORY
        assert spec.declared_base is not None


class TestErrorLocation:
    """Parse errors carry the line and column of the expression."""

    @pytest.mark.parametrize("cost, message", [
        ('a: "a^2 - 2*a*b +"',
         "[costs] a (line 6, column 14): unexpected end of expression"),
        ('a = "a^2 $ b"',
         "[costs] a (line 6, column 5): unexpected character '$'"),
        ('a = "(a^2 + b"', "[costs] a (line 6, column 9): expected ')'"),
        ('a = "' + "(" * 200 + "a" + ")" * 200 + '^2 + a*b"',
         "[costs] a (line 6, column 65): " + DEEP),
        ('a = "' + "abs(" * 400 + "a" + ")" * 400 + ' + a*b"',
         "[costs] a (line 6, column 257): " + DEEP),
        ('a = "' + "-" * 1400 + 'a + a^2"',
         "[costs] a (line 6, column 65): " + DEEP),
        (f'a = "a^2 + {LONG}*a*b"', "[costs] a (line 6, column 7): " + TOO_LONG),
        (f'a = "a^2 + 0.{LONG}*a*b"',
         "[costs] a (line 6, column 7): " + TOO_LONG),
        (f'a = "a^{LONG}"', "[costs] a (line 6, column 3): " + TOO_LONG),
    ], ids=["colon-delimiter", "unexpected-character", "missing-paren",
            "deep-parentheses", "deep-abs", "deep-minus", "long-integer",
            "long-decimal", "long-exponent"])
    def test_located(self, tmp_path, cost, message):
        text = GOOD.replace('a = "(a - 1)^2"', cost)
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(message)

    def test_long_bound_located(self, tmp_path):
        # the refused literal is echoed up to its 40th character
        text = GOOD + f"\n[bounds]\na = [-2, {LONG}]\n"
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(
            f"[bounds] a (line 13): bad number {LONG[:40] + '…'!r}: "
            f"{TOO_LONG} (at column 1)")

    def test_empty_interval_echoes_bounds_as_written(self, tmp_path):
        text = GOOD + "\n[bounds]\na = [2, 0.5]\n"
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(
            "[bounds] a (line 13): empty interval [2, 0.5]")

    def test_long_trailing_literal_is_cut(self, tmp_path):
        text = GOOD + f"\n[bounds]\na = [-2, 1 {LONG}]\n"
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith(
            f"bad number {('1 ' + LONG)[:40] + '…'!r}: unexpected trailing "
            f"input {LONG[:40] + '…'!r} (at column 3)")

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "\n[" + "y" * 5000 + "]\n",
         f"[{'y' * 40}…] (line 25): unknown section (known sections: "
         "agents, costs, operator, bounds, incentive, solver)"),
        (lambda text: text.replace("[operator]\n",
                                   "[operator]\n" + "y" * 5000 + " = 1\n"),
         f"[operator] {'y' * 40}… (line 13): unknown key (known keys: J)"),
        (lambda text: text.replace("[operator]\n",
                                   "[operator]\n" + "y" * 40 + " = 1\n"),
         f"[operator] {'y' * 40} (line 13): unknown key (known keys: J)"),
        (lambda text: text + "\n[" + "y" * 5000 + "]\n[" + "y" * 5000 + "]\n",
         f"[{'y' * 40}…] (line 26): duplicate section (first at line 25)"),
        (lambda text: text + "y" * 5000 + " = 1\n" + "y" * 5000 + " = 2\n",
         f"[incentive] {'y' * 40}… (line 25): duplicate key (first at line "
         "24)"),
    ], ids=["long-section", "long-key", "key-of-40", "long-duplicate-section",
            "long-duplicate-key"])
    def test_long_names_are_cut(self, capsys, tmp_path, edit, message):
        # a section or key name is echoed up to its 40th character, on the
        # one error line
        from incentive_audit.cli import main

        path = _write(tmp_path, edit((GAMES_DIR / "example1.game").read_text()))
        assert main(["audit", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: {message}\n"


def _nested_objective(depth):
    """An operator objective of ``depth`` nested parentheses."""
    e = "a"
    for _ in range(depth):
        e = f"({e}*b/2 + 1/4)"
    return e


class TestNestingLimit:
    @pytest.mark.parametrize("kind", ["proportional", "vcg"])
    def test_objective_at_max_depth_audits(self, tmp_path, kind):
        text = GOOD.replace('"a^2 + b^2"', f'"{_nested_objective(MAX_DEPTH)}"')
        text += "\n[bounds]\na = [-2, 2]\nb = [-2, 2]\n"
        text += f"\n[incentive]\nkind = {kind}\n"
        spec = load_game_file(_write(tmp_path, text))
        report = full_audit(spec.scenario(), spec.solver)
        assert report.sections
        deeper = text.replace(_nested_objective(MAX_DEPTH),
                              _nested_objective(MAX_DEPTH + 1))
        with pytest.raises(GameFileError, match=r"\[operator\] J \(line 10, "
                           rf"column {MAX_DEPTH + 1}\): {DEEP}"):
            load_game_file(_write(tmp_path, deeper))


class TestLineErrors:
    """A line the format refuses is named with its line, in one short
    line of text."""

    @pytest.mark.parametrize("text, message", [
        ("a = 1\n" + GOOD, "line 1: 'a = 1' is before any [section]"),
        (GOOD + "\n[agents]\n", "[agents] (line 12): duplicate section "
         "(first at line 2)"),
        (GOOD + 'J: "b"\n', "[operator] J (line 11): duplicate key "
         "(first at line 10)"),
        (GOOD + "= 2\n", "line 11: not a [section] or key = value line: "
         "'= 2'"),
        (GOOD + "[]\n", "line 11: not a [section] or key = value line: "
         "'[]'"),
    ], ids=["missing-header", "duplicate-section", "duplicate-key",
            "empty-key", "empty-header"])
    def test_refused(self, tmp_path, text, message):
        with pytest.raises(GameFileError) as err:
            load_game_file(_write(tmp_path, text))
        assert str(err.value).endswith("game.game: " + message)


#: the standard reader as game files were read before, the reference
def _configparser_sections(text):
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",),
                                   default_section="")
    cp.optionxform = str
    cp.read_string(text)
    return {name: dict(cp.items(name)) for name in cp.sections()}


def _texts():
    """Rows of a game-file-like text: sections of keys, continuation,
    blank and comment lines, sometimes a stray line."""
    space = st.sampled_from(["", " ", "  ", "\t", " \t "])
    name = st.sampled_from(["a", "b", "costs", "a b", "a]", "[a", "x:y",
                            "k=v", "#", ";", "é"])
    text = st.sampled_from(["1", "u1^2 - u2", '"a # b"', "x#y", "a ; b",
                            "p = q", "r: s", "[c]", "", " ", "é",
                            "x\xa0#y", "x\x0c# y"])
    comment = st.sampled_from(["", "", " # note", "\t#", " #[x]", "#glued",
                               " ;not a comment"])
    delimiter = st.sampled_from(["=", ":", " = ", ": ", " :", "=="])
    header = st.builds(lambda s, n, tail, c: f"{s}[{n}]{tail}{c}", space,
                       name, st.sampled_from(["", "", "]", " x", " ]"]),
                       comment)
    key = st.builds(lambda s, k, d, v, c: f"{s}{k}{d}{v}{c}", space,
                    st.sampled_from(["a", "b", "t.a", "K", "a b", "é"]),
                    delimiter, text, comment)
    continuation = st.builds(lambda s, v, c: f"{s}{v}{c}",
                             st.sampled_from([" ", "  ", "\t", "    "]),
                             text, comment)
    blank = st.sampled_from(["", " ", "\t", "\x0c"])
    full_comment = st.builds(lambda s, p, v: f"{s}{p}{v}", space,
                             st.sampled_from(["#", ";"]), text)
    stray = st.sampled_from(["x", "[", "]", "[]", "= v", ": v", "x #",
                            "key", " [a]"])
    body = st.lists(st.one_of(key, key, continuation, blank, full_comment),
                    max_size=5)
    sections = st.lists(st.tuples(header, body), max_size=4)
    preamble = st.lists(st.one_of(blank, full_comment), max_size=2)
    insert = st.one_of(st.none(), st.none(),
                       st.tuples(st.integers(0, 24), stray))

    def rows(pre, secs, extra):
        out = pre + [row for head, lines in secs for row in [head, *lines]]
        if extra is not None:
            out.insert(extra[0], extra[1])
        return out

    return st.builds(rows, preamble, sections, insert)


def _read_both(data):
    """The sections configparser reads from ``data`` as game files were
    decoded before, or None if it refuses them; and the same from
    ``gamefile._read``."""
    text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    try:
        expected = _configparser_sections(text)
    except configparser.Error:
        expected = None
    try:
        got, lines = gamefile._read(gamefile._decode(data, "g"), "g")
    except GameFileError:
        return expected, None, None
    return expected, got, lines


def _check_lines(data, got, lines):
    """Every header and key is found on the line recorded for it."""
    rows = gamefile._decode(data, "g").split("\n")
    for section, keys in got.items():
        assert rows[lines[section, None] - 1].strip().startswith(
            f"[{section}]")
        for key in keys:
            assert rows[lines[section, key] - 1].strip().startswith(key)


class TestReader:
    """The reader accepts exactly the texts configparser, configured as
    game files were read before, accepts, with the same values."""

    @pytest.mark.parametrize("path", sorted(GAMES_DIR.glob("*.game")),
                             ids=lambda p: p.stem)
    def test_bundled_games(self, path):
        expected, got, lines = _read_both(path.read_bytes())
        assert expected is not None and got == expected
        _check_lines(path.read_bytes(), got, lines)

    @settings(max_examples=600, deadline=None)
    @given(_texts(),
           st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    @example(["[a]", "k = 1", "  more", "", "  after blank", "", ""], "\n",
             False)
    @example(["[a] # c", "k: v # c", "; c", "  # c", "j = x#y"], "\r\n",
             True)
    @example(["[a]", "k = 1", "[a]"], "\n", False)
    @example(["[a]", "k = 1", "k = 2"], "\r", False)
    @example(["k = 1"], "\n", True)
    @example(["[a]", "k = 1", "x"], "\n", False)
    def test_same_sections_as_configparser(self, rows, newline, bom):
        data = (b"\xef\xbb\xbf" if bom else b"") + newline.join(rows).encode()
        expected, got, lines = _read_both(data)
        assert got == expected
        if got is not None:
            assert [list(keys.items()) for keys in got.values()] \
                == [list(keys.items()) for keys in expected.values()]
            assert list(got) == list(expected)
            _check_lines(data, got, lines)
