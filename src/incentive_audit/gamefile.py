"""Declarative game files: INI-style sections describing a scenario.

Format (UTF-8 text, a byte-order mark allowed; expressions may be
double-quoted; `#` starts a comment; a key is set with `=` or `:`; any other
section or key, `[DEFAULT]` included, is refused):

    [agents]
    names = u1, u2

    [costs]
    u1 = "u1^2 - 2*u1*u2"
    u2 = "u1*u2 - u2"

    [operator]
    J = "(u1 - 3/4)^2 + (u2 - 2)^2"

    [bounds]            # optional, defaults to [-10, 10]
    u1 = [-2, 2]

    [incentive]         # optional: no section means no incentive
    kind = custom       # proportional | vcg | custom
    mode = anticipatory # anticipatory | non-anticipatory
    t.u1 = "u1^2"       # custom only, one per agent
    t.u2 = "-1/2"
    separable_base = "u1 + u2"   # optional declared base for the
                                 # absolute-deviation condition

    [solver]            # optional, the two SolverConfig fields
    grid_points_per_axis = 201
    tol = 1e-9
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .expr import Const, Expression, ParseError, children, parse
from .expr.parser import excerpt
from .expr.polynomial import as_polynomial
from .game import (ANTICIPATORY, CUSTOM, DEFAULT_BOUND, NON_ANTICIPATORY,
                   PROPORTIONAL, VCG, Game, IncentiveScheme, Scenario)
from .solve import SolverConfig

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

_SECTIONS = ("agents", "costs", "operator", "bounds", "incentive", "solver")


class GameFileError(ValueError):
    """A problem with a game file; message carries file/section/key context."""


@dataclass(frozen=True)
class GameSpec:
    game: Game
    scheme: Optional[IncentiveScheme]
    declared_base: Optional[Expression]
    solver: SolverConfig

    def scenario(self, opted_out: tuple[int, ...] = ()) -> Scenario:
        return Scenario(self.game, self.scheme, frozenset(opted_out))


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _has_huge_constant(e: Expression) -> bool:
    """True when a constant in ``e`` is beyond the float range."""
    if isinstance(e, Const):
        try:
            float(e.value)
        except OverflowError:
            return True
        return False
    return any(map(_has_huge_constant, children(e)))


def _line_of(text: str, section: str, key: Optional[str] = None
             ) -> Optional[int]:
    """The line of ``key = ...`` or ``key: ...`` in ``[section]``, or of the
    section's header when ``key`` is None."""
    in_section = False
    key_re = re.compile(rf"^\s*{re.escape(key or '')}\s*[=:]")
    for lineno, line in enumerate(text.splitlines(), 1):
        # drop an inline comment first, as configparser does
        header = configparser.ConfigParser.SECTCRE.match(
            re.split(r"\s#", line)[0].strip())
        if header:
            in_section = header.group("header") == section
        if in_section and (header if key is None else key_re.match(line)):
            return lineno
    return None


class _Loader:
    def __init__(self, path: str | Path):
        self.path = str(path)
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise GameFileError(f"{path}: {exc}") from exc
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # the bad byte is neither \r nor \n, so it ends the last line
            line = len(exc.object[:exc.start + 1].splitlines())
            raise GameFileError(
                f"{self.path}: line {line}: byte "
                f"{exc.object[exc.start]:#04x} is not UTF-8") from exc
        # line ends as text mode reads them
        self.text = text.replace("\r\n", "\n").replace("\r", "\n")
        # no header can spell the empty default section, so [DEFAULT] is
        # refused as an unknown section, not copied into every section
        self.cp = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#",),
            default_section="")
        self.cp.optionxform = str
        try:
            self.cp.read_string(self.text, source=self.path)
        except configparser.Error as exc:
            raise GameFileError(f"{self.path}: {exc}") from exc

    def fail(self, section: str, key: Optional[str], message: str,
             column: Optional[int] = None) -> GameFileError:
        where = f"{self.path}: [{section}]"
        if key is not None:
            where += f" {key}"
            line = _line_of(self.text, section, key)
            if line is not None:
                where += f" (line {line}"
                where += f", column {column})" if column is not None else ")"
        return GameFileError(f"{where}: {message}")

    def expression(self, section: str, key: str, names: list[str]) -> Expression:
        raw = _unquote(self.cp.get(section, key))
        try:
            e = parse(raw, names)
        except ParseError as exc:
            message = re.sub(r" \(at column \d+\)$", "", str(exc))
            raise self.fail(section, key, message, exc.position + 1) from exc
        if _has_huge_constant(e):
            raise self.fail(section, key, "a constant is beyond the float range")
        return e

    def load(self) -> GameSpec:
        cp = self.cp
        if not cp.has_section("agents") or not cp.has_option("agents", "names"):
            raise self.fail("agents", None, "missing [agents] names = ...")
        names = [n.strip() for n in cp.get("agents", "names").split(",")]
        if len(names) < 2:
            raise self.fail("agents", "names", "at least two agents required")
        for n in names:
            if not _IDENT_RE.match(n):
                raise self.fail("agents", "names",
                                f"invalid agent name {excerpt(n)!r}")
            if n == "abs":
                raise self.fail("agents", "names", "'abs' is reserved for the "
                                "absolute value, abs(...)")
        if len(set(names)) != len(names):
            raise self.fail("agents", "names", "duplicate agent names")

        if not cp.has_section("costs"):
            raise self.fail("costs", None, "missing [costs] section")
        costs = []
        for n in names:
            if not cp.has_option("costs", n):
                raise self.fail("costs", n, "missing cost expression")
            costs.append(self.expression("costs", n, names))
        for key in cp.options("costs"):
            if key not in names:
                raise self.fail("costs", key, "not a declared agent")

        if not cp.has_section("operator") or not cp.has_option("operator", "J"):
            raise self.fail("operator", None, "missing [operator] J = ...")
        operator = self.expression("operator", "J", names)

        bounds = [None] * len(names)
        if cp.has_section("bounds"):
            for key in cp.options("bounds"):
                if key not in names:
                    raise self.fail("bounds", key, "not a declared agent")
                bounds[names.index(key)] = self._interval("bounds", key)
        bounds = tuple(b if b is not None else DEFAULT_BOUND for b in bounds)

        game = Game(n=len(names), agent_costs=tuple(costs),
                    operator_cost=operator, bounds=bounds, names=tuple(names))

        scheme, declared_base = self._incentive(names)
        solver = self._solver()
        self._refuse_unknown(names, scheme)
        return GameSpec(game=game, scheme=scheme, declared_base=declared_base,
                        solver=solver)

    def _interval(self, section: str, key: str) -> tuple[Fraction, Fraction]:
        raw = _unquote(self.cp.get(section, key)).strip()
        if not (raw.startswith("[") and raw.endswith("]")):
            raise self.fail(section, key, "expected an interval like [-2, 2]")
        parts = raw[1:-1].split(",")
        if len(parts) != 2:
            raise self.fail(section, key, "expected two comma-separated bounds")
        texts = [part.strip() for part in parts]
        lo, hi = [self._number(section, key, text) for text in texts]
        if not lo < hi:
            raise self.fail(section, key, "empty interval [{}, {}]".format(
                *map(excerpt, texts)))
        return lo, hi

    def _number(self, section: str, key: str, text: str) -> Fraction:
        try:
            e = parse(text, [])
        except ParseError as exc:
            raise self.fail(section, key,
                            f"bad number {excerpt(text)!r}: {exc}") from exc
        p = as_polynomial(e)
        if p is None or not p.is_constant():
            raise self.fail(section, key, f"bad number {excerpt(text)!r}")
        if _has_huge_constant(e):
            raise self.fail(section, key, f"bound {excerpt(text)!r} is "
                            "beyond the float range")
        return p.constant_value()

    def _incentive(self, names: list[str]
                   ) -> tuple[Optional[IncentiveScheme], Optional[Expression]]:
        cp = self.cp
        if not cp.has_section("incentive"):
            return None, None
        if not cp.has_option("incentive", "kind"):
            raise self.fail("incentive", None, "missing kind = ...")
        kind = _unquote(cp.get("incentive", "kind")).lower()
        if kind not in (PROPORTIONAL, VCG, CUSTOM):
            raise self.fail("incentive", "kind",
                            f"unknown kind {excerpt(kind)!r} (expected "
                            "proportional, vcg, or custom)")
        mode = ANTICIPATORY
        if cp.has_option("incentive", "mode"):
            mode = _unquote(cp.get("incentive", "mode")).lower()
            if mode not in (ANTICIPATORY, NON_ANTICIPATORY):
                raise self.fail("incentive", "mode",
                                f"unknown mode {excerpt(mode)!r}")
        expressions = None
        if kind == CUSTOM:
            exprs = []
            for n in names:
                key = f"t.{n}"
                if not cp.has_option("incentive", key):
                    raise self.fail("incentive", key,
                                    "custom scheme needs one t.<agent> per agent")
                exprs.append(self.expression("incentive", key, names))
            expressions = tuple(exprs)
        else:
            for key in cp.options("incentive"):
                if key.startswith("t."):
                    raise self.fail("incentive", key,
                                    f"t.<agent> entries only apply to "
                                    f"kind = custom, not {kind}")
        declared_base = None
        if cp.has_option("incentive", "separable_base"):
            declared_base = self.expression("incentive", "separable_base", names)
        scheme = IncentiveScheme(kind, mode, expressions)
        return scheme, declared_base

    def _refuse_unknown(self, names: list[str],
                        scheme: Optional[IncentiveScheme]) -> None:
        """Refuse a section the format does not have, and a key that
        [agents], [operator] or [incentive] does not read ([costs], [bounds]
        and [solver] refuse theirs where they read them)."""
        custom = scheme is not None and scheme.kind == CUSTOM
        known = {"agents": ("names",), "operator": ("J",),
                 "incentive": ("kind", "mode", "separable_base",
                               *(f"t.{n}" for n in names if custom))}
        for section in self.cp.sections():
            if section not in _SECTIONS:
                line = _line_of(self.text, section)
                where = f" (line {line})" if line is not None else ""
                raise GameFileError(
                    f"{self.path}: [{section}]{where}: unknown section "
                    f"(known sections: {', '.join(_SECTIONS)})")
            for key in self.cp.options(section):
                if key not in known.get(section, (key,)):
                    raise self.fail(section, key, "unknown key (known keys: "
                                    f"{', '.join(known[section])})")

    def _solver(self) -> SolverConfig:
        cfg = SolverConfig()
        if not self.cp.has_section("solver"):
            return cfg
        types = {f.name: type(f.default) for f in fields(SolverConfig)}
        overrides = {}
        for key in self.cp.options("solver"):
            if key not in types:
                raise self.fail("solver", key, "unknown solver option")
            raw = _unquote(self.cp.get("solver", key))
            try:
                overrides[key] = types[key](raw)
            except ValueError as exc:
                raise self.fail("solver", key,
                                f"bad value {excerpt(raw)!r}") from exc
        try:
            return cfg.replace(**overrides)
        except ValueError as exc:
            raise self.fail("solver", None, str(exc)) from exc


def load_game_file(path: str | Path) -> GameSpec:
    """Parse and validate a game file."""
    return _Loader(path).load()
