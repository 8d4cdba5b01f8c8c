"""Declarative game files: INI-style sections describing a scenario.

Format (UTF-8 text, a byte-order mark allowed; expressions may be
double-quoted; any other section or key, `[DEFAULT]` included, is refused):

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

Lines (:func:`_read`, the INI subset of Python's standard reader with
inline `#` comments, no interpolation and no default section):

- a line whose first non-blank character is `#` or `;` is a comment, and
  so is the rest of any line from a `#` at its start or after whitespace;
- `[name]` opens a section (text after the last `]` is ignored);
- `key = value` or `key: value` sets a key, split at the first `=` or
  `:`, both sides stripped;
- a line indented deeper than its key's line continues the value, joined
  by a newline; a blank line inside a value is kept, trailing ones are not;
- a section or a key given twice, a key before the first section, and any
  other line are refused with their line.
"""

from __future__ import annotations

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


#: a bound written as a short plain decimal is its Fraction: Fraction reads
#: it as the parser does, and it is far inside the float range
_PLAIN_DECIMAL = re.compile(r"-?[0-9]{1,16}(?:\.[0-9]{1,16})?")

#: a key line is split at its first `=` or `:`
_DELIMITER = re.compile("[=:]")

def _decode(data: bytes, path: str) -> str:
    """``data`` as UTF-8 text, a byte-order mark dropped, with line ends as
    text mode reads them."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bad byte is neither \r nor \n, so it ends the last line
        line = len(exc.object[:exc.start + 1].splitlines())
        raise GameFileError(
            f"{path}: line {line}: byte {exc.object[exc.start]:#04x} is not "
            "UTF-8") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _uncommented(line: str) -> str:
    """``line`` up to its first `#` at the start or after whitespace."""
    at = line.find("#")
    while at > 0 and not line[at - 1].isspace():
        at = line.find("#", at + 1)
    return line if at < 0 else line[:at]


def _read(text: str, path: str
          ) -> tuple[dict[str, dict[str, str]], dict[tuple, int]]:
    """The sections of ``text`` (section -> key -> value), and the line of
    each header, under (section, None), and of each key, under (section,
    key)."""
    sections: dict[str, dict[str, list[str]]] = {}
    lines: dict[tuple, int] = {}
    values: Optional[dict[str, list[str]]] = None
    section = key = None
    indent = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            if key is not None:
                values[key].append("")
            continue
        if stripped[0] in "#;":
            continue
        content = _uncommented(line).strip()
        level = len(line) - len(line.lstrip())
        if key is not None and level > indent:
            values[key].append(content)
            continue
        indent = level
        end = content.rfind("]")
        if content[0] == "[" and end > 1:
            section, key = content[1:end], None
            if section in sections:
                raise GameFileError(
                    f"{path}: [{excerpt(section)}] (line {lineno}): duplicate "
                    f"section (first at line {lines[section, None]})")
            values = sections[section] = {}
            lines[section, None] = lineno
            continue
        if values is None:
            raise GameFileError(f"{path}: line {lineno}: "
                                f"{excerpt(content)!r} is before any [section]")
        delimiter = _DELIMITER.search(content)
        key = content[:delimiter.start()].rstrip() if delimiter else ""
        if not key:
            raise GameFileError(f"{path}: line {lineno}: not a [section] or "
                                f"key = value line: {excerpt(content)!r}")
        if key in values:
            raise GameFileError(
                f"{path}: [{excerpt(section)}] {excerpt(key)} (line "
                f"{lineno}): duplicate key (first at line "
                f"{lines[section, key]})")
        values[key] = [content[delimiter.end():].strip()]
        lines[section, key] = lineno
    return ({name: {k: "\n".join(v).rstrip() for k, v in keys.items()}
             for name, keys in sections.items()}, lines)


class _Loader:
    def __init__(self, path: str | Path):
        self.path = str(path)
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise GameFileError(f"{path}: {exc}") from exc
        self.sections, self.lines = _read(_decode(data, self.path), self.path)

    def fail(self, section: str, key: Optional[str], message: str,
             column: Optional[int] = None) -> GameFileError:
        where = f"{self.path}: [{excerpt(section)}]"
        if key is not None:
            where += f" {excerpt(key)}"
            line = self.lines.get((section, key))
            if line is not None:
                where += f" (line {line}"
                where += f", column {column})" if column is not None else ")"
        return GameFileError(f"{where}: {message}")

    def expression(self, section: str, key: str, names: list[str]) -> Expression:
        raw = _unquote(self.sections[section][key])
        try:
            e = parse(raw, names)
        except ParseError as exc:
            message = re.sub(r" \(at column \d+\)$", "", str(exc))
            raise self.fail(section, key, message, exc.position + 1) from exc
        if _has_huge_constant(e):
            raise self.fail(section, key, "a constant is beyond the float range")
        return e

    def load(self) -> GameSpec:
        if "names" not in self.sections.get("agents", {}):
            raise self.fail("agents", None, "missing [agents] names = ...")
        names = [n.strip()
                 for n in self.sections["agents"]["names"].split(",")]
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

        if "costs" not in self.sections:
            raise self.fail("costs", None, "missing [costs] section")
        costs = []
        for n in names:
            if n not in self.sections["costs"]:
                raise self.fail("costs", n, "missing cost expression")
            costs.append(self.expression("costs", n, names))
        for key in self.sections["costs"]:
            if key not in names:
                raise self.fail("costs", key, "not a declared agent")

        if "J" not in self.sections.get("operator", {}):
            raise self.fail("operator", None, "missing [operator] J = ...")
        operator = self.expression("operator", "J", names)

        bounds = [None] * len(names)
        for key in self.sections.get("bounds", {}):
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
        raw = _unquote(self.sections[section][key]).strip()
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
        if _PLAIN_DECIMAL.fullmatch(text):
            return Fraction(text)
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
        if "incentive" not in self.sections:
            return None, None
        entries = self.sections["incentive"]
        if "kind" not in entries:
            raise self.fail("incentive", None, "missing kind = ...")
        kind = _unquote(entries["kind"]).lower()
        if kind not in (PROPORTIONAL, VCG, CUSTOM):
            raise self.fail("incentive", "kind",
                            f"unknown kind {excerpt(kind)!r} (expected "
                            "proportional, vcg, or custom)")
        mode = ANTICIPATORY
        if "mode" in entries:
            mode = _unquote(entries["mode"]).lower()
            if mode not in (ANTICIPATORY, NON_ANTICIPATORY):
                raise self.fail("incentive", "mode",
                                f"unknown mode {excerpt(mode)!r}")
        expressions = None
        if kind == CUSTOM:
            exprs = []
            for n in names:
                key = f"t.{n}"
                if key not in entries:
                    raise self.fail("incentive", key,
                                    "custom scheme needs one t.<agent> per agent")
                exprs.append(self.expression("incentive", key, names))
            expressions = tuple(exprs)
        else:
            for key in entries:
                if key.startswith("t."):
                    raise self.fail("incentive", key,
                                    f"t.<agent> entries only apply to "
                                    f"kind = custom, not {kind}")
        declared_base = None
        if "separable_base" in entries:
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
        for section, entries in self.sections.items():
            if section not in _SECTIONS:
                raise GameFileError(
                    f"{self.path}: [{excerpt(section)}] (line "
                    f"{self.lines[section, None]}): unknown section "
                    f"(known sections: {', '.join(_SECTIONS)})")
            for key in entries:
                if key not in known.get(section, (key,)):
                    raise self.fail(section, key, "unknown key (known keys: "
                                    f"{', '.join(known[section])})")

    def _solver(self) -> SolverConfig:
        cfg = SolverConfig()
        if "solver" not in self.sections:
            return cfg
        types = {f.name: type(f.default) for f in fields(SolverConfig)}
        overrides = {}
        for key, value in self.sections["solver"].items():
            if key not in types:
                raise self.fail("solver", key, "unknown solver option")
            raw = _unquote(value)
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
