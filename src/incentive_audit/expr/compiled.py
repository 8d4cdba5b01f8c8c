"""Float evaluation of expression trees, compiled once per expression.

``scalar_fn(e)`` and ``vector_fn(e)`` turn a tree into Python functions
generated as straight-line statements (one operation per statement, so
long sums and deep derivative trees stay within the compiler's nesting
limits; only a guarded division inside a numerator indents, one level):

- the scalar function takes a sequence of floats and returns exactly
  ``float(evaluate(e, values))``, sign of zero included;
- the vector function takes numpy arrays (or floats) that broadcast
  against each other and returns, element by element, the same values.

Bit identity with ``evaluate`` rests on replaying its arithmetic:

- constant-only subtrees, and the leading exact prefix of a sum or
  product, are folded in ``Fraction`` arithmetic and converted to float
  once, where ``evaluate`` would first mix them with a float;
- a product whose exact prefix reaches zero is exactly zero;
- a sum keeps its leading ``c + t`` even when ``c == 0``, because
  ``0 + (-0.0)`` is ``0.0``;
- a guard compares against the largest double not above it, which is
  the exact test ``abs(den) <= guard``;
- the vector form raises to integer powers with ``np.float_power``,
  which rounds like Python's ``float ** k``; ``arr ** k`` does not.

Each function is built on first use and kept on the node itself, so it
lives exactly as long as its tree.

Which evaluator does which job follows measured traffic.  A compile
costs far more than one tree walk, so a value read once or twice goes
through ``evaluate``, exact and float inputs alike: the verification of
an equilibrium candidate, the re-check of a non-finite Newton row and
the candidates of a piecewise line minimized alone.  A compiled form is
built only by a loop that calls it many times: the vector form by the
Newton plumbing and the grid tables, the scalar form by the candidate
scoring of a batch of piecewise lines (4 compiles for 2 120 calls in a
seed-3 ``nonsmooth`` benchmark pass, whose 46 lines minimized alone walk
161 candidates; compiling for those too made 44 compiles, 40 of them in
the ``abs`` audits at about 3.6 calls each) and by the sampled curvature
checks (20 compiles for 1 620 calls in a ``smooth`` pass).  Verification
with a scalar form per cost would make 165 compiles for 317 calls in
that ``smooth`` pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

from .._lazy import np
from .nodes import (
    Abs,
    Const,
    Expression,
    Neg,
    Power,
    Product,
    SafeDiv,
    Sum,
    Var,
    cached,
    unbound,
)

ScalarFn = Callable[[Sequence[float]], float]
VectorFn = Callable[[Sequence[Union["np.ndarray", float]]],
                    Union["np.ndarray", float]]

#: an emitted subtree: an exact constant, or the name of a float local
_Result = Union[Fraction, str]


def scalar_fn(e: Expression) -> ScalarFn:
    """The compiled scalar evaluator of ``e`` (built once per node)."""
    return cached(e, "scalar_fn", _compile, e, False)


def vector_fn(e: Expression) -> VectorFn:
    """The compiled numpy evaluator of ``e`` (built once per node)."""
    return cached(e, "vector_fn", _compile, e, True)


def _compile(e: Expression, vector: bool) -> Callable:
    return _Emitter(vector).function(e)


def _literal(value: Fraction) -> str:
    return f"({float(value)!r})"


def _guard_bound(guard: Fraction) -> float:
    """Largest double ``g`` with ``g <= guard``: for every double ``d``,
    ``d <= g`` exactly when ``d <= guard``."""
    g = float(guard)
    if Fraction(g) > guard:
        g = math.nextafter(g, -math.inf)
    return g


class _Emitter:
    def __init__(self, vector: bool) -> None:
        self.vector = vector
        self.lines: list[str] = []
        self.indent = 1
        self.count = 0
        self.variables: set[int] = set()
        # id(node) -> result; the tree outlives the emitter, so ids are stable
        self.memo: dict[int, _Result] = {}

    def function(self, e: Expression) -> Callable:
        result = self.emit(e)
        body = self.lines
        head = []
        if self.variables:
            top = max(self.variables)
            head.append(f"    if len(values) <= {top}: raise _unbound({top})")
            head += [f"    x{k} = values[{k}]" for k in sorted(self.variables)]
        if isinstance(result, Fraction):
            ret = _literal(result)
        else:
            ret = result if self.vector else f"float({result})"
        source = "\n".join(["def f(values):", *head, *body,
                            f"    return {ret}"])
        scope = {"_unbound": unbound, "_pow": np.float_power,
                 "_where": np.where}
        exec(compile(source, "<compiled expression>", "exec"), scope)
        return scope["f"]

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def assign(self, expr: str) -> str:
        name = f"t{self.count}"
        self.count += 1
        self.line(f"{name} = {expr}")
        return name

    def code(self, r: _Result) -> str:
        return _literal(r) if isinstance(r, Fraction) else r

    def emit(self, e: Expression) -> _Result:
        key = id(e)
        r = self.memo.get(key)
        if r is None:
            r = self._emit(e)
            self.memo[key] = r
        return r

    def _emit(self, e: Expression) -> _Result:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            self.variables.add(e.index)
            return f"x{e.index}"
        if isinstance(e, Sum):
            acc, name = Fraction(0), None
            for t in e.terms:
                r = self.emit(t)
                if name is None and isinstance(r, Fraction):
                    acc += r
                elif name is None:
                    name = self.assign(f"{_literal(acc)} + {r}")
                else:
                    name = self.assign(f"{name} + {self.code(r)}")
            return acc if name is None else name
        if isinstance(e, Product):
            acc, name = Fraction(1), None
            for f in e.factors:
                r = self.emit(f)
                if name is None and isinstance(r, Fraction):
                    acc *= r
                    if acc == 0:
                        return acc
                elif name is None:
                    # 1 * x is x bit for bit, so a unit prefix is dropped
                    name = r if acc == 1 else self.assign(
                        f"{_literal(acc)} * {r}")
                else:
                    name = self.assign(f"{name} * {self.code(r)}")
            return acc if name is None else name
        if isinstance(e, Power):
            r = self.emit(e.base)
            if isinstance(r, Fraction):
                return r ** e.exponent
            if self.vector:
                return self.assign(f"_pow({r}, {e.exponent})")
            return self.assign(f"{r} ** {e.exponent}")
        if isinstance(e, Neg):
            r = self.emit(e.operand)
            return -r if isinstance(r, Fraction) else self.assign(f"-{r}")
        if isinstance(e, Abs):
            r = self.emit(e.operand)
            return abs(r) if isinstance(r, Fraction) else self.assign(f"abs({r})")
        if isinstance(e, SafeDiv):
            return self._safediv(e)
        raise TypeError(f"unknown expression node {type(e).__name__}")

    def _safediv(self, e: SafeDiv) -> _Result:
        den = self.emit(e.denominator)
        if isinstance(den, Fraction):
            if abs(den) <= e.guard:
                return Fraction(0)
            num = self.emit(e.numerator)
            if isinstance(num, Fraction):
                return num / den
            return self.assign(f"{num} / {_literal(den)}")
        bound = _guard_bound(e.guard)
        if self.vector:
            num = self.code(self.emit(e.numerator))
            tiny = self.assign(f"abs({den}) <= {bound!r}")
            return self.assign(
                f"_where({tiny}, 0.0, {num} / _where({tiny}, 1.0, {den}))")
        # the numerator runs only when the guard is off, as in evaluate;
        # names bound inside the branch are not visible after it
        out = f"t{self.count}"
        self.count += 1
        self.line(f"if abs({den}) <= {bound!r}:")
        self.line(f"    {out} = 0.0")
        self.line("else:")
        self.indent += 1
        outer = dict(self.memo)
        num = self.code(self.emit(e.numerator))
        self.line(f"{out} = {num} / {den}")
        self.memo = outer
        self.indent -= 1
        return out
