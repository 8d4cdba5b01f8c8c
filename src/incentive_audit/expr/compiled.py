"""Float evaluation of expression trees, compiled once per expression.

``vector_fn(e)`` turns a tree into a Python function generated as
straight-line statements (one operation per statement, so long sums and
deep derivative trees stay within the compiler's nesting limits).  It
takes numpy arrays (or floats) that broadcast against each other and
returns, element by element, ``float(evaluate(e, values))``, sign of zero
included, except that a guarded division by, or a zeroth power of, a value
that is not finite is NaN (where a power overflowed, ``evaluate`` raises
and numpy would say 0 or 1).  ``rows`` reads it at every row of an array
of points and evaluates each value that is not finite again.

Bit identity with ``evaluate`` rests on replaying its arithmetic:

- constant-only subtrees, and the leading exact prefix of a sum or
  product, are folded in ``Fraction`` arithmetic and converted to float
  once, where ``evaluate`` would first mix them with a float;
- a product whose exact prefix reaches zero is exactly zero;
- a sum keeps its leading ``c + t`` even when ``c == 0``, because
  ``0 + (-0.0)`` is ``0.0``;
- a guard compares against the largest double not above it, which is
  the exact test ``abs(den) <= guard``;
- integer powers use ``np.float_power``, which rounds like Python's
  ``float ** k``; ``arr ** k`` does not.

Each function is built on first use and kept on the node itself, so it
lives exactly as long as its tree.

Which evaluator does which job follows measured traffic.  A compile
costs far more than one tree walk, so a value read once or twice goes
through ``evaluate``, exact and float inputs alike: the verification of
an equilibrium candidate, the re-check of a non-finite row and the
candidates of a piecewise line minimized alone.  The vector form serves
the expressions read at many points: the Newton plumbing, the grid
tables, the candidate scoring of a batch of piecewise lines (in a seed-3
``nonsmooth`` benchmark pass, 4 compiles and 90 calls, one per batch,
for 2 120 candidates; compiling for the 46 lines minimized alone too
made 44 compiles, 40 of them in the ``abs`` audits at about 3.6 calls
each) and the sampled curvature checks (one call per Hessian entry over
all sample points).
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
    evaluate,
    unbound,
)

VectorFn = Callable[[Sequence[Union["np.ndarray", float]]],
                    Union["np.ndarray", float]]

#: an emitted subtree: an exact constant, or the name of a float local
_Result = Union[Fraction, str]


def vector_fn(e: Expression) -> VectorFn:
    """The compiled numpy evaluator of ``e`` (built once per node)."""
    return cached(e, "vector_fn", _compile, e)


def _compile(e: Expression) -> VectorFn:
    return _Emitter().function(e)


def rows(exprs: Sequence[Expression], x: np.ndarray) -> np.ndarray:
    """``exprs`` at each row of ``x``, one row of values per row of ``x``:
    the vector form's, with each row holding a value that is not finite
    evaluated again by ``evaluate``, in row order, which raises where
    Python's float arithmetic raises (an overflowing power, say)."""
    out = vector_rows(exprs, x)
    for r in np.flatnonzero(~np.isfinite(out).all(axis=1)):
        point = x[r].tolist()
        out[r] = [float(evaluate(e, point)) for e in exprs]
    return out


def vector_rows(exprs: Sequence[Expression], x: np.ndarray) -> np.ndarray:
    """``exprs`` at each row of ``x`` by the compiled vector form alone."""
    columns = list(x.T)
    out = np.empty((len(x), len(exprs)))
    with np.errstate(all="ignore"):
        for j, e in enumerate(exprs):
            out[:, j] = vector_fn(e)(columns)
    return out


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
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.count = 0
        self.variables: set[int] = set()
        # id(node) -> result; the tree outlives the emitter, so ids are stable
        self.memo: dict[int, _Result] = {}

    def function(self, e: Expression) -> VectorFn:
        result = self.emit(e)
        head = []
        if self.variables:
            top = max(self.variables)
            head.append(f"    if len(values) <= {top}: raise _unbound({top})")
            head += [f"    x{k} = values[{k}]" for k in sorted(self.variables)]
        source = "\n".join(["def f(values):", *head, *self.lines,
                            f"    return {self.code(result)}"])
        scope = {"_unbound": unbound, "_pow": np.float_power,
                 "_where": np.where, "_finite": np.isfinite, "_nan": math.nan}
        exec(compile(source, "<compiled expression>", "exec"), scope)
        return scope["f"]

    def assign(self, expr: str) -> str:
        name = f"t{self.count}"
        self.count += 1
        self.lines.append(f"    {name} = {expr}")
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
            if e.exponent == 0:  # 1 only where the base is finite
                return self.assign(f"_where(_finite({r}), 1.0, _nan)")
            return self.assign(f"_pow({r}, {e.exponent})")
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
        num = self.code(self.emit(e.numerator))
        tiny = self.assign(f"abs({den}) <= {bound!r}")
        divisor = self.assign(
            f"_where({tiny}, 1.0, _where(_finite({den}), {den}, _nan))")
        return self.assign(f"_where({tiny}, 0.0, {num} / {divisor})")
