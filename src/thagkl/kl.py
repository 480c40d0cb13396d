"""Kazhdan-Lusztig polynomials of thagomizer matroids.

The thagomizer matroid of index n is the cycle matroid of K_{2,n} with an
extra edge joining the two degree-n vertices; it has rank n+1.  Its KL
polynomial P_n satisfies

    t^(n+1) * P_n(1/t) = (t-1)^(n+1)
                         + sum_{i=0}^{n} C(n,i) * 2^(n-i) * (t-1)^(n-i) * P_i(t)

and deg P_n <= floor(n/2), which pins P_n uniquely: move the i = n term (which
is P_n itself) to the left and read the coefficients off the reflection.
``KLTable`` builds the remaining right-hand side by Horner's rule in (t - 1),

    acc <- 1;  acc <- acc * (t-1) + C(n,i) * 2^(n-i) * P_i  for i < n;
    rhs = acc * (t-1),

so a row costs one pass over the earlier rows with no powers of (t - 1) and
no general polynomial product.

The same family is the coefficient sequence of u * F(t, u) for the series F of
:func:`thagkl.polynomials.expand_F`; ``verify_theorem`` cross-checks the
recursion, the series expansion, and the Dyck-path dynamic program against
each other.
"""

from __future__ import annotations

import dataclasses
from math import comb
from typing import Sequence

from .dyck import DyckTable
from .polynomials import (
    ONE,
    T,
    IntPoly,
    ZERO,
    _check_index,
    expand_F,
    solve_reflection_equation,
)


def char_poly_boolean(r: int) -> IntPoly:
    """Characteristic polynomial (t-1)^r of a rank-r Boolean matroid."""
    _check_index(r, "rank")
    return (T - ONE) ** r


def char_poly_thag(i: int) -> IntPoly:
    """Characteristic polynomial (t-1)*(t-2)^i of the index-i thagomizer matroid."""
    _check_index(i, "index")
    return (T - ONE) * (T - 2 * ONE) ** i


class KLTable:
    """Bottom-up table of P_0, P_1, ...; entries are immutable IntPoly values."""

    def __init__(self) -> None:
        self._entries: list[IntPoly] = []

    def poly(self, n: int) -> IntPoly:
        _check_index(n, "index")
        while len(self._entries) <= n:
            self._append_next()
        return self._entries[n]

    def entries(self, n: int) -> tuple[IntPoly, ...]:
        """The polynomials P_0 .. P_n."""
        self.poly(n)
        return tuple(self._entries[: n + 1])

    def _append_next(self) -> None:
        n = len(self._entries)
        acc = [1]
        for i, p in enumerate(self._entries):
            weight = comb(n, i) << (n - i)
            acc = _times_t_minus_1(acc)
            for k, c in enumerate(p.coeffs):
                acc[k] += weight * c
        rhs = IntPoly(_times_t_minus_1(acc))
        self._entries.append(solve_reflection_equation(n + 1, rhs))


def _times_t_minus_1(coeffs: list[int]) -> list[int]:
    """Coefficients of (t - 1) * sum_k coeffs[k] t^k."""
    return [hi - lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]


_TABLE = KLTable()


def kl_poly(n: int) -> IntPoly:
    """P_n(t), solved from the defining recursion with shared memoization."""
    return _TABLE.poly(n)


def phi_series(order: int) -> tuple[IntPoly, ...]:
    """The generating function sum_n P_n(t) u^(n+1), truncated at ``order``.

    Equal to u * F(t, u), as the tuple of its ``order + 1`` u-coefficients:
    entry 0 is zero and entry n + 1 is P_n.
    """
    _check_index(order, "truncation order")
    if order == 0:
        return (ZERO,)
    return (ZERO,) + expand_F(order - 1)


@dataclasses.dataclass(frozen=True)
class CoefficientMismatch:
    """One (n, k) cell where the three pipelines disagree."""

    n: int
    k: int
    recursion: int
    series: int
    dyck_dp: int


@dataclasses.dataclass(frozen=True)
class TheoremReport:
    """Outcome of the three-way coefficient comparison up to a given order."""

    order: int
    ok: bool
    mismatches: tuple[CoefficientMismatch, ...]


def verify_theorem(order: int, *, series: Sequence[IntPoly] | None = None) -> TheoremReport:
    """Compare recursion, series, and DP values of every c[n][k] with n < order.

    Disagreements are returned as data, not raised.  ``series`` may be
    supplied explicitly (normally a deliberately corrupted copy, for negative
    controls): a sequence of ``IntPoly`` u-coefficients, like ``phi_series``,
    with at least ``order + 1`` entries.  By default the honest expansion is
    used.  The DP rows all come from one ``DyckTable`` sweep of its own.
    """
    _check_index(order, "order", 1)
    if series is None:
        series = phi_series(order)
    else:
        for entry in series:
            if not isinstance(entry, IntPoly):
                raise TypeError(f"series entries must be IntPolys, got {type(entry).__name__}")
        if len(series) <= order:
            raise ValueError("supplied series is shorter than the requested order")
    dyck = DyckTable(order - 1)
    mismatches: list[CoefficientMismatch] = []
    for n in range(order):
        from_recursion = kl_poly(n)
        from_series = series[n + 1]
        dp_row = dyck.row(n)
        span = max(from_recursion.degree(), from_series.degree(), max(dp_row) if dp_row else 0)
        for k in range(span + 1):
            a = from_recursion[k]
            b = from_series[k]
            c = dp_row.get(k, 0)
            if not (a == b == c):
                mismatches.append(CoefficientMismatch(n, k, a, b, c))
    return TheoremReport(order=order, ok=not mismatches, mismatches=tuple(mismatches))
