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

on packed integers: every entry is also kept as its value at t = X = 2^slot
(``polynomials._pack``), so a Horner step is one big-int step,
``acc = (acc << slot) - acc + C(n,i) * packed_i << (n - i)``, and the row
makes one ``_unpack`` of ``(acc << slot) - acc``.  The packed arithmetic is
exact at any slot; only that read needs every coefficient of rhs inside the
signed range of a slot.  Since ||(t-1) f||_1 <= 2 ||f||_1, the same Horner
pass over the 1-norms of the entries, doubled at each (t - 1), bounds every
coefficient of rhs.  When that bound outgrows the table's slot, the slot
grows to ``polynomials._slot_bits`` of a quarter more than the bits the
bound needs, whole bytes, so every growth multiplies the slot by more than
5/4, and the stored entries are repacked; a row whose bound still does not
fit raises ``ArithmeticError``.  ``solve_reflection_equation`` still checks
every right-hand side it is given.

The same family is the coefficient sequence of u * F(t, u) for the series F of
:func:`thagkl.polynomials.expand_F`; ``verify_theorem`` cross-checks the
recursion, the series expansion, and the Dyck-path dynamic program against
each other.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .dyck import DyckTable
from .polynomials import (
    ONE,
    T,
    IntPoly,
    ZERO,
    _check_index,
    _pack,
    _slot_bits,
    _unpack,
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
    """Bottom-up table of P_0, P_1, ...; entries are immutable IntPoly values.

    Next to each entry it keeps the entry packed at the table's slot and its
    1-norm; ``_binomials`` is row n of Pascal's triangle for the next n.
    """

    def __init__(self) -> None:
        self._entries: list[IntPoly] = []
        self._packed: list[int] = []
        self._norms: list[int] = []
        self._binomials = [1]
        self._slot = 64

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
        binomials = self._binomials
        bound = 1
        for i, norm in enumerate(self._norms):
            bound = 2 * bound + (binomials[i] * norm << (n - i))
        bound *= 2
        bits = bound.bit_length() + 1
        if bits > self._slot:
            self._slot = _slot_bits(bits * 5 // 4)
            self._packed = [_pack(p.coeffs, self._slot) for p in self._entries]
        slot = self._slot
        if bound >> (slot - 1):
            raise ArithmeticError(
                f"coefficients of row {n} up to {bound} may overflow a {slot}-bit slot"
            )
        acc = 1
        for i, packed in enumerate(self._packed):
            acc = (acc << slot) - acc + (binomials[i] * packed << (n - i))
        rhs = IntPoly(_unpack((acc << slot) - acc, slot))
        p = solve_reflection_equation(n + 1, rhs)
        self._entries.append(p)
        self._packed.append(_pack(p.coeffs, slot))
        self._norms.append(sum(map(abs, p.coeffs)))
        self._binomials = [1] + [a + b for a, b in zip(binomials, binomials[1:])] + [1]


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
