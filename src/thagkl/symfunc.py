"""Symmetric functions in the Schur basis with integer-polynomial coefficients.

A partition is a tuple of weakly decreasing positive integers; a ``SchurPoly``
is a finite expansion sum_lambda c_lambda(t) * s[lambda] in which every index
partition has one common size and every coefficient is a nonzero ``IntPoly``.

The only products ever taken are against a complete homogeneous h_a (one row:
horizontal strips) or an elementary e_b (one column: vertical strips), so the
whole module runs on the two Pieri rules; no general Littlewood-Richardson
machinery is needed.  On top of those sit the two tensor-power characters

    w_j(t) = sum_{a+b=j}   (-1)^b     t^a h_a e_b        (graded dim (t-1)^j)
    v_l(t) = sum_{a+b+c=l} (-1)^(b+c) t^a h_a e_b e_c    (graded dim (t-2)^l)

coming from the series identities w(t,u) = s(tu)/s(u) and v(t,u) =
s(tu)/s(u)^2, where s(u) = sum_m s[m] u^m.  ``SchurPoly.mul_w`` is the one
product with w_j; ``w_poly`` applies it to 1.  A plethysm evaluation of v_l
through the power-sum basis is provided as an independent cross-check.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping, Union

from .polynomials import IntPoly, ONE, ZERO, _as_poly

Partition = tuple[int, ...]


@functools.cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order ([n] first)."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return _partitions_bounded(n, n)


@functools.cache
def _partitions_bounded(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def hook_dim(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation indexed by lam.

    Hook length formula: n! divided by the product of hook lengths; the
    division is checked to be exact.
    """
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            product *= row - j + conj[j] - i - 1
    q, r = divmod(factorial(n), product)
    if r:
        raise ArithmeticError(f"hook product does not divide {n}! for {lam}")
    return q


def horizontal_strips(lam: Partition, size: int) -> Iterator[Partition]:
    """All mu obtained from lam by adding a horizontal strip of ``size`` boxes.

    mu interleaves lam: mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... (at most one
    new box per column, hence at most one new row).
    """
    rows = len(lam)

    def rec(i: int, remaining: int, cap: int, acc: list[int]) -> Iterator[Partition]:
        if i == rows:
            if remaining == 0:
                yield tuple(acc)
            elif remaining <= cap:
                yield tuple(acc + [remaining])
            return
        low = lam[i]
        for value in range(min(cap, low + remaining), low - 1, -1):
            acc.append(value)
            yield from rec(i + 1, remaining - (value - low), lam[i], acc)
            acc.pop()

    first_cap = lam[0] + size if lam else size
    yield from rec(0, size, first_cap, [])


def vertical_strips(lam: Partition, size: int) -> Iterator[Partition]:
    """All mu obtained from lam by adding a vertical strip of ``size`` boxes.

    Each existing row grows by at most one box; new rows are single boxes.
    """
    rows = len(lam)

    def rec(i: int, remaining: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        if i == rows:
            if remaining == 0:
                yield tuple(acc)
            elif prev >= 1:
                yield tuple(acc + [1] * remaining)
            return
        for delta in (1, 0):
            value = lam[i] + delta
            if delta <= remaining and value <= prev:
                acc.append(value)
                yield from rec(i + 1, remaining - delta, value, acc)
                acc.pop()

    yield from rec(0, size, lam[0] + 1 if lam else size, [])


class SchurPoly:
    """Homogeneous Schur expansion with IntPoly coefficients.

    Zero coefficients are never stored.  ``degree`` is the common size of the
    index partitions (carried explicitly so that the zero expansion keeps its
    grading through arithmetic).
    """

    __slots__ = ("_terms", "degree")

    def __init__(
        self,
        terms: Mapping[Partition, Union[IntPoly, int]],
        degree: int | None = None,
    ):
        clean: dict[Partition, IntPoly] = {}
        for lam, coeff in terms.items():
            poly = _as_poly(coeff)
            if poly.is_zero():
                continue
            clean[tuple(lam)] = poly
        sizes = {sum(lam) for lam in clean}
        if len(sizes) > 1:
            raise ValueError(f"mixed partition sizes {sorted(sizes)}")
        if degree is None:
            degree = sizes.pop() if sizes else 0
        elif sizes and sizes.pop() != degree:
            raise ValueError("declared degree disagrees with the terms")
        self._terms = clean
        self.degree = degree

    @classmethod
    def one(cls) -> SchurPoly:
        return cls({(): ONE}, degree=0)

    @classmethod
    def h(cls, a: int) -> SchurPoly:
        """The complete homogeneous h_a = s[a]."""
        if a < 0:
            raise ValueError("negative row length")
        return cls({(a,) if a else (): ONE}, degree=a)

    @classmethod
    def e(cls, b: int) -> SchurPoly:
        """The elementary e_b = s[1^b]."""
        if b < 0:
            raise ValueError("negative column length")
        return cls({(1,) * b: ONE}, degree=b)

    def coefficient(self, lam: Partition) -> IntPoly:
        return self._terms.get(tuple(lam), ZERO)

    def terms(self) -> list[tuple[Partition, IntPoly]]:
        """Terms in canonical order (reverse-lexicographic on partitions)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def partitions(self) -> list[Partition]:
        return [lam for lam, _ in self.terms()]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchurPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: SchurPoly) -> SchurPoly:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        merged = dict(self._terms)
        for lam, coeff in other._terms.items():
            merged[lam] = merged.get(lam, ZERO) + coeff
        return SchurPoly(merged, degree=self.degree)

    def scaled(self, factor: Union[IntPoly, int]) -> SchurPoly:
        factor = _as_poly(factor)
        if factor.is_zero():
            return SchurPoly({}, degree=self.degree)
        return SchurPoly(
            {lam: coeff * factor for lam, coeff in self._terms.items()},
            degree=self.degree,
        )

    def mul_h(self, a: int) -> SchurPoly:
        """Pieri rule: multiply by h_a (add horizontal strips of size a)."""
        if a == 0:
            return self
        out: dict[Partition, IntPoly] = {}
        for lam, coeff in self._terms.items():
            for mu in horizontal_strips(lam, a):
                out[mu] = out.get(mu, ZERO) + coeff
        return SchurPoly(out, degree=self.degree + a)

    def mul_e(self, b: int) -> SchurPoly:
        """Dual Pieri rule: multiply by e_b (add vertical strips of size b)."""
        if b == 0:
            return self
        out: dict[Partition, IntPoly] = {}
        for lam, coeff in self._terms.items():
            for mu in vertical_strips(lam, b):
                out[mu] = out.get(mu, ZERO) + coeff
        return SchurPoly(out, degree=self.degree + b)

    def mul_w(self, j: int) -> SchurPoly:
        """Product with w_j = sum_{a+b=j} (-1)^b t^a h_a e_b, by both Pieri rules."""
        if j < 0:
            raise ValueError("index must be nonnegative")
        total = SchurPoly({}, degree=self.degree + j)
        for a in range(j + 1):
            b = j - a
            total = total + self.mul_h(a).mul_e(b).scaled(_sign_t_power(b, a))
        return total

    def graded_dimension(self) -> IntPoly:
        """Substitute each s[lambda] by its hook-length dimension."""
        total = ZERO
        for lam, coeff in self._terms.items():
            total = total + hook_dim(lam) * coeff
        return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"({coeff})*s{list(lam)}" for lam, coeff in self.terms()
        )

    def __repr__(self) -> str:
        return f"SchurPoly({dict(self.terms())!r})"


def _sign_t_power(sign_exponent: int, t_exponent: int) -> IntPoly:
    """(-1)^sign_exponent * t^t_exponent as an IntPoly."""
    coeff = -1 if sign_exponent % 2 else 1
    return IntPoly((0,) * t_exponent + (coeff,))


@functools.cache
def w_poly(j: int) -> SchurPoly:
    """Character of the j-fold tensor power of the virtual line with dimension t-1.

    Coefficient of u^j in s(tu)/s(u), i.e. sum_{a+b=j} (-1)^b t^a h_a e_b.
    """
    return SchurPoly.one().mul_w(j)


@functools.cache
def v_poly(ell: int) -> SchurPoly:
    """Character of the ell-fold tensor power of the virtual line with dimension t-2.

    Coefficient of u^ell in s(tu)/s(u)^2:
    sum_{a+b+c=ell} (-1)^(b+c) t^a h_a e_b e_c.
    """
    if ell < 0:
        raise ValueError("index must be nonnegative")
    total = SchurPoly({}, degree=ell)
    for a in range(ell + 1):
        for b in range(ell - a + 1):
            c = ell - a - b
            term = SchurPoly.h(a).mul_e(b).mul_e(c)
            total = total + term.scaled(_sign_t_power(b + c, a))
    return total


def cycle_type_order(mu: Partition) -> int:
    """Size of the centralizer of a permutation of cycle type mu (z_mu)."""
    z = 1
    multiplicity: dict[int, int] = {}
    for part in mu:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    for part, count in multiplicity.items():
        z *= part**count * factorial(count)
    return z


@functools.cache
def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible S_n character chi^lam on cycle type mu (border-strip rule).

    Implemented on beta-sets: removing a border strip of size r from lam is
    removing r from one first-column hook length, with sign given by the
    number of hook lengths jumped over.
    """
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not lam:
        return 1
    r, rest = mu[0], mu[1:]
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    present = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in present:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            part
            for j, x in enumerate(new_beta)
            if (part := x - (rows - 1 - j)) > 0
        )
        total += (-1) ** height * character_value(new_lam, rest)
    return total


def v_poly_via_plethysm(ell: int) -> SchurPoly:
    """Independent route to v_poly: the plethysm h_ell[(t-2) s[1]].

    Expanded through power sums with exact rational arithmetic:
    p_k[(t-2)s[1]] = (t^k - 2) p_k, h_ell = sum_mu p_mu / z_mu, and
    p_mu = sum_lam chi^lam(mu) s[lam].  The Schur coefficients must come out
    integral; a fractional coefficient is reported as a fault.
    """
    if ell < 0:
        raise ValueError("index must be nonnegative")
    acc: dict[Partition, list[Fraction]] = {}
    for mu in partitions_of(ell):
        weight = ONE
        for part in mu:
            weight = weight * (IntPoly((0,) * part + (1,)) - 2 * ONE)
        z = cycle_type_order(mu)
        for lam in partitions_of(ell):
            chi = character_value(lam, mu)
            if not chi:
                continue
            vec = acc.setdefault(lam, [Fraction(0)] * (ell + 1))
            for k in range(weight.degree() + 1):
                vec[k] += Fraction(chi * weight[k], z)
    terms: dict[Partition, IntPoly] = {}
    for lam, vec in acc.items():
        ints = []
        for value in vec:
            if value.denominator != 1:
                raise ArithmeticError(
                    f"plethysm produced a fractional coefficient {value} at {lam}"
                )
            ints.append(value.numerator)
        terms[lam] = IntPoly(ints)
    return SchurPoly(terms, degree=ell)
