"""Symmetric functions in the Schur basis with integer-polynomial coefficients.

A partition is a tuple of weakly decreasing positive integers; a ``SchurPoly``
is a finite expansion sum_lambda c_lambda(t) * s[lambda] in which every index
partition has one common size and every coefficient is a nonzero ``IntPoly``.

The products with the tensor-power character

    w_j(t) = sum_{a+b=j}   (-1)^b     t^a h_a e_b        (graded dim (t-1)^j)

need no general Littlewood-Richardson machinery.  w_j = h_j[(t-1)X] comes
from the series identity w(t,u) = s(tu)/s(u), where s(u) = sum_m s[m] u^m.
``_ribbon_sums`` implements products with w_j on Schur terms: it takes
(lam, j, coefficient tuple) triples, packs each polynomial into one int,
its value at t = 2^slot (the codec of ``polynomials``), and returns the
coefficient digits of each mu.  ``sum_mul_w`` is its ``SchurPoly`` face and
its only caller, summing f * w_j over a list of (f, j) pairs in one pass
(``SchurPoly.mul_w`` is its one-pair case, and ``w_poly`` applies that to
1).  It works by the broken-ribbon rule: the coefficient of s[mu] in s[lam]
* w_j is the skew Schur function s_{mu/lam} at the alphabet t - 1, which
factors over the ribbons of mu/lam (Macdonald, Symmetric Functions and Hall
Polynomials, Ch. I): it is (-1)^(r-c) t^(j-r) (t-1)^c when mu/lam has no
2x2 square, with r rows and c edge-connected components, and 0 otherwise.
``broken_ribbons`` walks these shapes on an explicit stack, once per (lam,
j), and the kernel sums them into one int per mu, in slots proven wide
enough by ``_ribbon_slot``.  The equivariant solver multiplies by w_j
through h_a alone (see ``thagkl.equivariant``), so it does not use this
kernel.

The Pieri products with h_a and e_b add horizontal strips, walked on their
own by ``horizontal_strips``, and vertical strips (one new box per row), a
filter on the ribbon walk (r = size).  The second character

    v_l(t) = sum_{a+b+c=l} (-1)^(b+c) t^a h_a e_b e_c    (graded dim (t-2)^l)

comes from v(t,u) = s(tu)/s(u)^2 = w(t,u)/s(u) and 1/s(u) = sum_m (-1)^m
e_m u^m, so v_l = sum_m (-1)^m e_m w_{l-m} is one ``sum_mul_w`` call.  A
plethysm evaluation of v_l through the power-sum basis, in integers, is
provided as an independent cross-check; its characters chi^lam(mu) come
from the Murnaghan-Nakayama rule on bead masks (``character_value``).

Every partition argument and every ``SchurPoly`` index is checked to be one.
"""

from __future__ import annotations

import functools
import operator
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .polynomials import IntPoly, ONE, ZERO, _as_poly, _check_index, _pack, _unpack

Partition = tuple[int, ...]


@functools.lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order ([n] first)."""
    _check_index(n, "size")
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


def _as_partition(lam: Iterable[int]) -> Partition:
    """lam as a tuple, checked to be a partition: positive ints, weakly decreasing."""
    lam = tuple(lam)
    for part in lam:
        _check_index(part, "partition part", 1)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"{lam} is not weakly decreasing")
    return lam


@functools.lru_cache(maxsize=None, typed=True)
def _checked_partition(*parts: int) -> Partition:
    """``_as_partition`` memoised on the parts' values and types: a bool never hits its int."""
    return _as_partition(parts)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def hook_dim(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation indexed by lam.

    Hook length formula: n! divided by the product of hook lengths; the
    division is checked to be exact.
    """
    return _hook_dim(_checked_partition(*lam))


@functools.cache
def _hook_dim(lam: Partition) -> int:
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

    A horizontal strip has at most one new box per column, so mu interlaces
    lam: lam_i <= mu_i <= lam_(i-1) for every row i >= 1, one new row
    included.  The walk fills those rows from the bottom up on an explicit
    stack, and row 0 takes whatever is left, so every branch ends in a strip.
    A negative size has no strips.  The equivariant solver's rows are mostly
    this walk, and a filter on ``broken_ribbons`` would visit every broken
    ribbon to find the strips.
    """
    lam = _checked_partition(*lam)
    size = operator.index(size)
    if size <= 0 or not lam:
        if size >= 0:
            yield (size,) if size else lam
        return
    first = lam[0]
    # (row i to fill next, rows of mu below it, boxes left > 0); the new row
    # below lam takes x boxes
    stack = []
    for x in range((lam[-1] if lam[-1] < size else size) + 1):
        tail = (x,) if x else ()
        if x < size:
            stack.append((len(lam) - 1, tail, size - x))
        else:
            yield lam + tail
    while stack:
        i, tail, remaining = stack.pop()
        if not i:
            yield (first + remaining,) + tail
            continue
        low = lam[i]
        top = lam[i - 1] - low
        if top > remaining:
            top = remaining
        if i == 1:
            # row 0 takes the rest, so rows 0 and 1 are yielded, not pushed
            head = first + remaining
            for x in range(top + 1):
                yield (head - x, low + x) + tail
            continue
        for x in range(top + 1):
            if x < remaining:
                stack.append((i - 1, (low + x,) + tail, remaining - x))
            else:
                yield lam[:i] + (low + x,) + tail


def vertical_strips(lam: Partition, size: int) -> Iterator[Partition]:
    """All mu obtained from lam by adding a vertical strip of ``size`` boxes.

    These are the broken ribbons whose ``size`` boxes sit in ``size`` rows
    (r = size), at most one new box per row.
    """
    return (mu for mu, rows, _ in broken_ribbons(lam, size) if rows == size)


def broken_ribbons(lam: Partition, size: int) -> Iterator[tuple[Partition, int, int]]:
    """All (mu, r, c) with mu/lam a skew shape of ``size`` boxes and no 2x2 square.

    No 2x2 square means mu_{i+1} <= lam_i + 1 for every i, so mu/lam is a
    disjoint union of ribbons (a broken ribbon).  r counts the rows that gain
    boxes and c the edge-connected components.  Rows i and i+1 of such a
    shape share an edge exactly when mu_{i+1} = lam_i + 1, so c is r minus
    the number of those joins.  Below the last row of lam the shape is one
    row of x boxes followed by a column of single boxes, all joined.

    The walk keeps an explicit stack of partial shapes, one row at a time.
    Row i may reach lam_{i-1} + 1 after a row that grew and lam_{i-1} after
    one that did not, so that flag is all a state keeps of its last row.
    """
    lam = _checked_partition(*lam)
    rows = len(lam)
    # above[i] is lam_{i-1}; above[0] is too large to cap or join anything
    above = (lam[0] + size if lam else size,) + lam
    # (next row, mu so far, boxes left, rows gained, joins, last row grew)
    stack = [(0, (), size, 0, 0, 1)]
    while stack:
        i, head, remaining, gained, joins, grew = stack.pop()
        if remaining == 0:
            yield head + lam[i:], gained, gained - joins
            continue
        link = above[i] + 1
        cap = above[i] + grew
        if i == rows:
            for x in range(cap if cap < remaining else remaining, 0, -1):
                column = remaining - x
                r = gained + 1 + column
                yield head + (x,) + (1,) * column, r, r - joins - column - (x == link)
            continue
        low = lam[i]
        i += 1
        stack.append((i, head + (low,), remaining, gained, joins, 0))
        limit = low + remaining
        gained += 1
        for value in range(low + 1, (cap if cap < limit else limit) + 1):
            stack.append((i, head + (value,), limit - value, gained, joins + (value == link), 1))


class SchurPoly:
    """Homogeneous Schur expansion with IntPoly coefficients.

    Zero coefficients are never stored.  ``degree`` is the common size of the
    index partitions (carried explicitly so that the zero expansion keeps its
    grading through arithmetic).  Every index must be a partition, zero
    coefficient or not: a part that is not an int raises ``TypeError``, and a
    part below 1 or an increase ``ValueError``.  A declared ``degree`` must
    be a nonnegative int, by the package's index check.
    """

    __slots__ = ("_terms", "degree")

    def __init__(
        self,
        terms: Mapping[Partition, Union[IntPoly, int]],
        degree: int | None = None,
    ):
        clean: dict[Partition, IntPoly] = {}
        for lam, coeff in terms.items():
            lam = _as_partition(lam)
            poly = _as_poly(coeff)
            if not poly.is_zero():
                clean[lam] = poly
        sizes = {sum(lam) for lam in clean}
        if len(sizes) > 1:
            raise ValueError(f"mixed partition sizes {sorted(sizes)}")
        if degree is None:
            degree = sizes.pop() if sizes else 0
        else:
            _check_index(degree, "degree")
            if sizes and sizes.pop() != degree:
                raise ValueError("declared degree disagrees with the terms")
        self._terms = clean
        self.degree = degree

    @classmethod
    def one(cls) -> SchurPoly:
        return cls({(): ONE}, degree=0)

    @classmethod
    def h(cls, a: int) -> SchurPoly:
        """The complete homogeneous h_a = s[a]."""
        _check_index(a, "row length")
        return cls({(a,) if a else (): ONE}, degree=a)

    @classmethod
    def e(cls, b: int) -> SchurPoly:
        """The elementary e_b = s[1^b]."""
        _check_index(b, "column length")
        return cls({(1,) * b: ONE}, degree=b)

    def coefficient(self, lam: Partition) -> IntPoly:
        """The coefficient of s[lam], zero if absent; lam must be a partition."""
        return self._terms.get(_checked_partition(*lam), ZERO)

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
        if not isinstance(other, SchurPoly):
            return NotImplemented
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
        return self._add_strips(horizontal_strips, a, "row length")

    def mul_e(self, b: int) -> SchurPoly:
        """Dual Pieri rule: multiply by e_b (add vertical strips of size b)."""
        return self._add_strips(vertical_strips, b, "column length")

    def _add_strips(self, strips: Callable, size: int, what: str) -> SchurPoly:
        _check_index(size, what)
        if size == 0:
            return self
        out: dict[Partition, IntPoly] = {}
        for lam, coeff in self._terms.items():
            for mu in strips(lam, size):
                out[mu] = out.get(mu, ZERO) + coeff
        return SchurPoly(out, degree=self.degree + size)

    def mul_w(self, j: int) -> SchurPoly:
        """Product with w_j = h_j[(t-1)X]: the one-pair case of ``sum_mul_w``."""
        return sum_mul_w([(self, j)], self.degree + j)

    def graded_dimension(self) -> IntPoly:
        """Substitute each s[lambda] by its hook-length dimension."""
        total = ZERO
        for lam, coeff in self._terms.items():
            total = total + _hook_dim(lam) * coeff
        return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"({coeff})*s{list(lam)}" for lam, coeff in self.terms()
        )

    def __repr__(self) -> str:
        return f"SchurPoly({dict(self.terms())!r})"


def sum_mul_w(pairs: Iterable[tuple[SchurPoly, int]], degree: int) -> SchurPoly:
    """The sum of f * w_j over the (f, j) pairs, each f of degree ``degree - j``.

    One ``_ribbon_sums`` call on the coefficient tuples of every term.
    """
    inputs = []
    for f, j in pairs:
        if not isinstance(f, SchurPoly):
            raise TypeError(f"expected a SchurPoly, got {type(f).__name__}")
        _check_index(j, "index")
        if f.degree + j != degree:
            raise ValueError(f"degree mismatch: {f.degree} + {j} != {degree}")
        inputs.extend((lam, j, coeff.coeffs) for lam, coeff in f._terms.items())
    return SchurPoly(
        {mu: IntPoly(digits) for mu, digits in _ribbon_sums(inputs).items()}, degree=degree
    )


def _ribbon_slot(norms: Iterable[tuple[int, int]]) -> int:
    """Bits per power of t that hold every digit of ``_ribbon_sums``.

    ``norms`` lists (1-norm, j) for the inputs: the 1-norm of a polynomial
    that is multiplied by the ribbon weights of (lam, j).  mu/lam fixes the
    ribbon, so each (lam, j) meets a given mu at most once, with the weight
    +-t^e (t-1)^c, c <= j, whose largest coefficient is C(c, c//2) <=
    C(j, j//2).  So every output coefficient is at most the bound
    sum 1-norm * C(j, j//2) in absolute value, and a slot of
    ``bound.bit_length() + 1`` bits holds it as a signed digit.
    """
    bound = sum(norm * comb(j, j // 2) for norm, j in norms)
    return bound.bit_length() + 1


def _ribbon_sums(inputs: Sequence[tuple[Partition, int, Sequence[int]]]
                 ) -> dict[Partition, list[int]]:
    """The row kernel: sum over (lam, j, coeffs) of coeffs(t) * s[lam] * w_j.

    Each coefficient tuple is packed at t = 2^slot (``polynomials._pack``),
    the slot being ``_ribbon_slot`` of the inputs' 1-norms, and the inputs
    of one (lam, j) are summed there.  By the broken-ribbon rule s[lam] *
    w_j is the sum of (-1)^(r-c) t^(j-r) (t-1)^c s[mu] over
    ``broken_ribbons(lam, j)``, so each (lam, j) is walked once and its sum
    multiplied by one weight int per ribbon, cached by (j - r, c, sign).
    Returns each mu's sum unpacked once into signed coefficient digits.
    """
    slot = _ribbon_slot((sum(map(abs, coeffs)), j) for _, j, coeffs in inputs)
    packed: dict[tuple[Partition, int], int] = {}
    for lam, j, coeffs in inputs:
        packed[lam, j] = packed.get((lam, j), 0) + _pack(coeffs, slot)
    t_minus_one = (1 << slot) - 1
    weights: dict[tuple[int, int, int], int] = {}
    acc: dict[Partition, int] = {}
    for (lam, j), value in packed.items():
        for mu, rows, components in broken_ribbons(lam, j):
            key = (j - rows, components, (rows - components) & 1)
            weight = weights.get(key)
            if weight is None:
                weight = (-1) ** key[2] * t_minus_one**components
                weight = weights[key] = weight << (slot * key[0])
            acc[mu] = acc.get(mu, 0) + value * weight
    return {mu: _unpack(value, slot) for mu, value in acc.items()}


@functools.lru_cache(maxsize=None, typed=True)
def w_poly(j: int) -> SchurPoly:
    """Character of the j-fold tensor power of the virtual line with dimension t-1.

    Coefficient of u^j in s(tu)/s(u), i.e. sum_{a+b=j} (-1)^b t^a h_a e_b.
    """
    return SchurPoly.one().mul_w(j)


@functools.lru_cache(maxsize=None, typed=True)
def v_poly(ell: int) -> SchurPoly:
    """Character of the ell-fold tensor power of the virtual line with dimension t-2.

    Coefficient of u^ell in s(tu)/s(u)^2, which is
    sum_{a+b+c=ell} (-1)^(b+c) t^a h_a e_b e_c.  Read as w(t,u)/s(u), with
    1/s(u) = sum_m (-1)^m e_m u^m, it is sum_m (-1)^m e_m w_(ell-m).
    """
    _check_index(ell, "index")
    return sum_mul_w([(SchurPoly({(1,) * m: (-1) ** m}), ell - m) for m in range(ell + 1)], ell)


def cycle_type_order(mu: Partition) -> int:
    """Size of the centralizer of a permutation of cycle type mu (z_mu)."""
    mu = _checked_partition(*mu)
    z = 1
    multiplicity: dict[int, int] = {}
    for part in mu:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    for part, count in multiplicity.items():
        z *= part**count * factorial(count)
    return z


def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible S_n character chi^lam on cycle type mu (Murnaghan-Nakayama).

    lam is read as a bead mask: row i (from 0) of l rows puts a bead at bit
    lam_i + l - 1 - i.  Removing a border strip of size r moves a bead from b
    to an empty b - r, with the sign (-1)^(beads strictly between).
    """
    lam, mu = _checked_partition(*lam), _checked_partition(*mu)
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    rows = len(lam)
    beads = 0
    for i, part in enumerate(lam):
        beads |= 1 << (part + rows - 1 - i)
    return _border_strips(beads >> _low_run(beads), mu)


def _low_run(beads: int) -> int:
    """Number of beads packed at the bottom, bits 0, 1, ...: the empty rows."""
    return (beads ^ (beads + 1)).bit_length() - 1


@functools.cache
def _border_strips(beads: int, mu: Partition) -> int:
    """chi at the shape with bead mask ``beads`` on cycle type mu.

    Callers strip the beads of empty rows (``_low_run``) so that one shape
    has one memo key, whatever rows the strips before it emptied.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    # beads at some b >= r whose b - r is empty
    movable = beads & ~(beads << r) & -(1 << r)
    while movable:
        low = movable & -movable
        movable ^= low
        moved = beads ^ low ^ (low >> r)
        value = _border_strips(moved >> _low_run(moved), rest)
        # bits b - r .. b - 1; b - r is empty
        total += -value if (beads & (low - (low >> r))).bit_count() & 1 else value
    return total


def v_poly_via_plethysm(ell: int) -> SchurPoly:
    """Independent route to v_poly: the plethysm h_ell[(t-2) s[1]].

    Expanded through power sums: p_k[(t-2)s[1]] = (t^k - 2) p_k,
    h_ell = sum_mu p_mu / z_mu, and p_mu = sum_lam chi^lam(mu) s[lam].  Each
    term is weighted by the integer ell!/z_mu, and the sums are divided by
    ell! once at the end.  The Schur coefficients must come out integral; a
    remainder is reported as a fault.
    """
    _check_index(ell, "index")
    scale = factorial(ell)
    acc: dict[Partition, list[int]] = {}
    for mu in partitions_of(ell):
        weight = ONE
        for part in mu:
            weight = weight * (IntPoly((0,) * part + (1,)) - 2 * ONE)
        share = scale // cycle_type_order(mu)
        scaled = [share * c for c in weight.coeffs]
        for lam in partitions_of(ell):
            chi = character_value(lam, mu)
            if not chi:
                continue
            vec = acc.setdefault(lam, [0] * (ell + 1))
            for k, c in enumerate(scaled):
                vec[k] += chi * c
    terms: dict[Partition, IntPoly] = {}
    for lam, vec in acc.items():
        ints = []
        for value in vec:
            q, r = divmod(value, scale)
            if r:
                raise ArithmeticError(
                    f"plethysm produced a fractional coefficient {value}/{scale} at {lam}"
                )
            ints.append(q)
        terms[lam] = IntPoly(ints)
    return SchurPoly(terms, degree=ell)
