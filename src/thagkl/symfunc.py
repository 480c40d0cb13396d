"""Symmetric functions in the Schur basis with integer-polynomial coefficients.

A partition is a tuple of weakly decreasing positive integers; a ``SchurPoly``
is a finite expansion sum_lambda c_lambda(t) * s[lambda] in which every index
partition has one common size and every coefficient is a nonzero ``IntPoly``.

Every product here is a Pieri product, and one walk serves them all:
``horizontal_strips`` adds a horizontal strip (at most one new box per
column), which is multiplication by h_a.  The involution omega, s[lam] ->
s[lam'], swaps h and e and rows and columns, so the vertical strips of e_b
are the conjugates of the horizontal strips of the conjugate shape.  The
equivariant solver calls the walk directly (see ``thagkl.equivariant``).

The tensor-power characters

    w_j(t) = sum_{a+b=j}   (-1)^b     t^a h_a e_b        (graded dim (t-1)^j)
    v_l(t) = sum_{a+b+c=l} (-1)^(b+c) t^a h_a e_b e_c    (graded dim (t-2)^l)

are w_j = h_j[(t-1)X] and v_l = h_l[(t-2)X], the coefficients of u^j in
w(t,u) = s(tu)/s(u) and of u^l in v(t,u) = s(tu)/s(u)^2, where s(u) =
sum_m s[m] u^m.  Pieri's rule h_a e_b = s[a, 1^b] + s[a+1, 1^(b-1)] makes
w_j a sum over hooks, and 1/s(u) = sum_m (-1)^m e_m u^m makes v_l =
sum_m (-1)^m e_m w_(l-m), which ``v_poly`` sums under omega in one pass of
the strip walk (Macdonald, Symmetric Functions and Hall Polynomials, Ch. I).
An independent cross-check, ``v_poly_via_plethysm``, evaluates the
plethysm v_l = h_l[(t-2) s[1]] by Newton's identity
l h_l = sum_r p_r h_(l-r), under which p_r becomes (t^r - 2) p_r, and
multiplies by p_r with the Murnaghan-Nakayama rule: one walk over the
border strips of r boxes on a bead mask (``_rim_hooks``), on plain int
coefficient lists.  It walks no Pieri strip.

Every partition argument and every ``SchurPoly`` index is checked to be one.
"""

from __future__ import annotations

import functools
from math import factorial
from typing import Callable, Iterator, Mapping, Union

from .polynomials import IntPoly, ONE, ZERO, _as_poly, _check_index

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


@functools.lru_cache(maxsize=None, typed=True)
def _checked_partition(*parts: int) -> Partition:
    """The parts as a partition, checked: positive ints, weakly decreasing.

    Memoised on the parts' values and types, so a bool never hits its int.
    """
    for part in parts:
        _check_index(part, "partition part", 1)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{parts} is not weakly decreasing")
    return parts


def conjugate(lam: Partition) -> Partition:
    lam = _checked_partition(*lam)
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
    A negative size has no strips; a size that is not an int, a bool
    included, raises ``TypeError``.  The equivariant solver's rows are mostly
    this walk.
    """
    lam = _checked_partition(*lam)
    if type(size) is not int:
        # the package's index check, off the hot path: TypeError for a bool
        # or a non-int, and another int subclass is read as its int
        _check_index(size, "size")
        size = int(size)
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

    A vertical strip has at most one new box per row, so it is a horizontal
    strip of the conjugate shape: the walk is ``horizontal_strips(lam', size)``
    with each shape conjugated back.  lam is checked by ``conjugate`` before
    the walk starts, size by the walk.
    """
    return (conjugate(mu) for mu in horizontal_strips(conjugate(lam), size))


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
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping, got {type(terms).__name__}")
        clean: dict[Partition, IntPoly] = {}
        for lam, coeff in terms.items():
            lam = _checked_partition(*lam)
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
        return self.degree == other.degree and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self._terms.items())))

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


@functools.lru_cache(maxsize=None, typed=True)
def w_poly(j: int) -> SchurPoly:
    """Character of the j-fold tensor power of the virtual line with dimension t-1.

    Coefficient of u^j in s(tu)/s(u), i.e. sum_{a+b=j} (-1)^b t^a h_a e_b.
    Since h_a e_b = s[a, 1^b] + s[a+1, 1^(b-1)], that is the hook sum
    sum_{a=1}^{j} (-1)^(j-a) t^(a-1) (t-1) s[a, 1^(j-a)], and 1 at j = 0.
    """
    _check_index(j, "index")
    if not j:
        return SchurPoly.one()
    terms = {}
    for a in range(1, j + 1):
        sign = -1 if (j - a) & 1 else 1
        terms[(a,) + (1,) * (j - a)] = IntPoly((0,) * (a - 1) + (-sign, sign))
    return SchurPoly(terms, degree=j)


@functools.lru_cache(maxsize=None, typed=True)
def v_poly(ell: int) -> SchurPoly:
    """Character of the ell-fold tensor power of the virtual line with dimension t-2.

    Coefficient of u^ell in s(tu)/s(u)^2, which is
    sum_{a+b+c=ell} (-1)^(b+c) t^a h_a e_b e_c.  Read as w(t,u)/s(u), with
    1/s(u) = sum_m (-1)^m e_m u^m, it is sum_m (-1)^m e_m w_(ell-m).  The
    involution omega, s[lam] -> s[lam'], turns that into
    sum_m (-1)^m h_m omega(w_(ell-m)), where omega(w_k) carries
    (-1)^(k-a) t^(a-1) (t-1) at the conjugate hook [k-a+1, 1^(a-1)]: one
    pass of ``horizontal_strips``, summed on coefficient lists, with each
    shape conjugated back once at the end.
    """
    _check_index(ell, "index")
    # the term m = ell is (-1)^ell h_ell omega(w_0) = (-1)^ell s[ell]
    top = [0] * (ell + 1)
    top[0] = -1 if ell & 1 else 1
    acc: dict[Partition, list[int]] = {(ell,) if ell else (): top}
    for m in range(ell):
        for a in range(1, ell - m + 1):
            # (-1)^m from 1/s(u) and (-1)^(k-a) from w_k, k = ell - m
            sign = -1 if (ell - a) & 1 else 1
            for mu in horizontal_strips((ell - m - a + 1,) + (1,) * (a - 1), m):
                coeffs = acc.setdefault(mu, [0] * (ell + 1))
                coeffs[a - 1] -= sign
                coeffs[a] += sign
    return SchurPoly({conjugate(mu): IntPoly(c) for mu, c in acc.items()}, degree=ell)


def _rim_hooks(nu: Partition, r: int) -> list[tuple[Partition, int]]:
    """The terms (lam, sign) of p_r * s[nu] = sum (-1)^ht(lam/nu) s[lam], r >= 1.

    lam runs over the shapes with lam/nu a border strip of r boxes.  nu is
    read as a bead mask on len(nu) + r rows, enough for any strip: row i
    (from 0) puts a bead at bit nu_i + rows - 1 - i, so the r empty rows sit
    on bits 0..r-1.  Adding a border strip moves a bead from b to an empty
    b + r, and its height is the number of beads strictly between.  Not
    memoised: the rows of ``_plethysm_row`` are, so each (nu, r) is asked once.
    """
    rows = len(nu) + r
    beads = (1 << r) - 1
    for i, part in enumerate(nu):
        beads |= 1 << (part + rows - 1 - i)
    out = []
    # beads at some b whose b + r is empty
    movable = beads & ~(beads >> r)
    while movable:
        low = movable & -movable
        movable ^= low
        high = low << r
        sign = -1 if (beads & (high - (low << 1))).bit_count() & 1 else 1
        moved = beads ^ low ^ high
        lam = []
        while moved:
            b = moved.bit_length() - 1
            part = b - rows + 1 + len(lam)
            if not part:
                break
            lam.append(part)
            moved ^= 1 << b
        out.append((tuple(lam), sign))
    return out


@functools.cache
def _plethysm_row(ell: int) -> dict[Partition, tuple[int, ...]]:
    """The Schur coefficients of H_ell = h_ell[(t-2) s[1]] as int tuples, zeros dropped.

    Newton's identity under the plethysm: ell * H_ell =
    sum_{r=1}^{ell} (t^r - 2) p_r H_(ell-r), with p_r * s[nu] from
    ``_rim_hooks``.  Each sum is divided by ell, checked exact.  Callers
    fill the rows below ell first, so the recursion stays one call deep.
    """
    if not ell:
        return {(): (1,)}
    acc: dict[Partition, list[int]] = {}
    for r in range(1, ell + 1):
        for nu, coeffs in _plethysm_row(ell - r).items():
            # (t^r - 2) * coeffs
            weighted = [0] * (len(coeffs) + r)
            for k, c in enumerate(coeffs):
                weighted[k] -= 2 * c
                weighted[k + r] += c
            for lam, sign in _rim_hooks(nu, r):
                vec = acc.get(lam)
                if vec is None:
                    vec = acc[lam] = [0] * (ell + 1)
                for k, c in enumerate(weighted):
                    vec[k] += sign * c
    row = {}
    for lam, vec in acc.items():
        ints = []
        for value in vec:
            q, rem = divmod(value, ell)
            if rem:
                raise ArithmeticError(
                    f"plethysm produced a fractional coefficient {value}/{ell} at {lam}"
                )
            ints.append(q)
        while ints and not ints[-1]:
            ints.pop()
        if ints:
            row[lam] = tuple(ints)
    return row


def v_poly_via_plethysm(ell: int) -> SchurPoly:
    """Independent route to v_poly: the plethysm h_ell[(t-2) s[1]].

    The plethysm by (t-2) s[1] is a ring map with p_r -> (t^r - 2) p_r, so
    Newton's identity n h_n = sum_r p_r h_(n-r) becomes a recurrence in
    ell (``_plethysm_row``), and the Murnaghan-Nakayama rule gives each
    product p_r * s[nu] as a signed sum over border strips (``_rim_hooks``).
    Every division by ell must be exact; a remainder is reported as a fault.
    """
    _check_index(ell, "index")
    for k in range(ell):
        _plethysm_row(k)
    return SchurPoly(
        {lam: IntPoly(coeffs) for lam, coeffs in _plethysm_row(ell).items()},
        degree=ell,
    )
