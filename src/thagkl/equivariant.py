"""Symmetric-group-equivariant refinement of the thagomizer KL polynomials.

p_n(t) is a degree-n Schur expansion whose graded dimension is P_n(t); that
comparison with the scalar recursion is a check of ``thagkl.verify``
(``equivariant-dimension``), so this solver reads no other pipeline.  It is
solved bottom-up from

    t^(n+1) p_n(1/t) = (t-1) * sum_{l=0}^{n} v_l(t) s[n-l]
                       + sum_{i+j+m=n} p_i(t) w_j(t) w_m(t)

over ordered triples (i, j, m): the (n, 0, 0) term is p_n itself, so moving
it left leaves a right-hand side in known quantities, and each partition's
coefficient is extracted by the same reflection trick as the scalar case
(deg < (n+1)/2).  Since v(t,u) s(u) = w(t,u) and s[n-l] = h_{n-l}, the
first sum is sum_l v_l h_{n-l} = w_n, so the first term is (t-1) * w_n.

With A = p w, the triple sum is (A w)_n.  Products with w need no skew
shapes: w(u) s(u) = s(tu), where w = s(tu)/s(u) and s(u) = sum_m h_m u^m,
so for any series X = Y w the coefficient of u^n of X s = Y s(tu) gives

    X_n = Y_n + sum_{a>=1} h_a (t^a Y_(n-a) - X_(n-a)).

With Y = p and X = A, that is

    B_n = A_n - p_n = sum_{a>=1} h_a (t^a p_(n-a) - A_(n-a)).

The left side R_n = t^(n+1) p_n(1/t) is p_n's coefficients reversed, and the
recursion reads R = (t-1) w + A w as series in u.  Times s(u) it is R s =
(t-1) s(tu) + A s(tu), whose coefficient of u^n, with R_n = p_n + rhs_n and
A_n = p_n + B_n, gives

    rhs_n = B_n + (t-1) t^n s[n] + sum_{a>=1} h_a (t^a A_(n-a) - R_(n-a)).

So neither (t-1) w_n nor A w is ever formed, and once p_n is solved only
A_n = p_n + B_n is stored beside it.  Multiplying by h_a is the Pieri rule:
every (lam, a) adds its polynomial, with weight 1, to each mu of
``symfunc.horizontal_strips(lam, a)`` (Macdonald, Symmetric Functions and
Hall Polynomials, Ch. I).  Both halves of a row ride in one packed int per
(lam, a) (the codec of ``polynomials``).  The table keeps p_k, A_k and R_k
only packed, each entry packed once, when it is solved, at one slot of whole
bytes for the whole table (``polynomials._slot_bits``): 16 bits for rows 15
to 22.  The only ``SchurPoly`` of a row is the public p_n.  Each (lam, a) is
then shifts and adds of three stored ints, and each shape's sum is read
back in one ``to_bytes`` call.  The slot holds a proven bound on every
digit of a strip sum; when the bound outgrows it, the slot grows and every
stored entry is read back at the old slot and packed at the new one, and a
row whose bound still does not fit raises ``ArithmeticError``.

``conjecture_poly`` assembles the closed-form candidate for p_n indexed by
the partition family of shape [a, b, 2^i, 1^eta] (2 <= a < n; b = 0 or
2 <= b <= a), and ``verify_conjecture`` compares it against the computed
table term by term.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping, Sequence

from .polynomials import (IntPoly, ZERO, _check_index, _pack, _slot_bits, _unpack,
                          solve_reflection_equation)
from .symfunc import Partition, SchurPoly, _checked_partition, horizontal_strips


class EqKLTable:
    """Bottom-up table of p_0, p_1, ...; the entries handed out are SchurPoly values.

    Row k of ``_packed`` holds each partition lam whose p_k or A_k = (p w)_k
    is nonzero as (lam, p_k, A_k, R_k), with R_k = t^(k+1) p_k(1/t), packed
    at the table's slot; that is the only copy of a stored entry.  The bound
    is 2 plus the summed 1-norms of p_k and A_k over every stored entry.
    """

    def __init__(self) -> None:
        self._entries: list[SchurPoly] = []
        self._packed: list[list[tuple[Partition, int, int, int]]] = []
        self._bound = 2
        self._slot = 8

    def poly(self, n: int) -> SchurPoly:
        _check_index(n, "index")
        while len(self._entries) <= n:
            self._append_next()
        return self._entries[n]

    def _recursion_rhs(self, n: int) -> tuple[dict[Partition, Sequence[int]],
                                              dict[Partition, Sequence[int]]]:
        """The right-hand side of row n and B_n, from p_k and A_k for k < n.

        Both are dicts from partition to coefficient sequence, without zeros.
        Each (lam, a = n - k) adds t^a p_k - A_k, the term of B_n, plus
        t^lift (t^a A_k - R_k), with R_k = t^(k+1) p_k(1/t), to every mu of
        ``horizontal_strips(lam, a)`` with weight 1, as shifts and adds of
        the entry's packed ints; (t-1) t^n s[n] starts the upper half.
        Neither half has degree above n (deg p_k <= k/2, deg A_k <= k, deg
        R_k <= k + 1), so lift = n + 2 keeps them apart.
        """
        slot = self._slot
        lift = n + 2
        high = slot * lift
        acc = {(n,) if n else (): ((1 << slot) - 1) << (high + slot * n)}
        for k, row in enumerate(self._packed[:n]):
            size = n - k
            shift = slot * size
            for lam, packed_p, packed_a, reflected in row:
                value = ((packed_p << shift) - packed_a
                         + (((packed_a << shift) - reflected) << high))
                for mu in horizontal_strips(lam, size):
                    acc[mu] = acc.get(mu, 0) + value
        rhs: dict[Partition, Sequence[int]] = {}
        below: dict[Partition, Sequence[int]] = {}
        for mu, value in acc.items():
            digits = _unpack(value, slot)
            low = digits[:lift]
            while low and not low[-1]:
                low.pop()
            if low:
                below[mu] = low
            if total := _added(low, digits[lift:]):
                rhs[mu] = total
        return rhs, below

    def _append_next(self) -> None:
        n = len(self._entries)
        # No digit of a strip sum exceeds the bound in absolute value: R_k
        # has the coefficients of p_k, so each half of a (lam, a) term has a
        # 1-norm of at most |p_k|_1 + |A_k|_1, and (t-1) t^n one of 2; each
        # (lam, a) meets a given mu at most once, with weight 1, and each
        # digit of a sum belongs to one half.  A signed digit of
        # bound.bit_length() + 1 bits, the proven width, holds it (13 bits
        # at row 15).
        slot = _slot_bits(self._bound.bit_length() + 1)
        if slot != self._slot:
            old, self._slot = self._slot, slot
            self._packed = [[(lam, *(_pack(_unpack(x, old), slot) for x in entry))
                             for lam, *entry in row] for row in self._packed]
        if self._bound >> (slot - 1):
            raise ArithmeticError(
                f"strip sums of row {n} up to {self._bound} may overflow a {slot}-bit slot")
        rhs, below = self._recursion_rhs(n)
        terms: dict[Partition, IntPoly] = {}
        row = []
        for lam in rhs.keys() | below.keys():
            q = rhs.get(lam, ())
            coeff = solve_reflection_equation(n + 1, IntPoly(q)) if q else ZERO
            if p := coeff.coeffs:
                terms[lam] = coeff
            # A_n = p_n + B_n; a nonzero rhs has a nonzero solution, so the
            # entry of each key of rhs or B_n has a nonzero part
            a = _added(p, below.get(lam, ()))
            row.append((lam, _pack(p, slot), _pack(a, slot),
                        _pack(p[::-1], slot) << slot * (n + 2 - len(p))))
            self._bound += sum(map(abs, p)) + sum(map(abs, a))
        self._entries.append(SchurPoly(terms, degree=n))
        self._packed.append(row)


def _added(a, b) -> tuple[int, ...]:
    """The coefficient lists a and b added, as a tuple without zeros on top."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)] + list(a[len(b):])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


_TABLE = EqKLTable()


def eq_kl(n: int) -> SchurPoly:
    """The equivariant polynomial p_n, solved with shared memoization."""
    return _TABLE.poly(n)


def upsilon(n: int) -> tuple[Partition, ...]:
    """The partition family indexing the closed-form candidate.

    Partitions of n of shape [a, b, 2^i, 1^eta] with 2 <= a < n, i >= 0,
    eta in {0, 1}, and b = n - a - 2i - eta required to be 0 (omitted) or to
    satisfy 2 <= b <= a.  Returned deduplicated in canonical order.
    """
    _check_index(n, "index", 1)
    found: set[Partition] = set()
    for a in range(2, n):
        for eta in (0, 1):
            i = 0
            while True:
                b = n - a - 2 * i - eta
                if b < 0:
                    break
                if b == 0 or 2 <= b <= a:
                    middle = (b,) if b else ()
                    lam = (a,) + middle + (2,) * i + (1,) * eta
                    found.add(lam)
                i += 1
    return tuple(sorted(found, reverse=True))


def kappa(lam: Partition, n: int) -> int:
    """Leading multiplicity of the closed-form candidate at lam, a partition of n."""
    lam = _checked_partition(*lam)
    _check_index(n, "index", 1)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if lam == (n - 1, 1):
        return lam[0] - 1
    second = lam[1] if len(lam) > 1 else 0
    return lam[0] - second + 1


def omega(lam: Partition) -> int:
    """1 when the smallest part differs from 1, else 0."""
    lam = _checked_partition(*lam)
    return 0 if lam and lam[-1] == 1 else 1


@dataclasses.dataclass(frozen=True)
class ConjectureTerm:
    """One closed-form term: kappa * t^(ell-1) * (t+1)^omega * s[partition]."""

    partition: Partition
    kappa: int
    ell: int
    omega: int


def conjecture_terms(n: int) -> tuple[ConjectureTerm, ...]:
    terms = []
    for lam in upsilon(n):
        # a < n keeps [n] out of the family, so the one-part kappa convention
        # is never exercised; the kappa special case [n-1, 1] always has
        # smallest part 1 and therefore never meets the (t+1) factor
        assert lam[0] < n and len(lam) >= 2
        k = kappa(lam, n)
        w = omega(lam)
        assert not (lam == (n - 1, 1) and w == 1)
        terms.append(ConjectureTerm(partition=lam, kappa=k, ell=len(lam), omega=w))
    return tuple(terms)


@functools.lru_cache(maxsize=None, typed=True)
def conjecture_poly(n: int) -> SchurPoly:
    """Closed-form candidate for the equivariant polynomial at index n.

    sum over the partition family of kappa * t^(ell-1) * (t+1)^omega * s[lam],
    plus ((n-1)t + 1) * s[n].
    """
    _check_index(n, "index", 1)
    terms = {(n,): IntPoly((1, n - 1))}
    # upsilon has no repeats and no [n], so each term is written once
    for term in conjecture_terms(n):
        # kappa t^(ell-1) (1+t)^omega, with omega 0 or 1
        coeffs = (0,) * (term.ell - 1) + (term.kappa,) * (1 + term.omega)
        terms[term.partition] = IntPoly(coeffs)
    return SchurPoly(terms, degree=n)


@dataclasses.dataclass(frozen=True)
class TermMismatch:
    """One (n, partition) cell where computed and predicted coefficients differ."""

    n: int
    partition: Partition
    computed: IntPoly
    predicted: IntPoly


@dataclasses.dataclass(frozen=True)
class ConjectureReport:
    """Outcome of comparing the computed table against the closed form."""

    max_n: int
    ok: bool
    mismatches: tuple[TermMismatch, ...]


def verify_conjecture(
    max_n: int,
    *,
    candidates: Mapping[int, SchurPoly] | None = None,
) -> ConjectureReport:
    """Compare eq_kl(n) against the closed form for 1 <= n <= max_n.

    ``candidates`` may supply replacement predictions per n (used for
    negative controls); missing indices fall back to the honest closed form.
    It must be a mapping from indices n >= 1, checked as every index is, to
    ``SchurPoly`` values.  Disagreements are returned as data, not raised.
    """
    _check_index(max_n, "max_n", 1)
    if candidates is not None:
        if not isinstance(candidates, Mapping):
            raise TypeError(f"candidates must be a mapping, got {type(candidates).__name__}")
        for key in candidates:
            _check_index(key, "candidate index", 1)
    mismatches: list[TermMismatch] = []
    for n in range(1, max_n + 1):
        computed = eq_kl(n)
        predicted = conjecture_poly(n)
        if candidates and n in candidates:
            predicted = candidates[n]
            if not isinstance(predicted, SchurPoly):
                raise TypeError(f"candidate {n} is a {type(predicted).__name__}, not a SchurPoly")
        lams = sorted(
            set(computed.partitions()) | set(predicted.partitions()), reverse=True
        )
        for lam in lams:
            a = computed.coefficient(lam)
            b = predicted.coefficient(lam)
            if a != b:
                mismatches.append(
                    TermMismatch(n=n, partition=lam, computed=a, predicted=b)
                )
    return ConjectureReport(max_n=max_n, ok=not mismatches, mismatches=tuple(mismatches))
