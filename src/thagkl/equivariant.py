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

The rest of the triple sum (i < n) is regrouped by associativity.  With
the partial sums A_k = sum_{i<=k} p_i w_{k-i} and B_n = sum_{k<n} p_k
w_{n-k}, it is B_n + sum_{k<n} A_k w_{n-k} (the pairs (i, m) with
i + m = k are those of A_k), so

    rhs_n = (t-1) w_n + sum_{k<n} (p_k + A_k) w_{n-k}.

Once p_n is solved, A_n = B_n + p_n is stored.  Row n is one call of the
row kernel ``symfunc._ribbon_sums`` (the kernel of ``sum_mul_w``), which
walks each (lam, n - k) once and feeds each ribbon to both B_n and rhs_n.
The table keeps p_k and A_k as coefficient tuples and hands them to the
kernel as they are, so the only ``SchurPoly`` of a row is the public p_n.

``conjecture_poly`` assembles the closed-form candidate for p_n indexed by
the partition family of shape [a, b, 2^i, 1^eta] (2 <= a < n; b = 0 or
2 <= b <= a), and ``verify_conjecture`` compares it against the computed
table term by term.
"""

from __future__ import annotations

import dataclasses
import functools

from .polynomials import IntPoly, ONE, T, ZERO, _check_index, solve_reflection_equation
from .symfunc import Partition, SchurPoly, _ribbon_sums


class EqKLTable:
    """Bottom-up table of p_0, p_1, ...; the entries handed out are SchurPoly values.

    Row k maps each partition to the coefficient tuples of p_k and of the
    partial sum A_k = sum_{i<=k} p_i w_(k-i), at least one of them nonzero.
    """

    def __init__(self) -> None:
        self._entries: list[SchurPoly] = []
        self._rows: list[dict[Partition, tuple[tuple[int, ...], tuple[int, ...]]]] = []

    def poly(self, n: int) -> SchurPoly:
        _check_index(n, "index")
        while len(self._entries) <= n:
            self._append_next()
        return self._entries[n]

    def _recursion_rhs(self, n: int) -> tuple[dict[Partition, tuple[int, ...]],
                                              dict[Partition, tuple[int, ...]]]:
        """The right-hand side of row n and B_n, from p_k and A_k for k < n.

        Both are dicts from partition to coefficient tuple, without zeros.
        The input for k is p_k padded to ``lift`` coefficients followed by
        A_k, that is p_k + t^lift A_k, and (t-1) w_n enters as t^lift (t-1)
        s[] with j = n, so the row kernel ``symfunc._ribbon_sums`` returns
        B_n + t^lift (rhs_n - B_n).  Neither part has degree above n + 1
        (deg p_k <= k/2, deg A_k <= k, deg w_j = j), so lift = n + 2 keeps
        them apart.
        """
        lift = n + 2
        inputs = [((), n, (0,) * lift + (-1, 1))]
        for k, row in enumerate(self._rows[:n]):
            inputs.extend((lam, n - k, p + (0,) * (lift - len(p)) + a)
                          for lam, (p, a) in row.items())
        rhs: dict[Partition, tuple[int, ...]] = {}
        below: dict[Partition, tuple[int, ...]] = {}
        for mu, digits in _ribbon_sums(inputs).items():
            if low := _added(digits[:lift], ()):
                below[mu] = low
            if total := _added(low, digits[lift:]):
                rhs[mu] = total
        return rhs, below

    def _append_next(self) -> None:
        n = len(self._entries)
        rhs, below = self._recursion_rhs(n)
        terms = {lam: solve_reflection_equation(n + 1, IntPoly(q)) for lam, q in rhs.items()}
        # A_n = B_n + p_n
        row = {lam: ((), low) for lam, low in below.items()}
        for lam, coeff in terms.items():
            if coeff:
                row[lam] = (coeff.coeffs, _added(below.get(lam, ()), coeff.coeffs))
        self._entries.append(SchurPoly(terms, degree=n))
        self._rows.append(row)


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
    """Leading multiplicity of the closed-form candidate at lam."""
    if lam == (n - 1, 1):
        return lam[0] - 1
    second = lam[1] if len(lam) > 1 else 0
    return lam[0] - second + 1


def omega(lam: Partition) -> int:
    """1 when the smallest part differs from 1, else 0."""
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
    terms: dict[Partition, IntPoly] = {(n,): IntPoly((1, n - 1))}
    for term in conjecture_terms(n):
        coeff = IntPoly((term.kappa,)).shifted(term.ell - 1)
        if term.omega:
            coeff = coeff * (T + ONE)
        terms[term.partition] = terms.get(term.partition, ZERO) + coeff
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
    candidates: dict[int, SchurPoly] | None = None,
) -> ConjectureReport:
    """Compare eq_kl(n) against the closed form for 1 <= n <= max_n.

    ``candidates`` may supply replacement predictions per n (used for
    negative controls); missing indices fall back to the honest closed form.
    Disagreements are returned as data, not raised.
    """
    _check_index(max_n, "max_n", 1)
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
