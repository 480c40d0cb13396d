"""The cross-check battery behind ``thagkl verify``.

``run_checks(max_n)`` returns one ``Check`` per comparison of independent
pipelines, in this order: recursion = series = Dyck DP (``theorem-agreement``),
recursion = binomial closed form, lattice-of-flats engine = recursion and
(t-1)(t-2)^n for n <= ``LATTICE_CHECK_MAX``, equivariant solver = conjectured
closed form for 1 <= n <= ``CONJECTURE_CHECK_MAX`` (left out when max_n is 0),
graded dimension of the equivariant solver = recursion for 0 <= n <=
``CONJECTURE_CHECK_MAX`` (``equivariant-dimension``), and the Catalan values
of P_n(1) and of the leading coefficient of P_{2m}.  Apart from
``kl.verify_theorem``, which builds its own Dyck DP rows, this module is the
one place where pipelines meet.  A disagreement is data: its check has
``ok`` false and names the first few disagreements in ``detail``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .dyck import catalan, closed_form_row
from .equivariant import eq_kl, verify_conjecture
from .flats import build_lattice, thagomizer_graph
from .kl import char_poly_thag, kl_poly, phi_series, verify_theorem
from .polynomials import ONE, IntPoly, _check_index

LATTICE_CHECK_MAX = 5
CONJECTURE_CHECK_MAX = 10


@dataclasses.dataclass(frozen=True)
class Check:
    """One check of the battery: its name, whether it passed, and what it saw."""

    name: str
    ok: bool
    detail: str


def corrupted_series(order: int, n: int, k: int) -> tuple[IntPoly, ...]:
    """``phi_series(order)`` with the coefficient of t^k in P_n bumped by one.

    The negative control of ``theorem-agreement``: passed as ``series`` to
    ``run_checks``, it must fail that check, and only that one, at (n, k).
    Since deg P_n <= n // 2, a larger k is rejected before any polynomial
    of that degree is built.
    """
    _check_index(n, "corruption index n")
    _check_index(k, "corruption index k")
    if n + 1 > order:
        raise ValueError(f"corruption index n={n} outside series order {order}")
    if k > n // 2:
        raise ValueError(f"corruption index k={k} above deg P_{n} <= {n // 2}")
    series = list(phi_series(order))
    series[n + 1] += ONE.shifted(k)
    return tuple(series)


def run_checks(max_n: int, *, series: Sequence[IntPoly] | None = None) -> tuple[Check, ...]:
    """Run the battery for the indices 0..max_n.

    ``series`` replaces the honest series root in ``theorem-agreement``: a
    sequence of ``IntPoly`` values with at least ``max_n + 2`` entries (see
    ``corrupted_series``).
    """
    _check_index(max_n, "max_n")
    checks = [
        _theorem_agreement(max_n, series),
        _closed_form_agreement(max_n),
        _lattice_cross_check(min(max_n, LATTICE_CHECK_MAX)),
    ]
    if max_n >= 1:
        checks.append(_conjecture_agreement(min(max_n, CONJECTURE_CHECK_MAX)))
    checks.append(_equivariant_dimension(min(max_n, CONJECTURE_CHECK_MAX)))
    checks.append(_catalan_checks(max_n))
    return tuple(checks)


def _theorem_agreement(max_n: int, series: Sequence[IntPoly] | None) -> Check:
    report = verify_theorem(max_n + 1, series=series)
    detail = "; ".join(
        f"(n={m.n}, k={m.k}): recursion={m.recursion} series={m.series} dp={m.dyck_dp}"
        for m in report.mismatches[:5]
    )
    return Check("theorem-agreement", report.ok, detail or f"recursion = series = dp for n <= {max_n}")


def _closed_form_agreement(max_n: int) -> Check:
    bad = []
    for n in range(max_n + 1):
        p = kl_poly(n)
        row = closed_form_row(n)
        bad.extend((n, k) for k in range(p.degree() + 1) if p[k] != row.get(k, 0))
    return Check(
        "closed-form-agreement",
        not bad,
        f"mismatches at {bad[:5]}" if bad else f"closed form matches for n <= {max_n}",
    )


def _lattice_cross_check(max_n: int) -> Check:
    bad = []
    for n in range(max_n + 1):
        lattice = build_lattice(thagomizer_graph(n))
        if lattice.kl_poly() != kl_poly(n):
            bad.append(("kl", n))
        if lattice.char_poly(lattice.flats[-1]) != char_poly_thag(n):
            bad.append(("chi", n))
    return Check(
        "lattice-cross-check",
        not bad,
        f"failures: {bad}" if bad else f"lattice engine matches for n <= {max_n}",
    )


def _conjecture_agreement(max_n: int) -> Check:
    report = verify_conjecture(max_n)
    detail = "; ".join(f"(n={m.n}, partition={list(m.partition)})" for m in report.mismatches[:5])
    return Check(
        "conjecture-agreement", report.ok, detail or f"closed form matches the solver for n <= {max_n}"
    )


def _equivariant_dimension(max_n: int) -> Check:
    bad = [n for n in range(max_n + 1) if eq_kl(n).graded_dimension() != kl_poly(n)]
    return Check(
        "equivariant-dimension",
        not bad,
        f"graded dimension differs from P_n at {bad[:5]}"
        if bad
        else f"graded dimension of the solver is P_n for n <= {max_n}",
    )


def _catalan_checks(max_n: int) -> Check:
    bad_value = [n for n in range(max_n + 1) if kl_poly(n).evaluate(1) != catalan(n)]
    bad_leading = [
        m for m in range(max_n // 2 + 1) if kl_poly(2 * m).leading_coefficient() != catalan(m)
    ]
    return Check(
        "catalan-checks",
        not bad_value and not bad_leading,
        f"P(1) failures at {bad_value[:5]}; leading failures at {bad_leading[:5]}"
        if bad_value or bad_leading
        else f"P_n(1) and leading coefficients are Catalan for n <= {max_n}",
    )
