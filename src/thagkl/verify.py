"""The cross-check battery behind ``thagkl verify``.

``run_checks(max_n)`` returns one ``Check`` per row of ``_CHECKS``, in its
order: recursion = series = Dyck DP (``theorem-agreement``), recursion =
binomial closed form, lattice-of-flats engine = recursion and (t-1)(t-2)^n
for n <= ``LATTICE_CHECK_MAX``, equivariant solver = conjectured closed form
for 1 <= n <= ``CONJECTURE_CHECK_MAX`` (left out when max_n is 0), graded
dimension of the equivariant solver = recursion for 0 <= n <=
``CONJECTURE_CHECK_MAX`` (``equivariant-dimension``), and the Catalan values
of P_n(1) and of the leading coefficient of P_{2m}.  Every comparison takes
whole rows: two polynomials are compared over the union of their spans.
Apart from ``kl.verify_theorem``, which builds its own Dyck DP rows, this
module is the one place where pipelines meet.  A disagreement is data: its
check has ``ok`` false and names the first few disagreements in ``detail``.
"""

from __future__ import annotations

import dataclasses
import math
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
    checks = []
    for name, low, cap, disagreements, failure, success in _CHECKS:
        top = min(max_n, cap)
        if top >= low:
            bad = disagreements(top, series)
            detail = failure(bad) if bad else f"{success} for n <= {top}"
            checks.append(Check(name, not bad, detail))
    return tuple(checks)


def _cells(n: int, a: IntPoly, b: IntPoly) -> list[tuple[int, int]]:
    """The (n, k) at which a and b differ, over the union of their spans."""
    return [(n, k) for k in range(max(a.degree(), b.degree()) + 1) if a[k] != b[k]]


def _poly(row: dict[int, int]) -> IntPoly:
    return IntPoly(row.get(k, 0) for k in range(max(row, default=-1) + 1))


def _lattice_sides(n: int) -> tuple[tuple[str, IntPoly, IntPoly], ...]:
    lattice = build_lattice(thagomizer_graph(n))
    return (("kl", lattice.kl_poly(), kl_poly(n)),
            ("chi", lattice.char_poly(lattice.flats[-1]), char_poly_thag(n)))


# One row per check, in report order: name; least n and cap on n; the
# disagreements for n up to top = min(max_n, cap), given the replacement
# series; the failure text, from the disagreements; the success text.  The
# pipelines' functions are looked up in this module at call time.
_CHECKS = (
    ("theorem-agreement", 0, math.inf,
     lambda top, series: verify_theorem(top + 1, series=series).mismatches,
     lambda bad: "; ".join(f"(n={m.n}, k={m.k}): recursion={m.recursion} series={m.series} "
                           f"dp={m.dyck_dp}" for m in bad[:5]),
     "recursion = series = dp"),
    ("closed-form-agreement", 0, math.inf,
     lambda top, _: [cell for n in range(top + 1)
                     for cell in _cells(n, kl_poly(n), _poly(closed_form_row(n)))],
     lambda bad: f"mismatches at {bad[:5]}",
     "closed form matches"),
    ("lattice-cross-check", 0, LATTICE_CHECK_MAX,
     lambda top, _: [(side, n) for n in range(top + 1)
                     for side, a, b in _lattice_sides(n) if a != b],
     lambda bad: f"failures: {bad}",
     "lattice engine matches"),
    ("conjecture-agreement", 1, CONJECTURE_CHECK_MAX,
     lambda top, _: verify_conjecture(top).mismatches,
     lambda bad: "; ".join(f"(n={m.n}, partition={list(m.partition)})" for m in bad[:5]),
     "closed form matches the solver"),
    ("equivariant-dimension", 0, CONJECTURE_CHECK_MAX,
     lambda top, _: [n for n in range(top + 1) if eq_kl(n).graded_dimension() != kl_poly(n)],
     lambda bad: f"graded dimension differs from P_n at {bad[:5]}",
     "graded dimension of the solver is P_n"),
    ("catalan-checks", 0, math.inf,
     lambda top, _: [("P(1)", n) for n in range(top + 1) if kl_poly(n).evaluate(1) != catalan(n)]
     + [("leading", m) for m in range(top // 2 + 1)
        if kl_poly(2 * m).leading_coefficient() != catalan(m)],
     lambda bad: "P(1) failures at {}; leading failures at {}".format(
         *([n for tag, n in bad if tag == side][:5] for side in ("P(1)", "leading"))),
     "P_n(1) and leading coefficients are Catalan"),
)
