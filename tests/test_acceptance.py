"""Acceptance suite: every criterion is exact integer agreement.

Each test prints one `ACCEPTANCE <id> PASS ...` line once its checks hold
(run with `pytest -v -s tests/test_acceptance.py` to see them); a failing
criterion fails its test instead.  Elapsed wall time is included for the
criteria with a runtime expectation.
"""

import json
import time
from math import comb

from thagkl.cli import main
from thagkl.dyck import (
    catalan,
    closed_form_row,
    count_by_ascents_dp,
    count_by_ascents_enum,
)
from thagkl.equivariant import conjecture_poly, eq_kl, verify_conjecture
from thagkl.flats import build_lattice, thagomizer_graph
from thagkl.kl import char_poly_thag, kl_poly, phi_series
from thagkl.polynomials import IntPoly, T
from thagkl.symfunc import SchurPoly, v_poly, v_poly_via_plethysm, w_poly

ONE_POLY = IntPoly((1,))
T_MINUS_1 = T - ONE_POLY
T_MINUS_2 = T - 2 * ONE_POLY


def _row_of(poly: IntPoly) -> dict[int, int]:
    return {k: poly[k] for k in range(poly.degree() + 1)}


def _report(ident: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {ident} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {ident}: {detail}"


def test_criterion_1_four_way_agreement():
    start = time.time()
    ok = True
    phi = phi_series(15)
    for n in range(15):
        recursion_row = _row_of(kl_poly(n))
        series_row = _row_of(phi[n + 1])
        enum_row = count_by_ascents_enum(n)
        closed_row = closed_form_row(n)
        if not (recursion_row == series_row == enum_row == closed_row):
            ok = False
            break
    _report(
        "1",
        ok,
        f"recursion/series/enumeration/closed-form identical for n <= 14 "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_2_extended_agreement():
    start = time.time()
    ok = True
    phi = phi_series(21)
    for n in range(15, 21):
        recursion_row = _row_of(kl_poly(n))
        series_row = _row_of(phi[n + 1])
        dp_row = count_by_ascents_dp(n)
        closed_row = closed_form_row(n)
        if not (recursion_row == series_row == dp_row == closed_row):
            ok = False
            break
    _report(
        "2",
        ok,
        f"recursion/series/closed-form/dp identical for 15 <= n <= 20 "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_3_catalan_checks():
    ok = all(kl_poly(n).evaluate(1) == catalan(n) for n in range(21))
    ok = ok and all(
        kl_poly(2 * m).leading_coefficient() == catalan(m) for m in range(11)
    )
    _report("3", ok, "P_n(1) = C_n for n <= 20 and lead P_{2m} = C_m for m <= 10")


def test_criterion_4_lattice_cross_check():
    start = time.time()
    ok = True
    for n in range(6):
        lattice = build_lattice(thagomizer_graph(n))
        ok = ok and lattice.kl_poly() == kl_poly(n)
    for n in range(7):
        lattice = build_lattice(thagomizer_graph(n))
        counts = lattice.rank_counts()
        expected = [
            comb(n, i) * 2**i + (comb(n, i - 1) if i else 0) for i in range(n + 2)
        ]
        ok = ok and counts == expected
        ok = ok and lattice.char_poly(lattice.flats[-1]) == char_poly_thag(n)
    _report(
        "4",
        ok,
        f"lattice KL (n <= 5), flat census and full-flat chi (n <= 6) "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_5_symmetric_function_identities():
    ok = True
    for j in range(13):
        ok = ok and w_poly(j).graded_dimension() == T_MINUS_1**j
        ok = ok and v_poly(j).graded_dimension() == T_MINUS_2**j
        convolution = SchurPoly({}, degree=j)
        for ell in range(j + 1):
            convolution = convolution + v_poly(ell).mul_h(j - ell)
        ok = ok and convolution == w_poly(j)
    for ell in range(7):
        ok = ok and v_poly_via_plethysm(ell) == v_poly(ell)
    _report(
        "5",
        ok,
        "graded dims (t-1)^j and (t-2)^j, convolution and plethysm checks (j <= 12)",
    )


def test_criterion_6_equivariant_consistency():
    start = time.time()
    ok = True
    for n in range(11):
        p = eq_kl(n)
        ok = ok and p.graded_dimension() == kl_poly(n)
        for _, coeff in p.terms():
            ok = ok and all(c >= 0 for c in coeff.coeffs)
            ok = ok and coeff.degree() <= n // 2
    _report(
        "6",
        ok,
        f"equivariant dims match P_n, nonnegative, degree-bounded for n <= 10 "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_7_conjecture_reproduction():
    start = time.time()
    required = verify_conjecture(10)
    stretch = verify_conjecture(14)
    _report(
        "7",
        required.ok and stretch.ok,
        f"closed form equals the solver term-by-term for n <= 10 "
        f"(stretch n <= 14) ({time.time() - start:.1f}s)",
    )


def test_criterion_8_hand_checked_anchors():
    ok = kl_poly(2) == IntPoly((1, 1))
    ok = ok and kl_poly(3) == IntPoly((1, 4))
    ok = ok and kl_poly(4) == IntPoly((1, 11, 2))
    ok = ok and kl_poly(5) == IntPoly((1, 26, 15))
    ok = ok and eq_kl(3) == SchurPoly({(3,): IntPoly((1, 2)), (2, 1): T})
    ok = ok and eq_kl(4) == SchurPoly(
        {(4,): IntPoly((1, 3)), (3, 1): 2 * T, (2, 2): IntPoly((0, 1, 1))}
    )
    ok = ok and conjecture_poly(3) == eq_kl(3)
    ok = ok and conjecture_poly(4) == eq_kl(4)
    _report("8", ok, "P_2..P_5 and the two equivariant anchors are bit-exact")


def test_criterion_9_negative_controls(capsys):
    honest = main(["verify", "--max", "6"])
    capsys.readouterr()
    corrupt_code = main(
        ["verify", "--max", "6", "--corrupt", "4,1", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    failing = [check["name"] for check in payload["checks"] if not check["ok"]]
    ok = honest == 0 and corrupt_code == 1 and failing == ["theorem-agreement"]
    ok = ok and "n=4" in next(
        check["detail"] for check in payload["checks"] if not check["ok"]
    )
    _report("9", ok, "corrupted fixture exits 1 and names the failing check")
