import hashlib
from math import comb

import pytest

from thagkl.dyck import catalan, closed_form, count_by_ascents_dp
from thagkl import kl
from thagkl.kl import (
    KLTable,
    char_poly_boolean,
    char_poly_thag,
    kl_poly,
    phi_series,
    verify_theorem,
)
from thagkl.polynomials import IntPoly, ONE, ZERO, _slot_bits, solve_reflection_equation


def test_char_poly_boolean():
    assert char_poly_boolean(0) == ONE
    assert char_poly_boolean(1) == IntPoly((-1, 1))
    assert char_poly_boolean(3) == IntPoly((-1, 3, -3, 1))


def test_char_poly_thag():
    assert char_poly_thag(0) == IntPoly((-1, 1))
    assert char_poly_thag(1) == IntPoly((2, -3, 1))
    assert char_poly_thag(2) == IntPoly((-4, 8, -5, 1))
    assert char_poly_thag(3).evaluate(1) == 0


def test_kl_poly_anchors():
    assert kl_poly(0) == ONE
    assert kl_poly(1) == ONE
    assert kl_poly(2) == IntPoly((1, 1))
    assert kl_poly(3) == IntPoly((1, 4))
    assert kl_poly(4) == IntPoly((1, 11, 2))
    assert kl_poly(5) == IntPoly((1, 26, 15))


def test_kl_poly_rejects_negative_index():
    with pytest.raises(ValueError):
        kl_poly(-1)


# True would otherwise be read as the index 1
@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
def test_indices_reject_non_ints(bad):
    with pytest.raises(TypeError):
        kl_poly(bad)
    with pytest.raises(TypeError):
        phi_series(bad)
    with pytest.raises(TypeError):
        verify_theorem(bad)


def test_char_poly_thag_rejects_bool():
    assert char_poly_thag(1) == IntPoly((2, -3, 1))
    with pytest.raises(TypeError):
        char_poly_thag(True)


def test_kl_poly_structure_to_twenty():
    for n in range(21):
        p = kl_poly(n)
        assert p.constant_term() == 1
        assert p.degree() <= n // 2
        assert all(c >= 0 for c in p.coeffs)


def test_kl_poly_catalan_specializations():
    for n in range(21):
        assert kl_poly(n).evaluate(1) == catalan(n)
    for m in range(11):
        assert kl_poly(2 * m).leading_coefficient() == catalan(m)


def test_kl_poly_matches_closed_form():
    for n in range(21):
        p = kl_poly(n)
        for k in range(p.degree() + 2):
            assert p[k] == closed_form(n, k)


def reflected(r: int, p: IntPoly) -> IntPoly:
    """t^r p(1/t): the coefficients of p reversed in the window 0..r."""
    assert p.degree() <= r
    return IntPoly(p[r - k] for k in range(r + 1))


def test_defining_recursion_residual_is_exact():
    # substitute the table back into the rank recursion and demand identity
    for n in range(21):
        lhs = reflected(n + 1, kl_poly(n))
        rhs = char_poly_boolean(n + 1)
        for i in range(n + 1):
            weight = comb(n, i) * 2 ** (n - i)
            rhs = rhs + weight * char_poly_boolean(n - i) * kl_poly(i)
        assert lhs == rhs


def test_kl_table_entries():
    table = KLTable()
    entries = table.entries(6)
    assert len(entries) == 7
    assert entries[0] == ONE
    assert entries[4] == IntPoly((1, 11, 2))
    # shared module-level table agrees with a fresh one
    assert all(entries[n] == kl_poly(n) for n in range(7))


def list_horner_table(n_max: int) -> list[IntPoly]:
    """P_0 .. P_n_max by the recursion run on coefficient lists, one Horner
    step in (t - 1) per earlier row: the table's computation before packing."""

    def times_t_minus_1(coeffs):
        return [hi - lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]

    entries = []
    for n in range(n_max + 1):
        acc = [1]
        for i, p in enumerate(entries):
            weight = comb(n, i) << (n - i)
            acc = times_t_minus_1(acc)
            for k, c in enumerate(p.coeffs):
                acc[k] += weight * c
        entries.append(solve_reflection_equation(n + 1, IntPoly(times_t_minus_1(acc))))
    return entries


def test_packed_table_matches_list_horner_to_120():
    assert list(KLTable().entries(120)) == list_horner_table(120)


def test_kl_table_pinned_through_three_hundred():
    # sha256 of repr([P_n.coeffs for n <= 300]), as the list Horner computed it
    digest = hashlib.sha256(repr([p.coeffs for p in KLTable().entries(300)]).encode())
    assert digest.hexdigest() == (
        "c35808ad9713b88e008db7dc380f6d5f89a2312b2ff3e2b946fe7b22a77cffba")


def test_slot_grows_past_the_bound_in_whole_bytes(monkeypatch):
    # the codec's rule is asked only when the bound outgrows the slot, each
    # time for a quarter more than the bits the bound needs
    widths = []

    def spy(width):
        widths.append(width)
        return _slot_bits(width)

    monkeypatch.setattr(kl, "_slot_bits", spy)
    table = KLTable()
    table.entries(80)
    slot = table._slot
    assert slot % 8 == 0 and slot > 64
    assert len(widths) >= 2
    for before, width in zip([64] + [_slot_bits(w) for w in widths], widths):
        assert width >= (before + 1) * 5 // 4
    # the slot is what the rule makes of the last width, and the stored
    # entries are packed at it
    assert slot == _slot_bits(widths[-1])
    assert all(packed == p.evaluate(1 << slot)
               for p, packed in zip(table._entries, table._packed))
    assert table._norms == [sum(map(abs, p.coeffs)) for p in table._entries]
    assert _slot_bits(81) == 88  # 65 bits needed, a quarter more is 81


def test_slot_sequence_pinned_through_three_hundred():
    # every slot the table takes on its way to row 300, read after each row
    table = KLTable()
    slots = []
    for n in range(301):
        table.poly(n)
        if not slots or slots[-1] != table._slot:
            slots.append(table._slot)
    assert slots == [64, 88, 120, 160, 208, 264, 336, 424, 536, 672, 848, 1064]


def test_slot_below_the_bound_raises(monkeypatch):
    # negative control: a slot that never grows is soon narrower than the
    # bound; the row must raise instead of reading wrapped digits
    monkeypatch.setattr(kl, "_slot_bits", lambda width: 64)
    table = KLTable()
    with pytest.raises(ArithmeticError, match="may overflow a 64-bit slot"):
        table.entries(60)
    built = len(table._entries)
    assert 10 < built < 60
    assert table._entries == list_horner_table(built - 1)
    with pytest.raises(ArithmeticError):
        table.poly(built)
    assert len(table._entries) == built


def test_phi_series_low_orders():
    assert phi_series(0) == (ZERO,)
    assert phi_series(1) == (ZERO, ONE)
    phi = phi_series(3)
    assert [c.coeffs for c in phi] == [(), (1,), (1,), (1, 1)]


def test_phi_series_rejects_bad_orders():
    with pytest.raises(ValueError):
        phi_series(-1)
    with pytest.raises(TypeError):
        phi_series("3")


def test_phi_series_coefficients_are_kl_polys():
    phi = phi_series(15)
    for n in range(14):
        assert phi[n + 1] == kl_poly(n)


def test_phi_series_catalan_column():
    phi = phi_series(21)
    assert phi[0].is_zero()
    for n in range(21):
        assert phi[n].evaluate(1) == (catalan(n - 1) if n else 0)


def test_verify_theorem_passes():
    assert verify_theorem(15).ok
    report = verify_theorem(1)
    assert report.ok and report.order == 1


def test_verify_theorem_rejects_zero_order():
    with pytest.raises(ValueError):
        verify_theorem(0)


def _corrupt(series: tuple, n: int, k: int) -> list:
    coeffs = list(series)
    coeffs[n + 1] += ONE.shifted(k)
    return coeffs


def test_verify_theorem_corrupted_fixture_names_cell():
    order = 21
    corrupted = _corrupt(phi_series(order), 9, 2)
    report = verify_theorem(order, series=corrupted)
    assert not report.ok
    assert len(report.mismatches) == 1
    bad = report.mismatches[0]
    assert (bad.n, bad.k) == (9, 2)
    assert bad.series == bad.recursion + 1
    assert bad.dyck_dp == bad.recursion == count_by_ascents_dp(9)[2]


def test_verify_theorem_checks_a_supplied_series():
    # any sequence of at least order + 1 IntPoly values
    honest = phi_series(6)
    assert verify_theorem(6, series=list(honest)).ok
    with pytest.raises(ValueError, match="shorter"):
        verify_theorem(7, series=honest)
    with pytest.raises(TypeError, match="IntPoly"):
        verify_theorem(6, series=honest[:3] + (1,) + honest[4:])
