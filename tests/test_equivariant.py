import hashlib

import pytest

from thagkl import equivariant
from thagkl.equivariant import (
    EqKLTable,
    conjecture_poly,
    conjecture_terms,
    eq_kl,
    kappa,
    omega,
    upsilon,
    verify_conjecture,
)
from thagkl.kl import kl_poly
from thagkl.polynomials import IntPoly, ONE, T, _unpack
from thagkl.symfunc import SchurPoly, v_poly, w_poly
from schur_reference import mul_w_pieri, pieri_oracle


def test_eq_kl_base_entry_is_trivial_class():
    assert eq_kl(0) == SchurPoly({(): 1})


def test_eq_kl_rank_two():
    assert eq_kl(1) == SchurPoly({(1,): 1})


def test_eq_kl_rank_three():
    assert eq_kl(2) == SchurPoly({(2,): IntPoly((1, 1))})


def test_eq_kl_rank_four():
    assert eq_kl(3) == SchurPoly({(3,): IntPoly((1, 2)), (2, 1): T})


def test_eq_kl_rank_five():
    assert eq_kl(4) == SchurPoly(
        {(4,): IntPoly((1, 3)), (3, 1): 2 * T, (2, 2): IntPoly((0, 1, 1))}
    )


def test_eq_kl_table_pinned_through_rank_thirteen():
    # digest of the table as first computed, before the solver was regrouped
    digest = hashlib.sha256(
        "".join(repr(eq_kl(n)) for n in range(13)).encode()
    ).hexdigest()
    assert digest == "8f0648b4768cbdec12176eef036a7b74297212e31bc456279565fea670c049cd"


def test_eq_kl_table_pinned_through_rank_fifteen():
    # digest of repr(eq_kl(n)) for n < 16 before the row kernel replaced the
    # per-product mul_w calls
    digest = hashlib.sha256(
        "".join(repr(eq_kl(n)) for n in range(16)).encode()
    ).hexdigest()
    assert digest == "d7e2a243db66490d7b1fbacaf90a50dbb9e2ec0b84a550cc7dcf0dd1304b20de"


def test_eq_kl_table_pinned_through_rank_eighteen():
    # digest of repr(eq_kl(n)) for n < 19 before the ribbon walk was packed
    digest = hashlib.sha256(
        "".join(repr(eq_kl(n)) for n in range(19)).encode()
    ).hexdigest()
    assert digest == "7dd2110aaf3eab64069b2891957740f701eb406055c5ef728ab4d19198d45b58"


def test_eq_kl_table_pinned_through_rank_twenty_two():
    # digest of repr(eq_kl(n)) for n < 23, the CLI's largest equivariant index
    digest = hashlib.sha256(
        "".join(repr(eq_kl(n)) for n in range(23)).encode()
    ).hexdigest()
    assert digest == "9db52d9c003c213ec13f3ca99578d60dc42623497468a6fab00abbe7724c2e9c"


def test_row_slots_stay_narrow(monkeypatch):
    # the proven width, from the summed 1-norms of the packed halves, is 13
    # bits at row 15 and at most 15 through row 22, and the table's slot,
    # rounded up to whole bytes by the codec's rule, is 16 bits at every row
    # from 15 to 22
    honest = equivariant._slot_bits
    widths, slots = [], []

    def spy(width):
        widths.append(width)
        slots.append(honest(width))
        return slots[-1]

    monkeypatch.setattr(equivariant, "_slot_bits", spy)
    EqKLTable().poly(22)
    assert len(slots) == 23
    assert widths[15] == 13
    assert max(widths[15:]) <= 15
    assert slots[15:] == [16] * 8


def test_slot_one_bit_short_is_refused(monkeypatch):
    # negative control: a slot rule one bit below the proven width raises
    # instead of reading strip sums whose digits may not fit
    monkeypatch.setattr(equivariant, "_slot_bits", lambda width: width - 1)
    with pytest.raises(ArithmeticError, match="may overflow"):
        EqKLTable().poly(15)


def test_slot_growth_packs_every_entry_again():
    # the slot starts at 8 bits and grows with the bound; each growth reads
    # every stored entry back at the old slot and packs it at the new one,
    # and the rows keep the pinned digest
    table = EqKLTable()
    assert table._slot == 8
    digest = hashlib.sha256(
        "".join(repr(table.poly(n)) for n in range(23)).encode()
    ).hexdigest()
    assert digest == "9db52d9c003c213ec13f3ca99578d60dc42623497468a6fab00abbe7724c2e9c"
    assert table._slot == 16
    for k, row in enumerate(table._packed):
        p_k, a_k = _stored_rows(table, k)
        assert {lam for lam, *_ in row} == p_k.keys() | a_k.keys()
        assert SchurPoly({lam: IntPoly(p) for lam, p in p_k.items()}, degree=k) == table.poly(k)
        for lam, packed_p, packed_a, reflected in row:
            p = p_k.get(lam, ())
            assert packed_p == IntPoly(p).evaluate(1 << 16)
            assert packed_a == IntPoly(a_k.get(lam, ())).evaluate(1 << 16)
            # R_k = t^(k+1) p_k(1/t)
            assert reflected == sum(c << 16 * (k + 1 - j) for j, c in enumerate(p))


def test_stored_partial_sums_match_products_with_w():
    # A_n = sum_i p_i w_(n-i), each product by the brute-force Pieri strips,
    # and the reflected p_n, which the rows read in place of (A w)_n, is
    # (t-1) w_n + sum_(i+j+m=n) p_i w_j w_m
    table = EqKLTable()
    table.poly(6)
    for n in range(7):
        p, a = _stored_rows(table, n)
        assert all(packed_p or packed_a for _, packed_p, packed_a, _ in table._packed[n])
        assert _as_schur(p, n) == table.poly(n)
        expected_a = SchurPoly({}, degree=n)
        expected_d = w_poly(n).scaled(T - ONE)
        for i in range(n + 1):
            expected_a = expected_a + mul_w_pieri(table.poly(i), n - i)
            for j in range(n - i + 1):
                expected_d = expected_d + mul_w_pieri(mul_w_pieri(table.poly(i), j), n - i - j)
        assert _as_schur(a, n) == expected_a
        reflected = SchurPoly({lam: IntPoly(c.coeffs[::-1]).shifted(n + 1 - c.degree())
                               for lam, c in table.poly(n).terms()}, degree=n)
        assert reflected == expected_d


def test_dropped_strip_is_caught(monkeypatch):
    # negative control: a strip walk that loses one strip of each (lam, a)
    # leaves a right-hand side that the reflection window check refuses
    honest = equivariant.horizontal_strips

    def dropping(lam, size):
        strips = honest(lam, size)
        next(strips, None)
        yield from strips

    monkeypatch.setattr(equivariant, "horizontal_strips", dropping)
    with pytest.raises(ArithmeticError, match="inconsistent reflection"):
        EqKLTable().poly(8)


def test_eq_kl_graded_dimension_recovers_scalar():
    for n in range(11):
        assert eq_kl(n).graded_dimension() == kl_poly(n)


def test_eq_kl_coefficients_nonnegative():
    for n in range(11):
        for _, coeff in eq_kl(n).terms():
            assert all(c >= 0 for c in coeff.coeffs)


def test_eq_kl_degree_bound():
    for n in range(11):
        for _, coeff in eq_kl(n).terms():
            assert coeff.degree() <= n // 2


def test_eq_kl_trivial_representation_in_degree_zero():
    for n in range(11):
        assert eq_kl(n).coefficient((n,) if n else ()).constant_term() == 1


def _rhs_reference(n: int, table: EqKLTable) -> SchurPoly:
    """Recursion right-hand side in the paper's form, over all ordered triples.

    The first term keeps the v-sum (t-1) * sum_l v_l h_(n-l), which the solver
    replaces by (t-1) * w_n; table entries below n must already be built.
    Every product is taken over the brute-force strips, not the solver's walk.
    """
    total = SchurPoly({}, degree=n)
    for ell in range(n + 1):
        total = total + pieri_oracle(v_poly(ell), n - ell, vertical=False)
    total = total.scaled(T - ONE)
    for i in range(n):
        for j in range(n - i + 1):
            m = n - i - j
            total = total + mul_w_pieri(mul_w_pieri(table.poly(i), j), m)
    return total


def _stored_rows(table: EqKLTable, k: int) -> tuple[dict, dict]:
    """p_k and A_k of the table's row k, read back from its packed entries."""
    slot = table._slot
    p, a = {}, {}
    for lam, packed_p, packed_a, _ in table._packed[k]:
        for terms, packed in ((p, packed_p), (a, packed_a)):
            if coeffs := _unpack(packed, slot):
                terms[lam] = coeffs
    return p, a


def _as_schur(terms: dict, n: int) -> SchurPoly:
    # a dict from partition to coefficient sequence, as ``_recursion_rhs``
    # returns and ``_stored_rows`` reads back, with no zero on top
    assert all(coeffs and coeffs[-1] for coeffs in terms.values())
    return SchurPoly({lam: IntPoly(coeffs) for lam, coeffs in terms.items()}, degree=n)


def test_symmetrized_rhs_matches_ordered_reference():
    table = EqKLTable()
    for n in range(7):
        table.poly(n)
        rhs, below = table._recursion_rhs(n)
        rhs, below = _as_schur(rhs, n), _as_schur(below, n)
        assert rhs == _rhs_reference(n, table)
        expected_below = SchurPoly({}, degree=n)
        for i in range(n):
            expected_below = expected_below + mul_w_pieri(table.poly(i), n - i)
        assert below == expected_below
        assert below.degree == n


def test_upsilon_small_families():
    assert upsilon(2) == ()
    assert upsilon(3) == ((2, 1),)
    assert upsilon(4) == ((3, 1), (2, 2))
    assert upsilon(5) == ((4, 1), (3, 2), (2, 2, 1))


def test_upsilon_excludes_unit_second_part():
    # shapes like [2, 1, 1] (second entry 1) are never admitted
    for n in range(2, 12):
        for lam in upsilon(n):
            assert sum(lam) == n
            assert 2 <= lam[0] < n
            if len(lam) > 1:
                assert lam[1] != 1 or lam == (lam[0], 1)
    assert (2, 1, 1) not in upsilon(4)


def test_kappa_and_omega():
    assert kappa((2, 1), 3) == 1  # the [n-1, 1] special case
    assert kappa((3, 1), 4) == 2
    assert kappa((2, 2), 4) == 1
    assert kappa((4, 2), 6) == 3
    assert omega((2, 2)) == 1
    assert omega((2, 2, 1)) == 0
    assert omega((3, 2)) == 1


def test_conjecture_terms_structure():
    terms = {term.partition: term for term in conjecture_terms(5)}
    assert set(terms) == {(4, 1), (3, 2), (2, 2, 1)}
    assert terms[(4, 1)].kappa == 3 and terms[(4, 1)].omega == 0
    assert terms[(3, 2)].kappa == 2 and terms[(3, 2)].omega == 1
    assert terms[(2, 2, 1)].ell == 3


def test_conjecture_poly_smallest():
    assert conjecture_poly(1) == SchurPoly({(1,): 1})


def test_conjecture_poly_rank_four():
    assert conjecture_poly(3) == SchurPoly({(3,): IntPoly((1, 2)), (2, 1): T})


def test_conjecture_poly_rank_five():
    expected = SchurPoly(
        {(4,): IntPoly((1, 3)), (3, 1): 2 * T, (2, 2): T * (T + ONE)}
    )
    assert conjecture_poly(4) == expected


# True would otherwise be read as the index 1
@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
def test_indices_reject_non_ints(bad):
    with pytest.raises(TypeError):
        eq_kl(bad)
    with pytest.raises(TypeError):
        verify_conjecture(bad)


def test_closed_form_helpers_reject_bools():
    # the call with 1 fills the cache entry that True would hit, as 1 == True
    for call in (conjecture_poly, upsilon):
        call(1)
        with pytest.raises(TypeError):
            call(True)


def test_conjecture_poly_rejects_zero():
    with pytest.raises(ValueError):
        conjecture_poly(0)


def test_verify_conjecture_passes():
    report = verify_conjecture(5)
    assert report.ok and not report.mismatches


def test_verify_conjecture_negative_control():
    # misdefine kappa([2, 2]) as 2: the prediction gains an extra t*(t+1)*s[2,2]
    broken = conjecture_poly(4) + SchurPoly({(2, 2): T * (T + ONE)})
    report = verify_conjecture(5, candidates={4: broken})
    assert not report.ok
    assert [(m.n, m.partition) for m in report.mismatches] == [(4, (2, 2))]
    mismatch = report.mismatches[0]
    assert mismatch.predicted == mismatch.computed * 2
