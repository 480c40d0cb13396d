import functools
import hashlib
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagkl import symfunc
from thagkl.polynomials import IntPoly, ONE, T, ZERO
from thagkl.symfunc import (
    SchurPoly,
    conjugate,
    hook_dim,
    horizontal_strips,
    partitions_of,
    v_poly,
    v_poly_via_plethysm,
    vertical_strips,
    w_poly,
)
from schur_reference import (
    character_value,
    cycle_type_order,
    mul_w_pieri,
    pieri_oracle,
    rim_hooks_oracle,
    sign_t_power,
    strips_oracle,
    v_poly_via_characters,
)

T_MINUS_1 = T - ONE
T_MINUS_2 = T - 2 * ONE


def partition_count_oracle(n: int) -> int:
    """Euler's pentagonal-number recurrence, independent of the enumerator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p[n]


def test_partitions_base_and_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_counts_match_pentagonal_recurrence():
    for n in range(16):
        parts = partitions_of(n)
        assert len(parts) == partition_count_oracle(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(part > 0 for part in lam)


def test_partitions_reverse_lexicographic_order():
    for n in range(12):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for lam in partitions_of(9):
        assert conjugate(conjugate(lam)) == lam


def test_hook_dim_small():
    assert hook_dim((5,)) == 1
    assert hook_dim((2, 1)) == 2
    assert hook_dim((3, 1)) == 3
    assert hook_dim((2, 2)) == 2
    assert hook_dim(()) == 1


def test_hook_dim_squares_sum_to_factorial():
    for n in range(9):
        assert sum(hook_dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_horizontal_strips_examples():
    assert set(horizontal_strips((2, 1), 2)) == {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    assert set(horizontal_strips((), 3)) == {(3,)}
    assert set(horizontal_strips((2,), 0)) == {(2,)}
    # a negative size has no strips and a non-int size is refused, as for
    # vertical_strips
    for lam in [(), (2, 1)]:
        assert list(horizontal_strips(lam, -1)) == []
        with pytest.raises(TypeError):
            list(horizontal_strips(lam, 1.5))


def test_vertical_strips_examples():
    assert set(vertical_strips((2,), 2)) == {(3, 1), (2, 1, 1)}
    assert set(vertical_strips((), 3)) == {(1, 1, 1)}
    assert set(vertical_strips((2, 2), 1)) == {(3, 2), (2, 2, 1)}


def test_strips_match_brute_force_oracle():
    for n in range(9):
        for lam in partitions_of(n):
            for size in range(9):
                for walk, vertical in ((horizontal_strips, False), (vertical_strips, True)):
                    got = list(walk(lam, size))
                    assert len(got) == len(set(got)), (walk.__name__, lam, size)
                    assert set(got) == strips_oracle(lam, size, vertical), (
                        walk.__name__, lam, size)


def test_pieri_single_box():
    assert SchurPoly.h(1).mul_h(1) == SchurPoly({(2,): 1, (1, 1): 1})
    assert SchurPoly.h(1).mul_e(1) == SchurPoly({(2,): 1, (1, 1): 1})


def test_pieri_row_on_hook():
    got = SchurPoly({(2, 1): 1}).mul_h(2)
    assert got == SchurPoly({(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1})


def test_dual_pieri_column_on_row():
    assert SchurPoly.h(2).mul_e(2) == SchurPoly({(3, 1): 1, (2, 1, 1): 1})


def test_pieri_identity_elements():
    f = SchurPoly({(3, 1): IntPoly((1, 2)), (2, 2): T})
    assert f.mul_h(0) == f
    assert f.mul_e(0) == f


def test_pieri_rejects_negative_sizes():
    for f in (SchurPoly.one(), SchurPoly.h(2)):
        for size in (-1, -2):
            with pytest.raises(ValueError):
                f.mul_h(size)
            with pytest.raises(ValueError):
                f.mul_e(size)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([lam for n in range(6) for lam in partitions_of(n)]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_pieri_products_commute(lam, coeffs, a, b):
    f = SchurPoly({lam: IntPoly(coeffs)})
    assert f.mul_h(a).mul_h(b) == f.mul_h(b).mul_h(a)
    assert f.mul_e(a).mul_e(b) == f.mul_e(b).mul_e(a)
    assert f.mul_h(a).mul_e(b) == f.mul_e(b).mul_h(a)


def test_schurpoly_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        SchurPoly({(2,): 1, (1,): 1})


def test_zero_schurpoly_add_checks_degree():
    zero3 = SchurPoly({}, degree=3)
    with pytest.raises(ValueError):
        zero3 + SchurPoly.h(2)
    with pytest.raises(ValueError):
        SchurPoly.h(2) + zero3
    assert SchurPoly({}, degree=2) + SchurPoly.h(2) == SchurPoly.h(2)


def test_schurpoly_drops_zero_terms():
    f = SchurPoly({(2,): ZERO, (1, 1): 1})
    assert f.partitions() == [(1, 1)]
    assert f.coefficient((2,)) == ZERO


def test_w_poly_low_indices():
    assert w_poly(0) == SchurPoly.one()
    assert w_poly(1) == SchurPoly({(1,): T_MINUS_1})
    assert w_poly(2) == SchurPoly({(2,): T * T_MINUS_1, (1, 1): ONE - T})


def test_schurpoly_equality_sees_the_degree():
    # two zeros of different degrees cannot be added, so they are not equal
    assert SchurPoly({}, degree=3) != SchurPoly({}, degree=4)
    assert SchurPoly({}, degree=3) == SchurPoly({}, degree=3)
    assert hash(SchurPoly({}, degree=3)) != hash(SchurPoly({}, degree=4))
    with pytest.raises(ValueError):
        SchurPoly({}, degree=3) + SchurPoly({}, degree=4)
    # nonzero expansions carry their degree in their terms
    f = SchurPoly({(2, 1): IntPoly((1, -1))})
    assert f == SchurPoly({(2, 1): IntPoly((1, -1))}, degree=3)
    assert f != SchurPoly({(2, 2): IntPoly((1, -1))})


def mul_w_by_strips(f: SchurPoly, j: int) -> SchurPoly:
    """f * w_j through the solver's identity w(u) s(u) = s(tu) and the library's
    ``mul_h``: X = f w has X_0 = f and X_n = t^n f h_n - sum_{a>=1} X_(n-a) h_a."""
    xs = [f]
    for n in range(1, j + 1):
        x = f.mul_h(n).scaled(sign_t_power(0, n))
        for a in range(1, n + 1):
            x = x + xs[n - a].mul_h(a).scaled(-1)
        xs.append(x)
    return xs[j]


def test_mul_w_matches_pieri_reference_exhaustively():
    # the strip walk under the series identity, against the brute-force strips
    for n in range(8):
        for lam in partitions_of(n):
            f = SchurPoly({lam: 1})
            for j in range(8):
                assert mul_w_by_strips(f, j) == mul_w_pieri(f, j), (lam, j)


def _schur_polys(degree: int):
    coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(IntPoly)
    return st.dictionaries(
        st.sampled_from(partitions_of(degree)), coeffs, max_size=6
    ).map(lambda terms: SchurPoly(terms, degree=degree))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(_schur_polys), st.integers(0, 6))
def test_mul_w_matches_pieri_reference_on_sums(f, j):
    assert mul_w_by_strips(f, j) == mul_w_pieri(f, j)


def test_schur_poly_rejects_non_partitions():
    # an index that is not a partition would be carried through products
    for bad in [(1, 2), (2, 0), (0,), (3, -1), (2, 1, 2)]:
        with pytest.raises(ValueError):
            SchurPoly({bad: 1})
        with pytest.raises(ValueError):
            SchurPoly({bad: 0})
    for bad in [(2.0,), (True,), ("1",)]:
        with pytest.raises(TypeError):
            SchurPoly({bad: 1})
    assert SchurPoly({(2, 2, 1): 1, (): 0}).partitions() == [(2, 2, 1)]


def test_v_poly_low_indices():
    assert v_poly(0) == SchurPoly.one()
    assert v_poly(1) == SchurPoly({(1,): T_MINUS_2})
    assert v_poly(2) == SchurPoly(
        {(2,): IntPoly((1, -2, 1)), (1, 1): IntPoly((3, -2))}
    )


def test_v_poly_digest():
    # sha256 of repr(v_poly(l)) for l = 0..12, joined: pins the values and
    # the term order of the second tensor character
    joined = "".join(repr(v_poly(ell)) for ell in range(13))
    assert hashlib.sha256(joined.encode()).hexdigest() == (
        "52c5b7dd91a3e63bbf200b9030c34834a12f0f9af089ce781782ae8d309fbb97"
    )


def test_v_poly_matches_paper_form():
    # v_l = sum_{a+b+c=l} (-1)^(b+c) t^a h_a e_b e_c, by the brute-force strips
    for ell in range(9):
        total = SchurPoly({}, degree=ell)
        for a in range(ell + 1):
            for b in range(ell - a + 1):
                c = ell - a - b
                term = pieri_oracle(pieri_oracle(SchurPoly.h(a), b, True), c, True)
                total = total + term.scaled(sign_t_power(b + c, a))
        assert v_poly(ell) == total, ell


def test_w_poly_matches_pieri_reference():
    # the hook form against sum_(a+b=j) (-1)^b t^a h_a e_b by the brute-force strips
    for j in range(11):
        assert w_poly(j) == mul_w_pieri(SchurPoly.one(), j), j


def test_graded_dimensions_of_tensor_characters():
    for j in range(13):
        assert w_poly(j).graded_dimension() == T_MINUS_1**j
        assert v_poly(j).graded_dimension() == T_MINUS_2**j


def test_w_is_v_convolved_with_rows():
    # the trivial-summand decomposition: w_j = sum_l v_l * h_(j-l)
    for j in range(13):
        total = SchurPoly({}, degree=j)
        for ell in range(j + 1):
            total = total + v_poly(ell).mul_h(j - ell)
        assert total == w_poly(j)


def test_mul_w_scales_graded_dimension():
    # dim(f * w_j) = C(|f| + j, j) * dim(f) * (t-1)^j for the induction product
    rng = random.Random(5)
    lams = [lam for n in range(6) for lam in partitions_of(n)]
    for _ in range(30):
        coeff = IntPoly((rng.randrange(1, 5), rng.randrange(-3, 4)))
        f = SchurPoly({rng.choice(lams): coeff})
        j = rng.randrange(0, 5)
        expected = comb(f.degree + j, j) * f.graded_dimension() * T_MINUS_1**j
        assert mul_w_by_strips(f, j).graded_dimension() == expected
    with pytest.raises(ValueError):
        w_poly(-1)


def test_e_h_series_inverse():
    # sum_m (-1)^m e_m u^m is the reciprocal of sum_m h_m u^m, order <= 12
    for order in range(1, 13):
        acc = SchurPoly({}, degree=order)
        for m in range(order + 1):
            sign = -1 if m % 2 else 1
            acc = acc + SchurPoly.e(m).mul_h(order - m).scaled(sign)
        assert acc.is_zero()


def test_indices_reject_bools():
    # each call with 1 fills any cache entry that True would hit, as 1 == True
    f = SchurPoly({(2, 1): 1})
    calls = [
        partitions_of,
        w_poly,
        v_poly,
        SchurPoly.h,
        SchurPoly.e,
        f.mul_h,
        f.mul_e,
    ]
    for call in calls:
        call(1)
        with pytest.raises(TypeError):
            call(True)


def test_cycle_type_order():
    assert cycle_type_order(()) == 1
    assert cycle_type_order((1, 1, 1)) == 6
    assert cycle_type_order((3,)) == 3
    assert cycle_type_order((2, 1)) == 2
    for n in range(8):
        assert sum(
            factorial(n) // cycle_type_order(mu) for mu in partitions_of(n)
        ) == factorial(n)


def test_character_values_column_orthogonality_small():
    # characters on the identity are the hook dimensions
    for n in range(7):
        identity = (1,) * n
        for lam in partitions_of(n):
            assert character_value(lam, identity) == hook_dim(lam)


@functools.cache
def beta_set_character(lam, mu):
    """The border-strip rule on beta-sets: the former ``character_value``.

    Removing a border strip of size r from lam is removing r from one
    first-column hook length, with sign given by the number of hook lengths
    jumped over.
    """
    if not lam:
        return 1
    r, rest = mu[0], mu[1:]
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    present = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in present:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        new_lam = tuple(
            part for j, x in enumerate(new_beta) if (part := x - (rows - 1 - j)) > 0
        )
        total += (-1) ** height * beta_set_character(new_lam, rest)
    return total


def orthogonality_faults(chi, n):
    """The (kind, index, index) cells where chi's table breaks orthogonality.

    Rows: sum_mu (n!/z_mu) chi^lam(mu) chi^nu(mu) = n! [lam = nu].
    Columns: sum_lam chi^lam(mu) chi^lam(nu) = z_mu [mu = nu].
    """
    parts = partitions_of(n)
    table = {(lam, mu): chi(lam, mu) for lam in parts for mu in parts}
    size = {mu: factorial(n) // cycle_type_order(mu) for mu in parts}
    faults = []
    for a in parts:
        for b in parts:
            row = sum(size[mu] * table[a, mu] * table[b, mu] for mu in parts)
            if row != (factorial(n) if a == b else 0):
                faults.append(("row", a, b))
            column = sum(table[lam, a] * table[lam, b] for lam in parts)
            if column != (cycle_type_order(a) if a == b else 0):
                faults.append(("column", a, b))
    return faults


def test_character_table_orthogonality():
    for n in range(11):
        assert orthogonality_faults(character_value, n) == [], n


def test_character_table_orthogonality_rejects_a_flipped_sign():
    # negative control: chi^(n-1,1) on an n-cycle is -1; read as +1 it makes
    # row (n-1,1) meet row (n), and column (n) meet column 1^n
    for n in range(2, 11):
        hook = (n - 1, 1)

        def flipped(lam, mu):
            value = character_value(lam, mu)
            return -value if (lam, mu) == (hook, (n,)) else value

        faults = orthogonality_faults(flipped, n)
        assert ("row", hook, (n,)) in faults
        assert ("column", (n,), (1,) * n) in faults


def test_character_value_matches_beta_sets():
    for n in range(13):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character_value(lam, mu) == beta_set_character(lam, mu), (lam, mu)


def test_character_value_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        character_value((2, 1), (2,))


def test_character_sign_representation():
    assert character_value((1, 1), (2,)) == -1
    assert character_value((2,), (2,)) == 1
    assert character_value((1, 1, 1), (3,)) == 1
    assert character_value((2, 1), (3,)) == -1


def test_rim_hooks_match_brute_force():
    for n in range(8):
        for nu in partitions_of(n):
            for r in range(1, 7):
                expected = sorted(rim_hooks_oracle(nu, r))
                assert sorted(symfunc._rim_hooks(nu, r)) == expected, (nu, r)


def test_rim_hooks_examples():
    # p_3 = s[3] - s[2, 1] + s[1, 1, 1]
    assert sorted(symfunc._rim_hooks((), 3)) == [((1, 1, 1), 1), ((2, 1), -1), ((3,), 1)]
    # of the five shapes that add 2 boxes to (2, 1), only a flat and an
    # upright domino are border strips: p_2 s[2, 1] = s[4, 1] - s[2, 1, 1, 1]
    assert sorted(symfunc._rim_hooks((2, 1), 2)) == [((2, 1, 1, 1), -1), ((4, 1), 1)]


def test_v_poly_plethysm_cross_check():
    for ell in range(13):
        assert v_poly_via_plethysm(ell) == v_poly(ell)


def test_v_poly_plethysm_matches_character_table():
    for ell in range(11):
        assert v_poly_via_plethysm(ell) == v_poly_via_characters(ell), ell


def test_v_poly_plethysm_walks_no_pieri_strip(monkeypatch):
    # the plethysm is an independent route: with the strip walk and v_poly
    # gone, and its rows recomputed, it still gives every value
    expected = [v_poly_via_plethysm(ell) for ell in range(10)]

    def no_walk(*args):
        raise AssertionError("the plethysm walked a Pieri strip")

    monkeypatch.setattr(symfunc, "horizontal_strips", no_walk)
    monkeypatch.setattr(symfunc, "v_poly", no_walk)
    symfunc._plethysm_row.cache_clear()
    try:
        assert [v_poly_via_plethysm(ell) for ell in range(10)] == expected
    finally:
        symfunc._plethysm_row.cache_clear()


def test_v_poly_without_the_conjugation_back_fails_the_plethysm_check(monkeypatch):
    # negative control: v_poly sums omega(v_l); a copy that keeps those
    # shapes unconjugated must disagree with the plethysm route
    monkeypatch.setattr(symfunc, "conjugate", lambda lam: lam)
    v_poly.cache_clear()
    try:
        for ell in range(2, 7):
            assert v_poly(ell) != v_poly_via_plethysm(ell), ell
    finally:
        v_poly.cache_clear()


def test_v_poly_plethysm_rejects_a_non_integral_sum(monkeypatch):
    # negative control: p_3 = s[3] - s[2,1] + s[1,1,1]; reading +s[2,1] there
    # moves 3 H_3 at (2,1) by 2 (t^3 - 2), so its constant term -6 becomes -10
    honest = symfunc._rim_hooks

    def doctored(nu, r):
        terms = honest(nu, r)
        if (nu, r) == ((), 3):
            terms = [(lam, -sign if lam == (2, 1) else sign) for lam, sign in terms]
        return terms

    monkeypatch.setattr(symfunc, "_rim_hooks", doctored)
    symfunc._plethysm_row.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"fractional coefficient .*/3 at \(2, 1\)"):
            v_poly_via_plethysm(3)
    finally:
        symfunc._plethysm_row.cache_clear()
