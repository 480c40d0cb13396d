"""Property tests: the product and the series root against schoolbook
references, the ring laws, the Dyck table and the Horner form of the rank
recursion."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagkl.dyck import DyckTable, catalan, count_by_ascents_dp
from thagkl.kl import KLTable, kl_poly
from thagkl.polynomials import (
    ONE,
    ZERO,
    IntPoly,
    expand_F,
    solve_reflection_equation,
)


def schoolbook(a, b):
    """Reference product of two coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# powers of two and their neighbours are where a carry or a sign change
# crosses a bit boundary of the product's big integers
edge_values = st.builds(
    lambda k, delta, sign: sign * (2**k + delta),
    st.integers(0, 300),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([-1, 1]),
)
coefficients = st.one_of(st.integers(-(2**300), 2**300), edge_values)
coefficient_lists = st.lists(coefficients, min_size=0, max_size=24)
small_polys = st.lists(st.integers(-50, 50), max_size=20).map(IntPoly)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_product_matches_schoolbook(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(schoolbook(a, b))


def series_by_schoolbook(order):
    """F_m from the defining convolution F = 1 + u*(1-u+t*u)*F^2, with IntPoly products."""
    t_minus_1 = IntPoly((-1, 1))
    fs = [ONE]
    for m in range(1, order + 1):
        first = sum((fs[a] * fs[m - 1 - a] for a in range(m)), ZERO)
        second = sum((fs[a] * fs[m - 2 - a] for a in range(m - 1)), ZERO)
        fs.append(first + t_minus_1 * second)
    return fs


def test_series_matches_defining_convolution():
    assert list(expand_F(40)) == series_by_schoolbook(40)


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    assert a - a == ZERO
    assert a + ZERO == a and a * ONE == a and (a * ZERO).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(-(2**70), 2**70))
def test_int_operands_act_as_constants(a, m):
    const = IntPoly((m,))
    assert a + m == m + a == a + const
    assert a - m == a - const and m - a == const - a
    assert a * m == m * a == a * const


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=8))
def test_dyck_table_rows_do_not_depend_on_request_order_or_size(ns):
    ascending, descending = DyckTable(max(ns)), DyckTable(max(ns))
    up = {n: ascending.row(n) for n in sorted(ns)}
    down = {n: descending.row(n) for n in sorted(ns, reverse=True)}
    assert up == down
    # a table of size n prunes more heights than one of size max(ns)
    assert all(row == count_by_ascents_dp(n) for n, row in up.items())


def test_dyck_table_returns_fresh_rows():
    table = DyckTable(6)
    row = table.row(6)
    expected = dict(row)
    row[0] += 1
    row[99] = 1
    assert table.row(6) == expected
    assert table.row(6) is not table.row(6)
    fresh = count_by_ascents_dp(6)
    fresh.clear()
    assert count_by_ascents_dp(6) == expected


def test_dyck_table_rejects_rows_outside_its_range():
    table = DyckTable(5)
    with pytest.raises(ValueError):
        table.row(6)
    with pytest.raises(ValueError):
        table.row(-1)
    with pytest.raises(ValueError):
        DyckTable(-1)


def rhs_by_powers(n, entries):
    """(t-1)^(n+1) + sum_{i<n} C(n,i) 2^(n-i) (t-1)^(n-i) P_i, term by term."""
    t_minus_1 = IntPoly((-1, 1))
    rhs = t_minus_1 ** (n + 1)
    for i in range(n):
        rhs = rhs + comb(n, i) * 2 ** (n - i) * t_minus_1 ** (n - i) * entries[i]
    return rhs


def test_horner_rows_match_the_power_sum_formula():
    entries = KLTable().entries(40)
    for n in range(41):
        assert entries[n] == solve_reflection_equation(n + 1, rhs_by_powers(n, entries))


def test_kl_polys_at_one_are_catalan_numbers():
    for n in range(201):
        p = kl_poly(n)
        assert p.evaluate(1) == catalan(n)
        assert p.constant_term() == 1
        assert p.degree() <= n // 2
        assert all(c >= 0 for c in p.coeffs)
