import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagkl.polynomials import (
    IntPoly,
    ONE,
    PolySeries,
    T,
    ZERO,
    expand_F,
    poly_reverse,
    solve_reflection_equation,
)

T_MINUS_1 = T - ONE
T_MINUS_2 = T - 2 * ONE


def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly().is_zero()
    assert IntPoly((0, 0)).degree() == -1


def test_mul_binomial_square():
    assert T_MINUS_1 * T_MINUS_1 == IntPoly((1, -2, 1))


def test_mul_chi_of_index_one():
    # (t-1)(t-2) is the characteristic polynomial of the smallest nontrivial case
    assert T_MINUS_1 * T_MINUS_2 == IntPoly((2, -3, 1))


def test_mul_absorbing_zero():
    assert ZERO * T_MINUS_2 == ZERO
    assert (ZERO * 5).is_zero()


def test_mul_ring_axioms_randomized():
    rng = random.Random(20260808)

    def rand_poly():
        deg = rng.randrange(0, 6)
        return IntPoly([rng.randrange(-9, 10) for _ in range(deg + 1)])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("bad", [2.5, "t", None, [1, 2]])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_rejects_non_integer_operands(op, bad):
    p = IntPoly((1, 2))
    with pytest.raises(TypeError):
        op(p, bad)
    with pytest.raises(TypeError):
        op(bad, p)


def test_reverse_basic_window():
    assert poly_reverse(3, IntPoly((1, 1))) == IntPoly((0, 0, 1, 1))


def test_reverse_of_degree_one_in_window_five():
    # reflection of 1 + 4t (the n=3 polynomial per the Dyck oracle)
    assert poly_reverse(5, IntPoly((1, 4))) == IntPoly((0, 0, 0, 0, 4, 1))


def test_reverse_rejects_degree_overflow():
    with pytest.raises(ValueError):
        poly_reverse(1, IntPoly((0, 0, 1)))


def test_reverse_is_window_involution():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randrange(0, 8)
        deg = rng.randrange(-1, r + 1)
        p = IntPoly([rng.randrange(-5, 6) for _ in range(deg + 1)])
        assert poly_reverse(r, poly_reverse(r, p)) == p


def test_str_rendering():
    assert str(IntPoly((1, 11, 2))) == "1 + 11*t + 2*t^2"
    assert str(IntPoly((2, -3, 1))) == "2 - 3*t + t^2"
    assert str(ZERO) == "0"
    assert str(IntPoly((0, -1))) == "-t"


def test_evaluate():
    assert IntPoly((1, 11, 2)).evaluate(1) == 14
    assert IntPoly((1, 11, 2)).evaluate(-2) == -13
    assert ZERO.evaluate(5) == 0


def test_series_constructor_rejects_overflow():
    with pytest.raises(ValueError):
        PolySeries(1, (ONE, ONE, ONE))


def test_expand_F_order_zero():
    assert expand_F(0) == PolySeries(0, (ONE,))


def test_expand_F_first_coefficients():
    f = expand_F(2)
    assert f.coefficient(0) == ONE
    assert f.coefficient(1) == ONE
    assert f.coefficient(2) == IntPoly((1, 1))


def test_expand_F_catalan_specialization():
    # row sums at t=1 count all Dyck paths of each semilength
    catalans = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
                742900, 2674440, 9694845, 35357670, 129644790, 477638700,
                1767263190, 6564120420]
    f = expand_F(20)
    for n, expected in enumerate(catalans):
        assert f.coefficient(n).evaluate(1) == expected


def _series_product(a: list, b: list, order: int) -> list:
    """Coefficients of a(u) * b(u) up to u^order, schoolbook."""
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


def test_expand_F_satisfies_quadratic():
    order = 30
    f = list(expand_F(order).coeffs)
    # u*(1 - u + t*u) * F^2 - F + 1 vanishes through u^order
    factor = [ZERO, ONE, T_MINUS_1]
    lhs = _series_product(factor, _series_product(f, f, order), order)
    residual = [p - q for p, q in zip(lhs, f)]
    residual[0] = residual[0] + 1
    assert all(c.is_zero() for c in residual)


@st.composite
def rank_and_low_poly(draw):
    """A rank r and a polynomial of degree at most (r - 1) // 2."""
    rank = draw(st.integers(1, 16))
    coeffs = draw(st.lists(st.integers(-50, 50), max_size=(rank - 1) // 2 + 1))
    return rank, IntPoly(coeffs)


@settings(max_examples=150, deadline=None)
@given(rank_and_low_poly())
def test_solve_reflection_round_trip(case):
    rank, p = case
    rhs = poly_reverse(rank, p) - p
    assert solve_reflection_equation(rank, rhs) == p


def test_solve_reflection_rejects_inconsistent_rhs():
    # rhs = t^3 alone has no solution: the low window should mirror -P
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(3, IntPoly((0, 0, 0, 1)) + ONE)
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(3, IntPoly((0, 0, 1)))
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(2, IntPoly((0, 0, 0, 1)))
