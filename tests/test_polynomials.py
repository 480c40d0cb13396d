import operator
import random
import re
from math import comb

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thagkl.polynomials import (
    IntPoly,
    ONE,
    T,
    ZERO,
    _pack,
    _unpack,
    expand_F,
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


def test_shifted_rejects_negative_and_bool_shifts():
    # T.shifted(-1) returned T unshifted, and shifted(True) shifted by one
    assert T.shifted(2) == IntPoly((0, 0, 0, 1))
    for p in (T, ZERO):
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            p.shifted(-1)
        with pytest.raises(TypeError, match="shift must be an int"):
            p.shifted(True)


def reflected(r: int, p: IntPoly) -> IntPoly:
    """t^r p(1/t): the coefficients of p reversed in the window 0..r."""
    assert p.degree() <= r
    return IntPoly(p[r - k] for k in range(r + 1))


def test_str_rendering():
    assert str(IntPoly((1, 11, 2))) == "1 + 11*t + 2*t^2"
    assert str(IntPoly((2, -3, 1))) == "2 - 3*t + t^2"
    assert str(ZERO) == "0"
    assert str(IntPoly((0, -1))) == "-t"


def test_evaluate():
    assert IntPoly((1, 11, 2)).evaluate(1) == 14
    assert IntPoly((1, 11, 2)).evaluate(-2) == -13
    assert ZERO.evaluate(5) == 0


def test_expand_F_order_zero():
    assert expand_F(0) == (ONE,)


def test_expand_F_first_coefficients():
    assert expand_F(2) == (ONE, ONE, IntPoly((1, 1)))


def test_expand_F_catalan_specialization():
    # row sums at t=1 count all Dyck paths of each semilength
    f = expand_F(300)
    for n in range(301):
        assert f[n].evaluate(1) == comb(2 * n, n) // (n + 1)


def test_expand_F_rejects_bad_orders():
    with pytest.raises(ValueError):
        expand_F(-1)
    with pytest.raises(TypeError):
        expand_F(2.5)


def _series_product(a: list, b: list, order: int) -> list:
    """Coefficients of a(u) * b(u) up to u^order, schoolbook."""
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


def test_expand_F_satisfies_quadratic():
    order = 30
    f = list(expand_F(order))
    # u*(1 - u + t*u) * F^2 - F + 1 vanishes through u^order
    factor = [ZERO, ONE, T_MINUS_1]
    lhs = _series_product(factor, _series_product(f, f, order), order)
    residual = [p - q for p, q in zip(lhs, f)]
    residual[0] = residual[0] + 1
    assert all(c.is_zero() for c in residual)


def test_recurrence_follows_from_the_quadratic():
    t, u, n, F = sp.symbols("t u n F")
    a = u * (1 + (t - 1) * u)
    da = sp.diff(a, u)
    quadratic = a * F**2 - F + 1
    # implicit differentiation: F' = -(dQ/du) / (dQ/dF) on the curve Q = 0
    fprime = -sp.diff(quadratic, u) / sp.diff(quadratic, F)
    residual = a * (1 - 4 * a) * fprime + da * (1 - 2 * a) * F - da
    numerator = sp.numer(sp.together(residual))
    assert sp.rem(numerator, quadratic, F, domain=sp.QQ.frac_field(t, u)) == 0

    # [u^n] of u^j F' is (n-j+1) F_{n-j+1}, of u^j F is F_{n-j}; [u^n] a' = 0 for n >= 2
    assert sp.Poly(da, u).degree() == 1
    Fn = sp.Function("F")
    coeff = sum(
        c * (n - j + 1) * Fn(n - j + 1)
        for (j,), c in sp.Poly(sp.expand(a * (1 - 4 * a)), u).terms()
    ) + sum(c * Fn(n - j) for (j,), c in sp.Poly(sp.expand(da * (1 - 2 * a)), u).terms())
    coeff = sp.expand(coeff)
    derived = [coeff.coeff(Fn(n - j)) for j in range(4)]
    assert sp.expand(coeff - sum(d * Fn(n - j) for j, d in enumerate(derived))) == 0
    # the recurrence as documented in expand_F, moved to one side
    documented = [
        n + 1,
        (n + 1) * t - (5 * n - 1),
        -2 * (4 * n - 5) * (t - 1),
        -4 * (n - 2) * (t - 1) ** 2,
    ]
    assert all(sp.expand(d - e) == 0 for d, e in zip(derived, documented))

    # and the coded coefficients satisfy the derived recurrence
    f = expand_F(100)
    assert f[0] == f[1] == ONE
    for m in range(2, 101):
        total = ZERO
        for j, d in enumerate(derived):
            if m - j >= 0:
                cs = sp.Poly(d.subs(n, m), t).all_coeffs()[::-1]
                total = total + IntPoly(int(c) for c in cs) * f[m - j]
        assert total.is_zero(), m


def test_expand_F_matches_sympy_series_root():
    order = 12
    t, u, F = sp.symbols("t u F")
    a = u * (1 + (t - 1) * u)
    # 2a * root is 1 -/+ sqrt(1 - 4a); the power-series root is the one
    # whose cleared form vanishes at u = 0 (the other has a pole there)
    (cleared,) = [
        c for c in (sp.expand(2 * a * r) for r in sp.solve(a * F**2 - F + 1, F))
        if c.subs(u, 0) == 0
    ]
    expected = sp.series(cleared, u, 0, order + 2).removeO()
    f = expand_F(order)
    ours = sum(sp.Poly(p.coeffs[::-1], t).as_expr() * u**m for m, p in enumerate(f) if p)
    # a starts with u, so 2a * F through u^(order+1) pins F through u^order
    difference = sp.expand(2 * a * ours - expected)
    assert all(difference.coeff(u, m) == 0 for m in range(order + 2))


def test_expand_F_matches_catalan_composition():
    # F = C(u (1 + (t-1) u)) with C the Catalan series, so
    # F_n = sum_k Cat_k C(k, n-k) (t-1)^(n-k)
    order = 120
    powers = [ONE]
    for _ in range(order // 2):
        powers.append(powers[-1] * T_MINUS_1)
    f = expand_F(order)
    for n in range(order + 1):
        expected = ZERO
        for k in range((n + 1) // 2, n + 1):
            expected = expected + comb(2 * k, k) // (k + 1) * comb(k, n - k) * powers[n - k]
        assert f[n] == expected, n


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
    rhs = reflected(rank, p) - p
    assert solve_reflection_equation(rank, rhs) == p


def test_solve_reflection_rejects_inconsistent_rhs():
    # rhs = t^3 alone has no solution: the low window should mirror -P
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(3, IntPoly((0, 0, 0, 1)) + ONE)
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(3, IntPoly((0, 0, 1)))
    with pytest.raises(ArithmeticError):
        solve_reflection_equation(2, IntPoly((0, 0, 0, 1)))


GAP = " in the window between -P and its reflection"


@pytest.mark.parametrize("rank, coeffs, message", [
    # P = 1 read off t^3, so t^0 should hold -1
    (3, (0, 0, 0, 1), "inconsistent reflection: coefficient of t^0 is 0, expected -1"),
    # P = 1 + 2t read off t^4 and t^3; t^0 holds -1, t^1 should hold -2
    (4, (-1, 0, 0, 2, 1), "inconsistent reflection: coefficient of t^1 is 0, expected -2"),
    # P = 1, -P = -1 at t^0, and t^1 lies in the gap
    (2, (-1, 5, 1), "inconsistent reflection: coefficient of t^1 is 5, expected 0" + GAP),
    # P = 1 + 2t read off t^6..t^4, -P at t^0..t^2, and t^3 is the gap
    (6, (-1, -2, 0, 7, 0, 2, 1), "inconsistent reflection: coefficient of t^3 is 7, expected 0" + GAP),
    (3, (0, 0, 0, 0, 1), "right-hand side has degree 4 > rank 3"),
])
def test_solve_reflection_messages_name_the_bad_coefficient(rank, coeffs, message):
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        solve_reflection_equation(rank, IntPoly(coeffs))


@pytest.mark.parametrize("rank", [0, -1])
def test_solve_reflection_rejects_nonpositive_rank(rank):
    with pytest.raises(ValueError, match="rank must be positive"):
        solve_reflection_equation(rank, ZERO)


def reference_solve_reflection(rank: int, rhs: IntPoly) -> IntPoly:
    """The solver as one loop per window, kept as the reference."""
    if rank <= 0:
        raise ValueError("rank must be positive")
    if rhs.degree() > rank:
        raise ArithmeticError(
            f"right-hand side has degree {rhs.degree()} > rank {rank}"
        )
    dmax = (rank - 1) // 2
    solution = IntPoly(rhs[rank - k] for k in range(dmax + 1))
    for j in range(dmax + 1):
        if rhs[j] != -solution[j]:
            raise ArithmeticError(
                f"inconsistent reflection: coefficient of t^{j} is {rhs[j]}, "
                f"expected {-solution[j]}"
            )
    for j in range(dmax + 1, rank - dmax):
        if rhs[j] != 0:
            raise ArithmeticError(
                f"inconsistent reflection: coefficient of t^{j} is {rhs[j]}, "
                "expected 0 in the window between -P and its reflection"
            )
    return solution


@st.composite
def reflection_cases(draw):
    """A rank and a right-hand side: consistent, or one made so and then
    changed at a few coefficients, or drawn at random."""
    rank = draw(st.integers(-1, 12))
    kind = draw(st.sampled_from(["consistent", "perturbed", "random"]))
    if kind == "random" or rank <= 0:
        coeffs = draw(st.lists(st.integers(-3, 3), max_size=max(rank, 0) + 3))
        return rank, IntPoly(coeffs)
    low =IntPoly(draw(st.lists(st.integers(-20, 20), max_size=(rank - 1) // 2 + 1)))
    coeffs = list((reflected(rank, low) - low).coeffs) + [0] * (rank + 3)
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, rank + 1))
            coeffs[k] += draw(st.integers(-2, 2).filter(bool))
    return rank, IntPoly(coeffs)


def outcome(solve, rank, rhs):
    try:
        return solve(rank, rhs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(reflection_cases())
def test_solve_reflection_matches_reference_loop(case):
    rank, rhs = case
    assert outcome(solve_reflection_equation, rank, rhs) == outcome(
        reference_solve_reflection, rank, rhs)


def reference_unpack(value: int, slot: int) -> list[int]:
    """The codec's read as one loop step per digit, for every slot."""
    mask, half = (1 << slot) - 1, 1 << (slot - 1)
    digits = []
    for _ in range(value.bit_length() // slot + 1):
        digit = value & mask
        value >>= slot
        if digit >= half:
            digit -= 1 << slot
            value += 1
        digits.append(digit)
    if value:
        digits.append(value)
    while digits and not digits[-1]:
        digits.pop()
    return digits


@st.composite
def slot_and_digits(draw, slots=st.integers(2, 70), max_size=12):
    """A slot and a digit list in its signed range, no zero on top."""
    slot = draw(slots)
    half = 1 << (slot - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from([-half, half - 1, 0]))
    digits = draw(st.lists(digit, max_size=max_size))
    while digits and not digits[-1]:
        digits.pop()
    return slot, digits


def check_round_trip(slot, digits):
    value = _pack(digits, slot)
    assert _unpack(value, slot) == digits
    assert _unpack(value, slot) == reference_unpack(value, slot)
    assert _unpack(-value, slot) == reference_unpack(-value, slot)
    # packed sums and products are the polynomial's, evaluated at t = 2^slot
    assert value == IntPoly(digits).evaluate(1 << slot)


@settings(max_examples=300, deadline=None)
@given(slot_and_digits())
# a digit of -2^(slot-1) below a top 1 leaves the value a slot's bits short
@example((2, [-1, -2, 1]))
@example((5, [0, 5, -16, -16, 1]))
def test_pack_round_trip(case):
    check_round_trip(*case)


@settings(max_examples=300, deadline=None)
@given(slot_and_digits(st.sampled_from([8, 16, 24, 32, 40, 64, 72, 128, 256, 1024]),
                       max_size=300))
# the carry case: a top 1 above -2^(slot-1), in slots read as native words
# (1, 2 and 8 bytes) and as byte slices
@example((8, [3, -(1 << 7), 1]))
@example((16, [3, -(1 << 15), 1]))
@example((64, [3, -(1 << 63), 1]))
# one digit, the extremes of the signed range included
@example((8, [-(1 << 7)]))
@example((16, [(1 << 15) - 1]))
@example((24, [-1]))
@example((64, [3] * 20 + [-(1 << 63), 1]))
@example((64, [-(1 << 63)] * 30 + [1]))
@example((1024, [0] * 20 + [-(1 << 1023), 1]))
@example((72, [(1 << 71) - 1] * 17 + [-(1 << 71), 1]))
def test_pack_round_trip_byte_aligned(case):
    check_round_trip(*case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(slot_and_digits(), slot_and_digits(st.sampled_from([16, 64, 128]))),
       st.integers(0, 12))
def test_pack_digit_out_of_range_does_not_round_trip(case, where):
    # negative control: a digit of +2^(slot-1) is one past the signed range,
    # so it reads back as -2^(slot-1) with a carry into the digit above it
    slot, digits = case
    digits = digits[:where] + [1 << (slot - 1)] + digits[where:]
    assert _unpack(_pack(digits, slot), slot) != digits
