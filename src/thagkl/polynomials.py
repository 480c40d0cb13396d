"""Exact polynomial arithmetic over arbitrary-precision integers.

``IntPoly`` is a dense univariate polynomial in ``t``, coefficients indexed
by exponent starting with the constant term.  A power series in a second
variable ``u``, truncated at order N inclusive, is a plain tuple of N + 1
``IntPoly`` values, the coefficient of ``u^m`` at index m.

Everything is immutable and exact; no floats anywhere.  Sums work on the
coefficient lists directly; products use the schoolbook double loop.

The module also houses what the higher layers share: the packed-polynomial
codec ``_pack``/``_unpack`` (a polynomial as one int, its value at t =
2^slot), the coefficient recurrence for the series root ``F`` of
``u*(1 - u + t*u)*F^2 - F + 1 = 0`` and the reflection trick that extracts a
low-degree polynomial ``P`` from an identity ``t^r * P(1/t) - P(t) = q(t)``.
F is algebraic, so its u-coefficients satisfy a linear recurrence whose
coefficients are polynomials in n and t (Stanley, "Differentiably finite
power series", 1980); ``expand_F`` runs that order-3 recurrence on plain
integer coefficient lists, one O(n) pass per coefficient.

The codec reads a packed value back as signed digits in one of two ways,
with one result.  A slot of whole bytes is read in one ``to_bytes`` call,
then as native signed words or byte slices: the 64-bit lattice rows of
``flats``, the KL rows of ``kl`` and the strip rows of ``equivariant``.
Any other slot, such as the Dyck DP's 2 * max_n + 1 bits, is read by a
loop of one shift per digit.  ``_slot_bits`` is the one rule by which the
two growing tables, ``kl``'s and ``equivariant``'s, pick such a slot for a
digit width.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import sys
from typing import Iterable, Sequence, Union


@dataclasses.dataclass(frozen=True, init=False)
class IntPoly:
    """Polynomial in t with integer coefficients, stored densely.

    ``coeffs[k]`` is the coefficient of ``t^k``; the top stored coefficient is
    always nonzero, and the zero polynomial stores the empty tuple.  A
    coefficient whose type is not ``int`` itself (a bool, a float) raises
    ``TypeError``.  Sums, differences and products accept an ``IntPoly`` or
    an ``int``; any other operand, a bool included, gives ``NotImplemented``,
    so Python raises ``TypeError``.

    >>> IntPoly((1, 0, 2)) * IntPoly((0, 1))
    IntPoly(coeffs=(0, 1, 0, 2))
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        top = len(cs)
        while top and cs[top - 1] == 0:
            top -= 1
        object.__setattr__(self, "coeffs", cs[:top] if top < len(cs) else cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        """Coefficient of t^k, zero outside the stored window."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, IntPoly):
            b = other.coeffs
        elif type(other) is int:
            b = (other,)
        else:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, IntPoly):
            b = other.coeffs
        elif type(other) is int:
            b = (other,)
        else:
            return NotImplemented
        a = self.coeffs
        out = [x - y for x, y in zip(a, b)]
        if len(a) >= len(b):
            out.extend(a[len(b):])
        else:
            out.extend(-y for y in b[len(a):])
        return IntPoly(out)

    def __rsub__(self, other: Union[IntPoly, int]) -> IntPoly:
        if type(other) is not int:
            return NotImplemented
        return -self + other

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: Union[IntPoly, int]) -> IntPoly:
        if type(other) is int:
            return IntPoly([c * other for c in self.coeffs]) if other else ZERO
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        _check_index(n, "exponent")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> IntPoly:
        """Multiply by t^k."""
        _check_index(k, "shift")
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation by Horner's scheme.

        A point whose type is not ``int`` itself (a bool, a float) raises
        ``TypeError``, as a coefficient does.
        """
        if type(x) is not int:
            raise TypeError(f"the point must be an int, got {type(x).__name__}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def constant_term(self) -> int:
        return self[0]

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _check_index(value: object, what: str, low: int = 0) -> None:
    """Raise unless ``value`` is an int of at least ``low``, which is 0 or 1.

    A bool or any other non-int raises ``TypeError`` (True would pass as 1).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{what} must be {'positive' if low else 'nonnegative'}")


def _as_poly(value: Union[IntPoly, int]) -> IntPoly:
    if isinstance(value, IntPoly):
        return value
    return IntPoly((value,))


def _pack(coeffs: Sequence[int], slot: int) -> int:
    """The value at t = 2^slot of the polynomial with these coefficients, lowest first."""
    value = 0
    for c in reversed(coeffs):
        value = (value << slot) + c
    return value


def _unpack(value: int, slot: int) -> list[int]:
    """The signed base-2^slot digits of ``value``, lowest first, no zero on top.

    Digits are in [-2^(slot-1), 2^(slot-1)); a negative one borrowed one
    from the digits above, which the carry returns.  A value of b bits has
    at most b // slot + 1 digits, except when its top digit is 1 above a
    digit of -2^(slot-1): then it has one more, the carry 1.

    A slot of whole bytes is read in one ``to_bytes`` call.  Adding half =
    2^(slot-1) to each of the b // slot + 2 digits, that is offset = half *
    (1 + X + X^2 + ...) at X = 2^slot, makes every digit read unsigned,
    with no borrow; XOR with the offset then flips the top bit of each slot
    back, which leaves each digit in two's complement in its own slot.
    Digits of 1, 2, 4 or 8 bytes are then read as native signed words by
    ``memoryview.cast`` (on a little-endian host), with the offset cached
    per (digit count, byte width); wider ones are read as signed
    ``int.from_bytes`` slices.  Any other slot is read by a loop of
    b // slot + 1 steps, each a mask, a shift and at most one borrow, ending
    even without the carry; what is left, 0 or the carry 1, is appended.

    A 16-bit value with a negative digit and the carry above it:

    >>> _unpack(_pack([3, -(1 << 15), 1], 16), 16)
    [3, -32768, 1]
    """
    count = value.bit_length() // slot + 2
    if not slot % 8:
        width = slot // 8
        word = _SIGNED_WORDS.get(width)
        offset = _word_offset(count, width) if word else _offset(count, width)
        raw = ((value + offset) ^ offset).to_bytes(count * width, "little")
        if word:
            digits = memoryview(raw).cast(word).tolist()
        else:
            digits = [int.from_bytes(raw[k:k + width], "little", signed=True)
                      for k in range(0, count * width, width)]
    else:
        mask = (1 << slot) - 1
        half = 1 << (slot - 1)
        digits = []
        for _ in range(count - 1):
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


def _slot_bits(width: int) -> int:
    """The slot that ``_unpack`` reads in one call for signed digits of ``width`` bits.

    The smallest of 8, 16, 32 or 64 bits that holds them, read as native
    words, else ``width`` rounded up to whole bytes, read as byte slices.

    >>> [_slot_bits(width) for width in (1, 13, 64, 65)]
    [8, 16, 64, 72]
    """
    if width <= 64:
        return max(8, 1 << (width - 1).bit_length())
    return -(-width // 8) * 8


def _offset(count: int, width: int) -> int:
    """half = 2^(8 width - 1) in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


# cached for digits read as words, which the lattice and equivariant rows
# read by the thousand at a few counts; a wider slot is a long KL row, read
# once, whose offset would only hold memory
_word_offset = functools.lru_cache(maxsize=256)(_offset)


# the native signed format of each item size, for ``memoryview.cast``; the
# casts read the host's byte order, so a big-endian host reads by slices
_SIGNED_WORDS = ({struct.calcsize(f): f for f in "qihb"}
                 if sys.byteorder == "little" else {})


ZERO = IntPoly()
ONE = IntPoly((1,))
T = IntPoly((0, 1))


def expand_F(order: int) -> tuple[IntPoly, ...]:
    """The u-coefficients F_0 .. F_order of the root F of u*(1-u+t*u)*F^2 - F + 1 = 0.

    F is the unique power-series root; it comes back as a tuple of
    ``order + 1`` ``IntPoly`` values.  With a = u*(1 + (t-1)*u) the
    equation reads a*F^2 - F + 1 = 0, and implicit differentiation in u
    turns it into the linear equation

        a*(1 - 4a) * F' + a'*(1 - 2a) * F = a'.

    Comparing u^n coefficients there gives, for n >= 2,

        (n+1) F_n = ((5n-1) - (n+1)t) F_{n-1} + 2(4n-5)(t-1) F_{n-2}
                    + 4(n-2)(t-1)^2 F_{n-3},

    started from F_{-1} = 0 and F_0 = F_1 = 1.  Each step is one pass over
    three earlier coefficient lists; multiplying by (t - 1) is a shift and a
    subtraction.  F_n has integer coefficients, so the division by n + 1 must
    be exact; a nonzero remainder raises ``ArithmeticError`` instead of being
    rounded away.  No square root is extracted (the quadratic's other root
    has no power-series expansion at u = 0).
    """
    _check_index(order, "truncation order")
    fs = [ZERO, ONE, ONE]  # F_{-1}, F_0, F_1
    for n in range(2, order + 1):
        f3, f2, f1 = (list(p.coeffs) for p in fs[-3:])
        # inner = 2(4n-5) F_{n-2} + 4(n-2)(t-1) F_{n-3}; [0] + f is t * f
        w2, w3 = 2 * (4 * n - 5), 4 * (n - 2)
        inner = _weighted_sum((w2, f2), (w3, [0] + f3), (-w3, f3))
        total = _weighted_sum(
            (5 * n - 1, f1), (-(n + 1), [0] + f1), (1, [0] + inner), (-1, inner)
        )
        quotients = []
        for c in total:
            q, r = divmod(c, n + 1)
            if r:
                raise ArithmeticError(f"(n+1) F_n is not divisible by n + 1 at n = {n}")
            quotients.append(q)
        fs.append(IntPoly(quotients))
    return tuple(fs[1 : order + 2])


def _weighted_sum(*terms: tuple[int, list[int]]) -> list[int]:
    """sum of weight * coeffs over the (weight, coeffs) pairs, as one coefficient list."""
    out = [0] * max(len(coeffs) for _, coeffs in terms)
    for weight, coeffs in terms:
        for k, c in enumerate(coeffs):
            out[k] += weight * c
    return out


def solve_reflection_equation(rank: int, rhs: IntPoly) -> IntPoly:
    """Solve t^rank * P(1/t) - P(t) = rhs for P with deg P < rank/2.

    The degree bound puts the reflected coefficients of P strictly above the
    coefficients of -P, so P can be read off the top of rhs:
    P[k] = rhs[rank - k] for k <= (rank-1)//2.  The low-order window of rhs
    must then replicate -P and the gap between the two windows must vanish;
    either failing indicates a corrupted right-hand side, and the error
    names the lowest coefficient at fault.  This checks the arguments and
    pads the coefficients to length rank + 1 for ``_solve_reflection``.
    """
    _check_index(rank, "rank", 1)
    if not isinstance(rhs, IntPoly):
        raise TypeError(f"right-hand side must be an IntPoly, got {type(rhs).__name__}")
    if rhs.degree() > rank:
        raise ArithmeticError(
            f"right-hand side has degree {rhs.degree()} > rank {rank}"
        )
    return IntPoly(_solve_reflection(rank, list(rhs.coeffs) + [0] * (rank - rhs.degree())))


def _solve_reflection(rank: int, cs: list[int]) -> list[int]:
    """The reflection solve on a list of exactly rank + 1 coefficients, rank >= 1.

    Returns P[0..(rank-1)//2], zeros on top included.  P is one reversed
    slice, the -P window one list comparison and the gap one slice test;
    an inconsistent ``cs`` raises ``ArithmeticError`` naming the lowest
    coefficient at fault.  ``solve_reflection_equation`` and the lattice
    engine of ``flats`` both solve through here.
    """
    dmax = (rank - 1) // 2
    # P[k] = cs[rank - k] for k = 0..dmax; rank - dmax - 1 >= 0 ends the slice
    solution = cs[rank:rank - dmax - 1:-1]
    expected = [-c for c in solution]
    if cs[:dmax + 1] != expected:
        j = next(j for j, (c, e) in enumerate(zip(cs, expected)) if c != e)
        raise ArithmeticError(
            f"inconsistent reflection: coefficient of t^{j} is {cs[j]}, "
            f"expected {expected[j]}"
        )
    if any(cs[dmax + 1:rank - dmax]):
        j = next(j for j in range(dmax + 1, rank - dmax) if cs[j])
        raise ArithmeticError(
            f"inconsistent reflection: coefficient of t^{j} is {cs[j]}, "
            "expected 0 in the window between -P and its reflection"
        )
    return solution
