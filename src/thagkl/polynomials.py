"""Exact polynomial arithmetic and a truncated power-series record.

Two layers, both over arbitrary-precision integers:

* ``IntPoly`` -- a dense univariate polynomial in ``t``, coefficients indexed
  by exponent starting with the constant term.
* ``PolySeries`` -- a record of a power series in a second variable ``u``
  truncated at a fixed order (inclusive), whose coefficients are ``IntPoly``
  values; it holds the coefficients and does no series arithmetic.

Everything is immutable and exact; no floats anywhere.  Sums work on the
coefficient lists directly; products use the schoolbook double loop.

The module also houses the two solver primitives shared by the higher
layers: the coefficient recurrence for the series root ``F`` of
``u*(1 - u + t*u)*F^2 - F + 1 = 0`` and the reflection trick that extracts a
low-degree polynomial ``P`` from an identity ``t^r * P(1/t) - P(t) = q(t)``.
The recurrence runs on packed integers, Kronecker substitution (Harvey,
arXiv:0712.4046): each F_m is evaluated at t = 2^w, one integer holding its
coefficients in w-bit slots, CPython's bigint multiply does the convolution,
and the signed coefficients are read back out of the slots.  The slot width
w comes from a proven bound on the coefficients, so no carry ever crosses a
slot boundary.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Union


@dataclasses.dataclass(frozen=True, init=False)
class IntPoly:
    """Polynomial in t with integer coefficients, stored densely.

    ``coeffs[k]`` is the coefficient of ``t^k``; the top stored coefficient is
    always nonzero, and the zero polynomial stores the empty tuple.  Sums,
    differences and products accept an ``IntPoly`` or an ``int``; any other
    operand gives ``NotImplemented``, so Python raises ``TypeError``.

    >>> IntPoly((1, 0, 2)) * IntPoly((0, 1))
    IntPoly((0, 1, 0, 2))
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
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
        elif isinstance(other, int):
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
        elif isinstance(other, int):
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
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, int):
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
        if n < 0:
            raise ValueError("negative polynomial power")
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
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation by Horner's scheme."""
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


def _as_poly(value: Union[IntPoly, int]) -> IntPoly:
    if isinstance(value, IntPoly):
        return value
    return IntPoly((value,))


def _slot_bytes(bound: int) -> int:
    """Bytes per slot so that every integer of magnitude <= bound is a digit.

    The slot holds 8*b bits with 2^(8*b - 1) > bound, so balanced digits in
    [-2^(8*b-1), 2^(8*b-1)) cover every such integer.
    """
    return bound.bit_length() // 8 + 1


def _slot_bias(nbytes: int, length: int) -> int:
    """sum_{k < length} 2^(8*nbytes - 1) * 2^(8*nbytes*k): half a slot in every slot."""
    return int.from_bytes((b"\x00" * (nbytes - 1) + b"\x80") * length, "little")


def _unpack(value: int, nbytes: int, length: int) -> list[int]:
    """Balanced base-2^(8*nbytes) digits of value, lowest first, ``length`` of them.

    Requires value = sum_{k < length} c_k 2^(8*nbytes*k) with every
    |c_k| < 2^(8*nbytes - 1).  Adding half a slot to every slot makes each
    digit nonnegative and below the slot size, so the biased value splits
    into slots bytewise; subtracting the half again restores the sign.
    """
    half = 1 << (8 * nbytes - 1)
    raw = (value + _slot_bias(nbytes, length)).to_bytes(nbytes * length, "little")
    return [
        int.from_bytes(raw[i : i + nbytes], "little") - half
        for i in range(0, nbytes * length, nbytes)
    ]


ZERO = IntPoly()
ONE = IntPoly((1,))
T = IntPoly((0, 1))


def poly_reverse(r: int, p: IntPoly) -> IntPoly:
    """Reverse p within the coefficient window 0..r, i.e. t^r * p(1/t).

    Requires deg p <= r, otherwise the result would not be a polynomial.
    """
    if r < 0:
        raise ValueError("window size must be nonnegative")
    if p.degree() > r:
        raise ValueError(f"degree {p.degree()} exceeds reversal window {r}")
    return IntPoly(p[r - k] for k in range(r + 1))


@dataclasses.dataclass(frozen=True, init=False)
class PolySeries:
    """Record of a power series in u, truncated at ``order`` inclusive.

    ``coeffs[m]`` is the IntPoly coefficient of ``u^m``; there are always
    exactly ``order + 1`` entries.
    """

    order: int
    coeffs: tuple[IntPoly, ...]

    def __init__(self, order: int, coeffs: Iterable[Union[IntPoly, int]] = ()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [_as_poly(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def coefficient(self, m: int) -> IntPoly:
        return self.coeffs[m]


def expand_F(order: int) -> PolySeries:
    """Expand the unique power-series root F of u*(1-u+t*u)*F^2 - F + 1 = 0.

    Rewriting the equation as F = 1 + u*(1-u+t*u)*F^2 and comparing u^m
    coefficients gives F_0 = 1 and, for m >= 1,

        F_m = sum_{a+b=m-1} F_a F_b + (t - 1) * sum_{a+b=m-2} F_a F_b.

    The recurrence stays in integer arithmetic; no square root is extracted
    (the quadratic's other root has no power-series expansion at u = 0).

    It runs on the packed values F_m(2^w), one integer per m, and unpacks
    each F_m once at the end.  The slot width w comes from the majorant
    N_0 = 1, N_m = sum_{a+b=m-1} N_a N_b + 2 * sum_{a+b=m-2} N_a N_b: the sum
    of absolute coefficients is submultiplicative and (t - 1) at most doubles
    it, so N_m bounds every |coefficient| of F_m whatever its sign.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    norms = [1]
    for m in range(1, order + 1):
        norms.append(_self_convolution(norms, m - 1) + 2 * _self_convolution(norms, m - 2))
    nbytes = _slot_bytes(max(norms))
    width = 8 * nbytes
    packed = [1]
    for m in range(1, order + 1):
        conv2 = _self_convolution(packed, m - 2)
        packed.append(_self_convolution(packed, m - 1) + (conv2 << width) - conv2)
    # deg F_m <= m, so m + 1 slots hold all of F_m
    return PolySeries(
        order, [IntPoly(_unpack(value, nbytes, m + 1)) for m, value in enumerate(packed)]
    )


def _self_convolution(values: list[int], s: int) -> int:
    """sum_{a+b=s} values[a] * values[b], pairing a with s - a; 0 for s < 0."""
    if s < 0:
        return 0
    total = 2 * sum(values[a] * values[s - a] for a in range((s + 1) // 2))
    if s % 2 == 0:
        total += values[s // 2] ** 2
    return total


def solve_reflection_equation(rank: int, rhs: IntPoly) -> IntPoly:
    """Solve t^rank * P(1/t) - P(t) = rhs for P with deg P < rank/2.

    The degree bound puts the reflected coefficients of P strictly above the
    coefficients of -P, so P can be read off the top of rhs:
    P[k] = rhs[rank - k] for k <= (rank-1)//2.  The low-order window of rhs
    must then replicate -P and the gap between the two windows must vanish;
    either failing indicates a corrupted right-hand side.
    """
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
