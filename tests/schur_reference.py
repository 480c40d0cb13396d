"""Brute-force Pieri products: the reference the Schur-layer tests compare against.

Nothing here calls a strip walk of ``thagkl.symfunc``.  The strips are found
by filtering every partition of the target size, so these products check
``horizontal_strips``, ``vertical_strips`` and the equivariant rows built
on them from outside.
"""

import functools

from thagkl.polynomials import IntPoly, ZERO
from thagkl.symfunc import SchurPoly, partitions_of


@functools.cache
def strips_oracle(lam, size, vertical):
    """Brute-force strips: every mu of |lam| + size boxes whose rows grow from lam
    by 0 or 1 (vertical), or that contains lam and interlaces it (horizontal),
    mu_1 >= lam_1 >= mu_2 >= lam_2 >= ..."""
    found = set()
    for mu in partitions_of(sum(lam) + size):
        padded = lam + (0,) * (len(mu) - len(lam))
        if len(padded) > len(mu):
            continue
        if vertical:
            if all(m - l in (0, 1) for m, l in zip(mu, padded)):
                found.add(mu)
        elif all(m >= l for m, l in zip(mu, padded)) and all(
            m <= l for m, l in zip(mu[1:], padded)
        ):
            found.add(mu)
    return frozenset(found)


def pieri_oracle(f: SchurPoly, size: int, vertical: bool) -> SchurPoly:
    """f * e_size (vertical) or f * h_size, summed over the brute-force strips."""
    out = {}
    for lam, coeff in f.terms():
        for mu in strips_oracle(lam, size, vertical):
            out[mu] = out.get(mu, ZERO) + coeff
    return SchurPoly(out, degree=f.degree + size)


def sign_t_power(sign_exponent: int, t_exponent: int) -> IntPoly:
    """(-1)^sign_exponent * t^t_exponent as an IntPoly."""
    coeff = -1 if sign_exponent % 2 else 1
    return IntPoly((0,) * t_exponent + (coeff,))


def mul_w_pieri(f: SchurPoly, j: int) -> SchurPoly:
    """f * w_j with w_j = sum_{a+b=j} (-1)^b t^a h_a e_b, by both Pieri rules
    over the brute-force strips."""
    total = SchurPoly({}, degree=f.degree + j)
    for a in range(j + 1):
        b = j - a
        product = pieri_oracle(pieri_oracle(f, a, vertical=False), b, vertical=True)
        total = total + product.scaled(sign_t_power(b, a))
    return total
