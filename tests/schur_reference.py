"""References the Schur-layer tests compare against.

Nothing here calls a strip walk of ``thagkl.symfunc``.  The strips and the
border strips are found by filtering every partition of the target size, so
these products check ``horizontal_strips``, ``vertical_strips``, the
equivariant rows built on them and ``_rim_hooks`` from outside.  The
character table (``character_value``, Murnaghan-Nakayama on bead masks) and
the plethysm through it (``v_poly_via_characters``) are the reference of
``v_poly_via_plethysm``'s Newton recurrence.
"""

import functools
from math import factorial

from thagkl.polynomials import IntPoly, ONE, ZERO
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


def rim_hooks_oracle(nu, r):
    """Brute-force p_r * s[nu]: every (lam, sign) with lam/nu a border strip of r boxes.

    lam runs over every partition of |nu| + r that contains nu; its skew
    cells must be connected and hold no 2x2 square, and the sign is
    (-1)^(rows - 1) over the rows the strip meets.
    """
    out = []
    for lam in partitions_of(sum(nu) + r):
        padded = nu + (0,) * (len(lam) - len(nu))
        if len(padded) > len(lam) or any(m < l for m, l in zip(lam, padded)):
            continue
        cells = {(i, j) for i, row in enumerate(lam) for j in range(padded[i], row)}
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
            continue
        start = next(iter(cells))
        seen, todo = {start}, [start]
        while todo:
            i, j = todo.pop()
            for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if cell in cells and cell not in seen:
                    seen.add(cell)
                    todo.append(cell)
        if seen == cells:
            rows = len({i for i, _ in cells})
            out.append((lam, -1 if (rows - 1) % 2 else 1))
    return out


def cycle_type_order(mu) -> int:
    """Size of the centralizer of a permutation of cycle type mu (z_mu)."""
    z = 1
    multiplicity = {}
    for part in mu:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    for part, count in multiplicity.items():
        z *= part**count * factorial(count)
    return z


def character_value(lam, mu) -> int:
    """Irreducible S_n character chi^lam on cycle type mu (Murnaghan-Nakayama).

    lam is read as a bead mask: row i (from 0) of l rows puts a bead at bit
    lam_i + l - 1 - i.  Removing a border strip of size r moves a bead from b
    to an empty b - r, with the sign (-1)^(beads strictly between).
    """
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    rows = len(lam)
    beads = 0
    for i, part in enumerate(lam):
        beads |= 1 << (part + rows - 1 - i)
    return _border_strips(beads >> _low_run(beads), tuple(mu))


def _low_run(beads: int) -> int:
    """Number of beads packed at the bottom, bits 0, 1, ...: the empty rows."""
    return (beads ^ (beads + 1)).bit_length() - 1


@functools.cache
def _border_strips(beads: int, mu) -> int:
    """chi at the shape with bead mask ``beads`` on cycle type mu.

    Callers strip the beads of empty rows (``_low_run``) so that one shape
    has one memo key, whatever rows the strips before it emptied.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    # beads at some b >= r whose b - r is empty
    movable = beads & ~(beads << r) & -(1 << r)
    while movable:
        low = movable & -movable
        movable ^= low
        moved = beads ^ low ^ (low >> r)
        value = _border_strips(moved >> _low_run(moved), rest)
        # bits b - r .. b - 1; b - r is empty
        total += -value if (beads & (low - (low >> r))).bit_count() & 1 else value
    return total


def v_poly_via_characters(ell: int) -> SchurPoly:
    """The plethysm h_ell[(t-2) s[1]] through the character table.

    Expanded through power sums: p_k[(t-2)s[1]] = (t^k - 2) p_k,
    h_ell = sum_mu p_mu / z_mu, and p_mu = sum_lam chi^lam(mu) s[lam].  Each
    term is weighted by the integer ell!/z_mu, and the sums are divided by
    ell! once at the end, checked exact.
    """
    scale = factorial(ell)
    acc = {}
    for mu in partitions_of(ell):
        weight = ONE
        for part in mu:
            weight = weight * (IntPoly((0,) * part + (1,)) - 2 * ONE)
        share = scale // cycle_type_order(mu)
        scaled = [share * c for c in weight.coeffs]
        for lam in partitions_of(ell):
            chi = character_value(lam, mu)
            if not chi:
                continue
            vec = acc.setdefault(lam, [0] * (ell + 1))
            for k, c in enumerate(scaled):
                vec[k] += chi * c
    terms = {}
    for lam, vec in acc.items():
        ints = []
        for value in vec:
            q, r = divmod(value, scale)
            if r:
                raise ArithmeticError(f"fractional coefficient {value}/{scale} at {lam}")
            ints.append(q)
        terms[lam] = IntPoly(ints)
    return SchurPoly(terms, degree=ell)
