"""Dyck paths counted by their number of long ascents.

A Dyck path of semilength n is a word over {U, D} of length 2n in which every
prefix has at least as many U's as D's and the totals balance.  A long ascent
is a maximal run of at least two consecutive U's; in a valid path these are in
bijection with occurrences of the factor UUD.

The triangle a[n][k] = #{paths of semilength n with k long ascents} is
computed three independent ways: exhaustive enumeration (n <= 14), a dynamic
program over (height, current run length) whose one sweep yields every row
up to a size fixed in advance, and a binomial closed form

    a[n][k] = 1/(n+1) * C(n+1, k) * sum_{j} C(j-k-1, k-1) * C(n+1-k, n-j).

The program keeps each count vector (indexed by k) as one int, a slot of
2*max_n + 1 bits per k: vectors add with ``+`` and move up one k with a
shift, no count of at most 2*max_n steps fills its slot, and rows are read
back by the codec of ``polynomials``.  The closed form sums only over 2k <=
j <= n, where both binomials are nonzero; ``closed_form`` takes each
binomial from ``math.comb`` and is the reference, while
``closed_form_row`` reads them as slices of one cached Pascal table.

The enumerator works on lane-packed integers.  A path of semilength n is an
int of 2n bits, the first step in the top bit and U = 1, held in one 32-bit
lane of an ``array('I')``.  The paths are built in blocks by the
first-return decomposition U <left> D <right>, left-major: for each split,
the prefix of one half is OR-ed into every lane of the other half, read as
one big int, so Python loops only over the smaller half.  Every path of
semilength n <= 12 stays cached (about 1.2 MB); longer ones are streamed in
blocks of at most about 10^5 paths.  ``enumerate_paths`` is the string view
of the same sequence, each int decoded to a U/D word of length 2n.

Counting reads 4096 lanes at a time into one big int, so the count of long
runs of one-bits takes a few whole-int operations per chunk (SWAR, SIMD
within a register), popcounted lane by lane.  A long run closed by a D is a
UUD factor; the one closed by the end of a word ending in UU is not, so such
a word, which no Dyck path is, is raised.  The scalar ``_bit_long_ascents``
stays: it is the reference the packed count is tested against, and the only
counter for ``long_ascents``, whose words may be longer than a lane.
"""

from __future__ import annotations

import functools
import sys
from array import array
from math import comb
from operator import mul
from typing import Iterator

from .polynomials import _check_index, _unpack

MAX_ENUM_SEMILENGTH = 14

# Semilengths up to this bound keep their paths cached, one array each
# (290512 paths, about 1.2 MB for all of them); longer ones are streamed in
# blocks.
_CACHE_SEMILENGTH = 12

# A path is one lane of an ``array('I')``: 32 bits, of which it uses 2n.
_LANE_BYTES = 4
_ONE = (1).to_bytes(_LANE_BYTES, sys.byteorder)
# Paths counted per big-int pass, and paths per streamed block.
_CHUNK = 4096
_BLOCK = 1 << 16

_TO_BITS = str.maketrans("UD", "10")
_FROM_BITS = str.maketrans("10", "UD")


def catalan(n: int) -> int:
    """n-th Catalan number, C(2n, n) / (n + 1), checked to divide exactly."""
    _check_index(n, "catalan index")
    q, r = divmod(comb(2 * n, n), n + 1)
    if r:
        raise ArithmeticError(f"catalan division inexact at n={n}")
    return q


def is_dyck_word(word: str) -> bool:
    """True iff word is a balanced U/D word with all prefix sums nonnegative.

    Raises ``TypeError`` if ``word`` is not a ``str``.
    """
    if not isinstance(word, str):
        raise TypeError(f"path must be a str of U and D steps, got {type(word).__name__}")
    height = 0
    for step in word:
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def _joined(a: int, b: int, lefts: array, rights: array) -> array:
    """Every path U <left> D <right>, left-major, for the given halves.

    ``lefts`` have semilength a and ``rights`` semilength b, so path
    i * k + j (k rights) is the prefix U <left i> D over right j.  The loop
    runs over the smaller half: for each left, its prefix is OR-ed into
    every lane of the packed rights; for each right, it is OR-ed into every
    lane of the packed prefixes, and the result fills every k-th slot.
    """
    shift = 2 * b
    lead = 1 << (2 * a + 1 + shift)
    m, k = len(lefts), len(rights)
    if m <= k:
        ones = _ones(k)
        tail = int.from_bytes(rights, sys.byteorder)
        out = array("I")
        for left in lefts:
            out.frombytes(_lane_bytes(tail | (lead | left << (shift + 1)) * ones, k))
        return out
    ones = _ones(m)
    heads = int.from_bytes(lefts, sys.byteorder) << (shift + 1) | lead * ones
    out = array("I", [0]) * (m * k)
    for j, right in enumerate(rights):
        out[j::k] = array("I", _lane_bytes(heads | right * ones, m))
    return out


def _ones(count: int) -> int:
    """A packed int with 1 in each of ``count`` lanes; times v, v in each."""
    return int.from_bytes(_ONE * count, sys.byteorder)


def _lane_bytes(packed: int, count: int) -> bytes:
    """The ``count`` lanes of ``packed`` as the bytes of an ``array('I')``."""
    return packed.to_bytes(_LANE_BYTES * count, sys.byteorder)


@functools.cache
def _paths_array(n: int) -> array:
    # first-return decomposition: every nonempty path is U <left> D <right>
    if n == 0:
        return array("I", [0])
    out = array("I")
    for a in range(n):
        out += _joined(a, n - 1 - a, _paths_array(a), _paths_array(n - 1 - a))
    return out


def _blocks(n: int) -> Iterator[array]:
    """The paths of semilength n in enumeration order, in blocks.

    Up to ``_CACHE_SEMILENGTH`` these are slices of at most ``_BLOCK`` paths
    of the cached array; beyond it, one block per split and pair of blocks
    of the two halves.  That pairing is left-major as long as a right half
    that comes in several blocks meets a single left path.  It does up to
    MAX_ENUM_SEMILENGTH = 14: with ``_BLOCK`` above Catalan(11), only halves
    of semilength >= 12 come in several blocks, and their left half then has
    semilength <= 1.
    """
    if n <= _CACHE_SEMILENGTH:
        paths = _paths_array(n)
        for start in range(0, len(paths), _BLOCK):
            yield paths[start : start + _BLOCK]
        return
    for a in range(n):
        for lefts in _blocks(a):
            for rights in _blocks(n - 1 - a):
                yield _joined(a, n - 1 - a, lefts, rights)


def _check_enum_bound(n: int) -> None:
    _check_index(n, "semilength")
    if n > MAX_ENUM_SEMILENGTH:
        raise ValueError(
            f"semilength {n} exceeds enumeration bound {MAX_ENUM_SEMILENGTH}"
        )


def enumerate_paths(n: int) -> Iterator[str]:
    """Yield every Dyck path of semilength n exactly once, as a U/D word.

    Rejects n beyond MAX_ENUM_SEMILENGTH (the list is Catalan-sized).
    """
    _check_enum_bound(n)
    # a sentinel bit above the path keeps its leading D steps (zero bits)
    top = 1 << (2 * n)
    return (
        format(top | x, "b")[1:].translate(_FROM_BITS)
        for block in _blocks(n)
        for x in block
    )


class NotDyckPathError(ValueError, ArithmeticError):
    """A word passed as a Dyck path is not one.

    A ``ValueError`` like any other bad input, and also an
    ``ArithmeticError``, which is what ``long_ascents`` raised for such words
    when only its two counts caught them.
    """


def long_ascents(path: str) -> int:
    """Number of long ascents of a Dyck path, given as a U/D string.

    Raises ``TypeError`` if ``path`` is not a ``str``, and
    ``NotDyckPathError`` if it is not a Dyck path.
    """
    if not is_dyck_word(path):
        raise NotDyckPathError(f"{path!r} is not a Dyck path")
    return _bit_long_ascents(int("0" + path.translate(_TO_BITS), 2))


def _bit_long_ascents(x: int) -> int:
    """Long ascents of a Dyck path given as bits (first step on top, U = 1).

    Bit i of ``pair`` marks a U whose preceding step is also U.  A maximal
    run of >= 2 U's is counted once, at its last such bit.  Bit 0 of
    ``pair`` marks a word ending in UU, which no Dyck path does, and is
    raised: no D closes that run, so it is a long run with no UUD factor.
    """
    pair = x & (x >> 1)
    if pair & 1:
        raise ArithmeticError("word ends in U U, which no Dyck path does")
    return (pair & ~(pair << 1)).bit_count()


@functools.cache
def _lanes(value: int) -> int:
    """``value`` in every one of the ``_CHUNK`` lanes of a packed chunk."""
    return value * _ones(_CHUNK)


def _lane_counts(v: int) -> bytes:
    """Popcount of every 32-bit lane of v, one byte per lane.

    The masks keep each partial sum inside its lane.  The product with
    0x01010101 then sums a lane's four bytes into its top byte; no byte
    exceeds 32, so nothing carries, and the top byte takes nothing from the
    lane below.  The product spills three bytes past the chunk, so three
    more are read, and in either byte order lane i's top byte is byte
    3 + 4i.
    """
    v -= (v >> 1) & _lanes(0x55555555)
    m2 = _lanes(0x33333333)
    v = (v & m2) + ((v >> 2) & m2)
    v = ((v + (v >> 4)) & _lanes(0x0F0F0F0F)) * 0x01010101
    return v.to_bytes(_LANE_BYTES * _CHUNK + 3, sys.byteorder)[3::_LANE_BYTES]


def _packed_long_ascents(block: array, n: int) -> bytes:
    """Long ascents of every path in ``block``, one byte per path.

    Each path of semilength n is one 32-bit lane of a big int read
    ``_CHUNK`` paths at a time, and the run count of ``_bit_long_ascents``
    is taken lane by lane: ``pair ^ pair & (pair << 1)`` is its
    ``pair & ~(pair << 1)`` without the negative int ``~(pair << 1)``, which
    takes about twice as long on a chunk.  A lane ending in UU raises,
    naming the first such path.
    """
    lanes = memoryview(block)
    out = []
    for first in range(0, len(block), _CHUNK):
        x = int.from_bytes(lanes[first : first + _CHUNK], sys.byteorder)
        pair = x & (x >> 1)
        if pair & _lanes(1):
            bad = next(p for p in block[first : first + _CHUNK] if p & 3 == 3)
            raise ArithmeticError(
                f"word ends in U U, which no Dyck path does, on path {bad:0{2 * n}b}"
            )
        # the lanes past the end of a short last chunk hold no path
        out.append(_lane_counts(pair ^ pair & (pair << 1))[: len(block) - first])
    return b"".join(out)


def count_by_ascents_enum(n: int) -> dict[int, int]:
    """Triangle row by exhaustive enumeration: k -> #paths with k long ascents."""
    _check_enum_bound(n)
    row: dict[int, int] = {}
    # the paths are generated here, so they skip long_ascents' input check
    for block in _blocks(n):
        counts = _packed_long_ascents(block, n)
        left, k = len(counts), 0
        while left:
            c = counts.count(k)
            if c:
                row[k] = row.get(k, 0) + c
                left -= c
            k += 1
    return dict(sorted(row.items()))


class DyckTable:
    """Triangle rows a[0], ..., a[max_n] from one dynamic-programming sweep.

    The sweep counts U/D prefixes of length up to 2*max_n with no negative
    height by (height, run length, long ascents).  The run length saturates at
    2: runs of length >= 2 are equivalent for the statistic.  The counts of
    one (height, run) state form a vector indexed by k, held as one int with
    a slot of 2*max_n + 1 bits per k, count k in the k-th slot from the
    bottom.  Adding vectors is ``+``, and a D step leaving run state 2 closes
    one long ascent, which moves that state's counts up one slot with a
    shift.  No slot carries into the next: after s <= 2*max_n steps every
    count is at most 2^s < 2^(2*max_n + 1).  Row n is read off the slots of
    the count of prefixes of length 2n that end at height 0 (they end with a
    D step, so in run state 0) by the signed reader ``polynomials._unpack``,
    which returns them unchanged: for n >= 1 each is at most Catalan(n) <
    4^n <= 2^(2*max_n), half a slot, so none reads as negative.  After s
    steps a prefix above height 2*max_n - s can no longer return to 0 by
    step 2*max_n, so it is dropped; every row n <= max_n stays exact.
    """

    def __init__(self, max_n: int) -> None:
        _check_index(max_n, "semilength")
        self.max_n = max_n
        slot = 2 * max_n + 1
        # states[run][height]: packed count vector
        states: tuple[list[int], ...] = ([1], [0], [0])
        self._rows: list[dict[int, int]] = [{0: 1}]
        for n in range(1, max_n + 1):
            states = _step(states, 2 * (max_n - n) + 1, slot)
            states = _step(states, 2 * (max_n - n), slot)
            self._rows.append({k: c for k, c in enumerate(_unpack(states[0][0], slot)) if c})

    def row(self, n: int) -> dict[int, int]:
        """Row n as a fresh dict k -> count, nonzero entries only."""
        _check_index(n, "semilength")
        if n > self.max_n:
            raise ValueError(f"semilength {n} outside the table's range 0..{self.max_n}")
        return dict(self._rows[n])


def _step(states: tuple[list[int], ...], max_height: int, slot: int) -> tuple[list[int], ...]:
    """One U/D step of the sweep, keeping heights up to max_height."""
    run0, run1, run2 = states
    keep = max_height + 1
    # D steps lower the height and reset the run; leaving run 2 adds one k
    down = [
        run0[h] + run1[h] + (run2[h] << slot)
        for h in range(1, min(len(run0), keep + 1))
    ]
    return (
        (down + [0, 0])[:keep],
        ([0] + run0)[:keep],
        [0] + [a + b for a, b in zip(run1[: keep - 1], run2)],
    )


def count_by_ascents_dp(n: int) -> dict[int, int]:
    """Triangle row by dynamic programming over (height, run length).

    Sweeps a ``DyckTable`` of size n; a caller that needs many rows keeps one
    table and reads them all from its single sweep.
    """
    return DyckTable(n).row(n)


def closed_form(n: int, k: int) -> int:
    """Triangle entry by the binomial closed form.

    The sum runs over 2k <= j <= n only: below 2k the inner factor
    C(j-k-1, k-1) vanishes and above n the outer C(n+1-k, n-j) does, while
    on that range neither has a negative argument.  At k = 0 the inner
    factor is read as C(j-1, -1) := 1 when j = 0 and 0 otherwise, so the
    entry is C(n+1, n) / (n+1) = 1, in agreement with the enumeration (only
    (UD)^n avoids UU).  Division by n+1 must be exact; a remainder indicates
    an implementation fault.
    """
    _check_index(n, "semilength")
    _check_index(k, "long-ascent count")
    if k == 0:
        return 1
    total = sum(comb(j - k - 1, k - 1) * comb(n + 1 - k, n - j) for j in range(2 * k, n + 1))
    q, r = divmod(comb(n + 1, k) * total, n + 1)
    if r:
        raise ArithmeticError(f"inexact division by {n + 1} at (n, k) = ({n}, {k})")
    return q


def closed_form_row(n: int) -> dict[int, int]:
    """Triangle row assembled from the closed form, nonzero entries only.

    The same sum as ``closed_form``, read from one cached Pascal table:
    C(j-k-1, k-1) for j = 2k..n is a slice of column k-1, and C(n+1-k, n-j)
    the same slice of row n+1-k reversed.  Division by n+1 is checked exact.
    """
    _check_index(n, "semilength")
    rows, columns = _pascal(n + 1)
    top = rows[n + 1]
    row = {0: 1}
    for k in range(1, n // 2 + 1):
        width = n - 2 * k + 1
        inner = columns[k - 1][:width]
        outer = reversed(rows[n + 1 - k][:width])
        total = sum(map(mul, inner, outer))
        q, r = divmod(top[k] * total, n + 1)
        if r:
            raise ArithmeticError(f"inexact division by {n + 1} at (n, k) = ({n}, {k})")
        row[k] = q
    return row


# Pascal's triangle, shared by every closed-form row: _PASCAL_ROWS[m][i] is
# C(m, i) and _PASCAL_COLUMNS[c][m - c] is C(m, c), the same ints.
_PASCAL_ROWS: list[list[int]] = [[1]]
_PASCAL_COLUMNS: list[list[int]] = [[1]]


def _pascal(size: int) -> tuple[list[list[int]], list[list[int]]]:
    """The Pascal table grown to row ``size`` at least: (rows, columns)."""
    rows, columns = _PASCAL_ROWS, _PASCAL_COLUMNS
    while len(rows) <= size:
        last = rows[-1]
        row = [1] + [a + b for a, b in zip(last, last[1:])] + [1]
        for column, value in zip(columns, row):
            column.append(value)
        columns.append([1])
        rows.append(row)
    return rows, columns
