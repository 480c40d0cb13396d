import hashlib
import random
import sys
from array import array
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagkl import dyck
from thagkl.dyck import (
    _CHUNK,
    MAX_ENUM_SEMILENGTH,
    DyckTable,
    _bit_long_ascents,
    _packed_long_ascents,
    catalan,
    closed_form,
    closed_form_row,
    count_by_ascents_dp,
    count_by_ascents_enum,
    enumerate_paths,
    is_dyck_word,
    long_ascents,
)

# rows n = 0..7 frozen from an independent brute-force filter over {U,D}^(2n)
BRUTE_FORCE_ROWS = {
    0: {0: 1},
    1: {0: 1},
    2: {0: 1, 1: 1},
    3: {0: 1, 1: 4},
    4: {0: 1, 1: 11, 2: 2},
    5: {0: 1, 1: 26, 2: 15},
    6: {0: 1, 1: 57, 2: 69, 3: 5},
    7: {0: 1, 1: 120, 2: 252, 3: 56},
}


def test_catalan_values():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_enumerate_base_cases():
    assert list(enumerate_paths(0)) == [""]
    assert sorted(enumerate_paths(2)) == ["UDUD", "UUDD"]


def test_enumerate_counts_and_distinctness():
    for n in range(9):
        paths = list(enumerate_paths(n))
        assert len(paths) == catalan(n)
        assert len(set(paths)) == len(paths)


def test_enumerate_yields_valid_paths():
    for n in range(8):
        for path in enumerate_paths(n):
            assert len(path) == 2 * n
            assert is_dyck_word(path)


def test_enumerate_includes_known_semilength_six_path():
    paths = set(enumerate_paths(6))
    assert len(paths) == 132
    assert "UUDUUUDDUDDD" in paths


def test_enumerate_rejects_large_semilength():
    with pytest.raises(ValueError):
        enumerate_paths(MAX_ENUM_SEMILENGTH + 1)
    with pytest.raises(ValueError):
        enumerate_paths(-1)


def test_enumerate_matches_filter_of_all_words():
    # all 2^(2n) U/D words filtered by is_dyck_word: no first-return
    # decomposition and no bit encoding involved
    for n in range(9):
        words = ("".join(w) for w in product("UD", repeat=2 * n))
        assert sorted(enumerate_paths(n)) == sorted(w for w in words if is_dyck_word(w))


def test_enumerate_order_is_pinned():
    # sha256 of the paths n = 0..10, one per line: callers may rely on the
    # enumeration order, so it is fixed
    joined = "\n".join(w for n in range(11) for w in enumerate_paths(n))
    assert hashlib.sha256(joined.encode()).hexdigest() == (
        "1d2f11056bec1df280389a804061de9072faf31106673f647e71e8f75064261a"
    )


def test_enumerate_order_is_pinned_for_rows_11_and_12():
    # the same pin for the two largest cached rows, n = 11 and 12
    joined = "\n".join(w for n in (11, 12) for w in enumerate_paths(n))
    assert hashlib.sha256(joined.encode()).hexdigest() == (
        "135257d210a347c9b6177dc894f352e6bf2a38f8dbe68232433fc66072110357"
    )


def test_streamed_blocks_keep_the_order():
    # rows 13 and 14 are streamed block by block; the sha256 of their paths
    # as little-endian 32-bit ints pins the left-major order there too
    pins = {
        13: "642229847480e094aede0788fc223d7a79afbdf02c5e366466f25b13c41f5a12",
        14: "1b2249ad49447c326f9e09f387203efb35d163da282f6d0538feac3a8086357a",
    }
    for n, pin in pins.items():
        digest = hashlib.sha256()
        for block in dyck._blocks(n):
            if sys.byteorder == "big":
                block = array("I", block)
                block.byteswap()
            digest.update(block)
        assert digest.hexdigest() == pin


def test_count_by_ascents_enum_rejects_out_of_range_semilength():
    with pytest.raises(ValueError):
        count_by_ascents_enum(-1)
    with pytest.raises(ValueError):
        count_by_ascents_enum(MAX_ENUM_SEMILENGTH + 1)


def test_bit_counts_disagree_on_run_closed_by_the_end():
    # U D U U: the final run of two U's is a long run, but no D closes it,
    # so it is no UUD factor; the enumerator must raise, not pick a count
    with pytest.raises(ArithmeticError):
        _bit_long_ascents(0b1011)
    assert _bit_long_ascents(0b110100) == 1  # U U D U D D


@pytest.mark.parametrize("bad", [True, 2.5, "3", None])
def test_enumerators_reject_non_integer_semilength(bad):
    with pytest.raises(TypeError):
        count_by_ascents_enum(bad)
    with pytest.raises(TypeError):
        enumerate_paths(bad)


# every other index of the triangle; True would otherwise be read as 1
INDEXED = {
    "catalan": catalan,
    "closed_form n": lambda n: closed_form(n, 0),
    "closed_form k": lambda k: closed_form(5, k),
    "closed_form_row": closed_form_row,
    "count_by_ascents_dp": count_by_ascents_dp,
    "DyckTable": DyckTable,
    "DyckTable.row": lambda n: DyckTable(5).row(n),
}


@pytest.mark.parametrize("bad", [True, False, 2.5, "3", None])
@pytest.mark.parametrize("name", sorted(INDEXED))
def test_triangle_indices_reject_non_int(name, bad):
    with pytest.raises(TypeError):
        INDEXED[name](bad)


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_triangle_indices_reject_negative(name):
    with pytest.raises(ValueError):
        INDEXED[name](-1)


def test_paths_fit_in_a_lane():
    # every path of the enumeration bound, and the zero bit above it that
    # keeps a lane from reading its neighbour, fit in one array('I') item
    assert array("I").itemsize == 4 == dyck._LANE_BYTES
    assert 2 * MAX_ENUM_SEMILENGTH < 8 * array("I").itemsize


def _scalar_counts(xs):
    """Per-lane counts by the scalar reference, or None if any lane raises."""
    try:
        return bytes(_bit_long_ascents(x) for x in xs)
    except ArithmeticError:
        return None


def _assert_packed_matches_scalar(xs, n):
    expected = _scalar_counts(xs)
    if expected is None:
        with pytest.raises(ArithmeticError):
            _packed_long_ascents(array("I", xs), n)
    else:
        assert _packed_long_ascents(array("I", xs), n) == expected


@st.composite
def _lane_blocks(draw):
    # arbitrary 2n-bit ints, not only Dyck paths: a lane with its last two
    # bits set has one run and no UUD factor
    n = draw(st.integers(0, MAX_ENUM_SEMILENGTH))
    xs = draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=40))
    return xs, n


@settings(max_examples=300, deadline=None)
@given(_lane_blocks())
def test_packed_counts_match_scalar_lane_by_lane(block):
    xs, n = block
    _assert_packed_matches_scalar(xs, n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, MAX_ENUM_SEMILENGTH),
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1]),
    st.integers(0, 2**32),
)
def test_packed_counts_match_scalar_across_chunks(n, length, seed):
    # full-length blocks around the chunk size, with lanes that make the
    # scalar raise (those ending U U) and with bit 0 cleared, so none does
    rng = random.Random(seed)
    xs = [rng.getrandbits(2 * n) for _ in range(length)]
    _assert_packed_matches_scalar(xs, n)
    _assert_packed_matches_scalar([x & ~1 for x in xs], n)


@pytest.mark.parametrize("length", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_packed_count_names_the_first_bad_path(length, where):
    # valid paths of semilength 6 around one U D U U (0b1011) lane, widened
    # to 12 bits, and a U U U lane at the end unless that is the bad one;
    # the error names the first of them
    paths = dyck._paths_array(6)
    xs = [paths[i % len(paths)] for i in range(length - 1)] + [0b111]
    bad = {"first": 0, "middle": length // 2, "last": length - 1}[where]
    xs[bad] = 0b1011
    with pytest.raises(ArithmeticError, match=f"disagree on path {0b1011:012b}$"):
        _packed_long_ascents(array("I", xs), 6)
    xs[bad] = xs[-1] = 0b110100
    assert _packed_long_ascents(array("I", xs), 6) == _scalar_counts(xs)


def test_run_bits_are_factor_bits_moved_up_plus_the_end():
    # the identity behind the one count: a long run ends at a U U followed
    # by a D (a UUD factor, one place lower) or by the end of the word.  So
    # the UUD factor count that the run scan replaced differs from it only
    # on a word ending in U U, which is what _bit_long_ascents raises on
    for x in range(1 << 16):
        pair = x & (x >> 1)
        factors = (pair >> 1) & ~x
        assert pair & ~(pair << 1) == factors << 1 | (pair & 1)
        if pair & 1:
            with pytest.raises(ArithmeticError):
                _bit_long_ascents(x)
        else:
            assert _bit_long_ascents(x) == factors.bit_count()


def test_packed_counts_disagree_on_run_closed_by_the_end():
    # the packed twin of the scalar test above, alone and between two paths
    with pytest.raises(ArithmeticError):
        _packed_long_ascents(array("I", [0b1011]), 2)
    with pytest.raises(ArithmeticError):
        _packed_long_ascents(array("I", [0b110100, 0b1011, 0b110100]), 3)
    assert _packed_long_ascents(array("I", [0b110100]), 3) == bytes([1])


def test_enumeration_uses_neither_dp_nor_closed_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the enumerator must stay independent")

    for name in ("DyckTable", "count_by_ascents_dp", "closed_form", "closed_form_row"):
        monkeypatch.setattr(dyck, name, forbidden)
    assert count_by_ascents_enum(7) == BRUTE_FORCE_ROWS[7]


def test_long_ascents_examples():
    assert long_ascents("UUDUUUDDUDDD") == 2
    assert long_ascents("UDUDUD") == 0
    assert long_ascents("UUUDDD") == 1
    assert long_ascents("") == 0


def test_long_ascents_run_scan_equals_factor_count():
    # long_ascents counts runs on bits; this counts them step by step on
    # the U/D word, for every small path
    for n in range(8):
        for path in enumerate_paths(n):
            runs = 0
            current = 0
            for step in path:
                if step == "U":
                    current += 1
                else:
                    if current >= 2:
                        runs += 1
                    current = 0
            assert long_ascents(path) == runs


def test_count_by_ascents_enum_rows():
    assert count_by_ascents_enum(3) == {0: 1, 1: 4}
    assert count_by_ascents_enum(4) == {0: 1, 1: 11, 2: 2}
    assert count_by_ascents_enum(0) == {0: 1}


def test_count_by_ascents_dp_rows():
    assert count_by_ascents_dp(5) == {0: 1, 1: 26, 2: 15}
    assert count_by_ascents_dp(4) == count_by_ascents_enum(4)
    assert count_by_ascents_dp(1) == {0: 1}


def test_rows_match_brute_force_oracle():
    for n, expected in BRUTE_FORCE_ROWS.items():
        assert count_by_ascents_enum(n) == expected
        assert count_by_ascents_dp(n) == expected
        assert closed_form_row(n) == expected


def test_closed_form_spot_values():
    assert closed_form(4, 2) == 2
    assert closed_form(5, 1) == 26
    assert closed_form(5, 2) == 15


def test_closed_form_zero_column_is_one():
    for n in range(40):
        assert closed_form(n, 0) == 1


def test_closed_form_vanishes_beyond_half():
    for n in range(20):
        for k in range(n // 2 + 1, n + 3):
            assert closed_form(n, k) == 0


def test_three_methods_agree_to_enumeration_bound():
    for n in range(MAX_ENUM_SEMILENGTH + 1):
        enum_row = count_by_ascents_enum(n)
        assert enum_row == count_by_ascents_dp(n)
        assert enum_row == closed_form_row(n)


def test_dp_row_sums_are_catalan():
    for n in range(41):
        assert sum(count_by_ascents_dp(n).values()) == catalan(n)
    for n in (100, 200):
        assert sum(count_by_ascents_dp(n).values()) == catalan(n)
    # every row of one table up to the CLI bound
    table = DyckTable(300)
    for n in range(301):
        assert sum(table.row(n).values()) == catalan(n)


# sha256 of the repr of every DP row up to the CLI bound, and of the closed
# form over n <= 120 and k <= n + 2 (zero entries included); both computed
# with one list per count vector and the closed form summed over every j.
DP_ROWS_300_SHA256 = "977462c44028831129565b8dac28f0fc4362788161c95b207450bb268eb054b2"
CLOSED_FORM_120_SHA256 = "712fe69fb4bf3e5fe09347e2c0d4d4672eee9f9bb9b6baf93d9c6306cf7a51d2"


def test_dp_rows_pinned_to_cli_bound():
    table = DyckTable(300)
    rows = repr([table.row(n) for n in range(301)])
    assert hashlib.sha256(rows.encode()).hexdigest() == DP_ROWS_300_SHA256


def test_closed_form_values_pinned():
    values = repr([[closed_form(n, k) for k in range(n + 3)] for n in range(121)])
    assert hashlib.sha256(values.encode()).hexdigest() == CLOSED_FORM_120_SHA256


def test_closed_form_rows_pinned_to_cli_bound():
    # the Pascal-table rows through n = 300 have the digest of the DP rows
    rows = repr([closed_form_row(n) for n in range(301)])
    assert hashlib.sha256(rows.encode()).hexdigest() == DP_ROWS_300_SHA256


def test_closed_form_row_matches_closed_form():
    # the Pascal-table slices against the math.comb reference, entry by entry
    for n in range(121):
        expected = {k: value for k in range(n // 2 + 1) if (value := closed_form(n, k))}
        assert closed_form_row(n) == expected


def test_closed_form_row_rejects_a_doctored_pascal_table(monkeypatch):
    # negative control: C(12, 1) read as 13 leaves 13 * 2036 at (n, k) = (11, 1),
    # which 12 does not divide
    rows, columns = dyck._pascal(12)
    doctored = [list(row) for row in rows]
    doctored[12][1] += 1
    monkeypatch.setattr(dyck, "_pascal", lambda size: (doctored, columns))
    with pytest.raises(ArithmeticError, match=r"\(n, k\) = \(11, 1\)"):
        closed_form_row(11)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 120).flatmap(lambda m: st.tuples(st.integers(0, m), st.just(m))))
def test_dp_row_does_not_depend_on_table_size(nm):
    # the height cut and the count-vector layout both depend on max_n
    n, m = nm
    assert DyckTable(m).row(n) == DyckTable(n).row(n)


def test_dp_matches_closed_form_at_large_n():
    rng = random.Random(3)
    for n in (50, 87, 143, 200):
        row = count_by_ascents_dp(n)
        assert max(row) == n // 2
        for k in sorted(rng.sample(sorted(row), 4)):
            assert row[k] == closed_form(n, k)


def test_top_nonzero_column_is_half_semilength():
    for n in range(2, 21):
        row = count_by_ascents_dp(n)
        assert max(k for k, v in row.items() if v) == n // 2


def test_leading_entry_of_even_rows_is_catalan():
    for m in range(1, 11):
        assert closed_form(2 * m, m) == catalan(m)


def test_is_dyck_word_rejects_invalid():
    assert not is_dyck_word("DU")
    assert not is_dyck_word("UUD")
    assert not is_dyck_word("UX")
    assert is_dyck_word("UUDD")


def test_long_ascents_rejects_non_dyck_words():
    # "UUDU" does not end in U U, so only the Dyck-word check rejects it
    for word in ("UUDU", "UDUU", "DU", "UUD", "UXDD", "D"):
        with pytest.raises(ValueError):
            long_ascents(word)


def test_long_ascents_flags_non_dyck_input():
    # NotDyckPathError is a ValueError and, for older callers, an ArithmeticError
    with pytest.raises(ArithmeticError):
        long_ascents("UDUU")
