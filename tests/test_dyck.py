import hashlib
import random
from itertools import product

import pytest

from thagkl import dyck
from thagkl.dyck import (
    MAX_ENUM_SEMILENGTH,
    _bit_long_ascents,
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
    # the two counting strategies are computed independently inside
    # long_ascents and cross-checked; exercise that on every small path
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
    # the capability bound of the dynamic program
    for n in (100, 200):
        assert sum(count_by_ascents_dp(n).values()) == catalan(n)


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
    # "UUDU" has one long run and one UUD factor, so the counts alone agree
    for word in ("UUDU", "UDUU", "DU", "UUD", "UXDD", "D"):
        with pytest.raises(ValueError):
            long_ascents(word)


def test_long_ascents_flags_non_dyck_input():
    # NotDyckPathError is a ValueError and, for older callers, an ArithmeticError
    with pytest.raises(ArithmeticError):
        long_ascents("UDUU")
