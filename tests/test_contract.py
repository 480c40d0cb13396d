"""One contract for every index argument of the package.

Each entry takes an index with a least valid value ``low`` (0, or 1 where the
index counts from 1).  It must accept ``low`` and raise ``TypeError`` for a
bool or a float and ``ValueError`` for ``low - 1``.  The valid call comes
first, so a cached entry cannot answer ``True`` from the entry for 1.
"""

import enum

import pytest

from thagkl import dyck, equivariant, flats, kl, polynomials, symfunc, verify
from thagkl.polynomials import IntPoly, ONE, T
from thagkl.symfunc import SchurPoly

GRAPH = flats.thagomizer_graph(2)
LATTICE = flats.build_lattice(GRAPH)

# (id, entry, low)
ENTRIES = [
    ("IntPoly.__pow__", lambda n: T**n, 0),
    ("IntPoly.shifted", lambda k: T.shifted(k), 0),
    ("expand_F", polynomials.expand_F, 0),
    # t^r P(1/t) - P(t) = 1 - t has the solution P = -1 at rank 1
    ("solve_reflection_equation",
     lambda r: polynomials.solve_reflection_equation(r, IntPoly((1, -1))), 1),
    ("char_poly_boolean", kl.char_poly_boolean, 0),
    ("char_poly_thag", kl.char_poly_thag, 0),
    ("KLTable.poly", lambda n: kl.KLTable().poly(n), 0),
    ("kl_poly", kl.kl_poly, 0),
    ("phi_series", kl.phi_series, 0),
    ("verify_theorem", kl.verify_theorem, 1),
    ("catalan", dyck.catalan, 0),
    ("enumerate_paths", dyck.enumerate_paths, 0),
    ("count_by_ascents_enum", dyck.count_by_ascents_enum, 0),
    ("DyckTable", dyck.DyckTable, 0),
    ("DyckTable.row", lambda n: dyck.DyckTable(3).row(n), 0),
    ("count_by_ascents_dp", dyck.count_by_ascents_dp, 0),
    ("closed_form-n", lambda n: dyck.closed_form(n, 0), 0),
    ("closed_form-k", lambda k: dyck.closed_form(4, k), 0),
    ("closed_form_row", dyck.closed_form_row, 0),
    ("Graph-vertices", lambda count: flats.Graph(count, ()), 0),
    ("Graph-endpoint-u", lambda u: flats.Graph(3, ((u, 2),)), 0),
    ("Graph-endpoint-v", lambda v: flats.Graph(3, ((2, v),)), 0),
    ("closure", lambda e: flats.closure(GRAPH, {e}), 0),
    ("subset_rank", lambda e: GRAPH.subset_rank({e}), 0),
    ("thagomizer_graph", flats.thagomizer_graph, 0),
    ("index_of", lambda e: LATTICE.index_of({e}), 0),
    ("mu_row", LATTICE.mu_row, 0),
    ("partitions_of", symfunc.partitions_of, 0),
    ("SchurPoly-degree", lambda d: SchurPoly({}, degree=d), 0),
    ("SchurPoly.h", SchurPoly.h, 0),
    ("SchurPoly.e", SchurPoly.e, 0),
    ("SchurPoly.mul_h", lambda a: SchurPoly.one().mul_h(a), 0),
    ("SchurPoly.mul_e", lambda b: SchurPoly.one().mul_e(b), 0),
    ("w_poly", symfunc.w_poly, 0),
    ("v_poly", symfunc.v_poly, 0),
    ("v_poly_via_plethysm", symfunc.v_poly_via_plethysm, 0),
    ("EqKLTable.poly", lambda n: equivariant.EqKLTable().poly(n), 0),
    ("eq_kl", equivariant.eq_kl, 0),
    ("upsilon", equivariant.upsilon, 1),
    ("kappa", lambda n: equivariant.kappa((1,), n), 1),
    ("conjecture_poly", equivariant.conjecture_poly, 1),
    ("verify_conjecture", equivariant.verify_conjecture, 1),
    ("corrupted_series-n", lambda n: verify.corrupted_series(5, n, 0), 0),
    # n = 2, as deg P_n <= n // 2 bounds k: k = 1 must be a valid index
    ("corrupted_series-k", lambda k: verify.corrupted_series(5, 2, k), 0),
    ("run_checks", verify.run_checks, 0),
]


@pytest.mark.parametrize("entry, low", [pytest.param(f, low, id=name) for name, f, low in ENTRIES])
def test_index_contract(entry, low):
    entry(low)
    entry(1)  # fills the cache entry that True would hit, as 1 == True
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="must be an int"):
            entry(bad)
    with pytest.raises(ValueError, match="must be positive" if low else "must be nonnegative"):
        entry(low - 1)



# (id, call) of public entries handed a value of the wrong type: each must
# raise TypeError, not the AttributeError of reading that value's fields
WRONG_TYPES = [
    ("solve_reflection_equation-rhs", lambda: polynomials.solve_reflection_equation(3, 1)),
    ("verify_theorem-series", lambda: kl.verify_theorem(3, series=[1, 2, 3])),
    ("verify_conjecture-candidates", lambda: equivariant.verify_conjecture(3, candidates={2: 5})),
    # a sequence is not a mapping of n to candidates, and True is not the index 1
    ("verify_conjecture-candidates-list", lambda: equivariant.verify_conjecture(3, candidates=[1])),
    ("verify_conjecture-candidates-bool-key",
     lambda: equivariant.verify_conjecture(3, candidates={True: SchurPoly.h(1)})),
    ("SchurPoly.__add__", lambda: SchurPoly.one() + 1),
    ("IntPoly-float-and-str", lambda: IntPoly((0.5, "x"))),
    ("IntPoly-bool", lambda: IntPoly((True, 2))),
    ("IntPoly-float-on-top", lambda: IntPoly((1, 2.0))),
    # a bool operand fails whether or not it would land in a coefficient as is
    ("IntPoly.__add__-bool", lambda: ONE + True),
    ("IntPoly.__mul__-bool", lambda: T * True),
    ("IntPoly.__rsub__-bool", lambda: True - T),
    # Horner's scheme at a float or bool point would return a float or read True as 1
    ("IntPoly.evaluate-float", lambda: IntPoly((1, 2)).evaluate(0.5)),
    ("IntPoly.evaluate-bool", lambda: IntPoly((1, 2)).evaluate(True)),
    # an int or a list of pairs is neither a graph nor a mapping of terms
    ("build_lattice-graph", lambda: flats.build_lattice(5)),
    ("closure-graph", lambda: flats.closure(5, {0})),
    ("SchurPoly-terms", lambda: SchurPoly([((1,), 1)])),
    # a path is a str: a sequence of steps or bytes is not read as one
    ("long_ascents-list", lambda: dyck.long_ascents(["U", "U", "D", "D"])),
    ("long_ascents-tuple", lambda: dyck.long_ascents(("U", "D"))),
    ("long_ascents-bytes", lambda: dyck.long_ascents(b"UD")),
    ("is_dyck_word-list", lambda: dyck.is_dyck_word(["U", "D"])),
    ("is_dyck_word-bytes", lambda: dyck.is_dyck_word(b"UD")),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in WRONG_TYPES])
def test_wrong_type_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


# the two strip walkers take a size below which there are no strips, so a
# negative size is no error; a size that is not an int is, and an int
# subclass other than bool is read as its int
class Size(enum.IntEnum):
    ONE = 1


STRIP_WALKS = [
    ("horizontal_strips", symfunc.horizontal_strips),
    ("vertical_strips", symfunc.vertical_strips),
]


@pytest.mark.parametrize("walk", [pytest.param(w, id=name) for name, w in STRIP_WALKS])
def test_strip_size_contract(walk):
    assert sorted(walk((2, 1), 1)) == sorted({(3, 1), (2, 2), (2, 1, 1)})
    assert list(walk((2, 1), -1)) == []
    assert list(walk((2, 1), Size.ONE)) == list(walk((2, 1), 1))
    assert list(walk((), Size.ONE)) == [(1,)]
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="must be an int"):
            list(walk((2, 1), bad))


# (id, entry) of every public entry that takes a partition; the bad values
# below all have size 4, so a size check cannot stand in for the partition check
PARTITION_ENTRIES = [
    ("SchurPoly", lambda lam: SchurPoly({lam: 1})),
    ("SchurPoly.coefficient", lambda lam: SchurPoly.h(4).coefficient(lam)),
    ("hook_dim", symfunc.hook_dim),
    ("horizontal_strips", lambda lam: list(symfunc.horizontal_strips(lam, 1))),
    ("vertical_strips", lambda lam: list(symfunc.vertical_strips(lam, 1))),
    ("conjugate", symfunc.conjugate),
    ("kappa", lambda lam: equivariant.kappa(lam, 4)),
    ("omega", equivariant.omega),
]


@pytest.mark.parametrize("entry", [pytest.param(f, id=name) for name, f in PARTITION_ENTRIES])
def test_partition_contract(entry):
    entry((3, 1))
    entry((2, 1, 1))  # fills any cache entry that (2, True, 1) would hit
    for bad in [(1, 3), (2, 0, 2), (4, 0), (3, 2, -1), (1, 2, 1)]:
        with pytest.raises(ValueError, match="weakly decreasing|must be positive"):
            entry(bad)
    for bad in [(2.0, 2), (2, True, 1), ("4",)]:
        with pytest.raises(TypeError, match="must be an int"):
            entry(bad)
