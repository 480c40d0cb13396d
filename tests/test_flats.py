import random
from math import comb

import pytest

from thagkl.flats import (
    Graph,
    MAX_LATTICE_RANK,
    build_lattice,
    closure,
    thagomizer_graph,
)
from thagkl.kl import char_poly_boolean, char_poly_thag, kl_poly
from thagkl.polynomials import ONE, IntPoly


def expected_rank_count(n: int, i: int) -> int:
    # flats picking one edge from i spikes, plus unions of i-1 spikes and the hub edge
    return comb(n, i) * 2**i + (comb(n, i - 1) if i >= 1 else 0)


def spike_edges(graph: Graph, j: int) -> tuple[int, int]:
    """Edge indices of the spike at outer vertex j (vertices are 2-based)."""
    a = graph.edges.index((0, j))
    b = graph.edges.index((1, j))
    return a, b


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    Graph(3, ((0, 1), (0, 1)))  # parallel edges permitted


def test_graph_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        Graph(-1, ())


# True would otherwise be a one-vertex graph whose edge (0, 1) is out of range
@pytest.mark.parametrize("count", [True, 3.0, "3", None])
def test_graph_rejects_non_int_vertex_count(count):
    with pytest.raises(TypeError):
        Graph(count, ((0, 1),))


@pytest.mark.parametrize("edge", [(0, True), (False, 1), (0, 1.0), ("0", 1)])
def test_graph_rejects_non_int_endpoint(edge):
    with pytest.raises(TypeError):
        Graph(3, (edge,))


def test_graph_stores_edges_as_tuple_of_tuples():
    graph = Graph(3, [[0, 1], (1, 2)])
    assert graph.edges == ((0, 1), (1, 2))
    assert hash(graph) == hash(Graph(3, ((0, 1), (1, 2))))
    assert graph == Graph(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize(
    "bad, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)]
)
def test_thagomizer_graph_rejects_bad_index(bad, error):
    with pytest.raises(error):
        thagomizer_graph(bad)


def test_thagomizer_graph_shapes():
    g0 = thagomizer_graph(0)
    assert (g0.num_vertices, len(g0.edges)) == (2, 1)
    g1 = thagomizer_graph(1)
    assert (g1.num_vertices, len(g1.edges)) == (3, 3)
    assert g1.rank() == 2  # a triangle
    g4 = thagomizer_graph(4)
    assert (g4.num_vertices, len(g4.edges)) == (6, 9)
    assert g4.rank() == 5


def test_closure_of_spike_pulls_in_hub_edge():
    g = thagomizer_graph(4)
    a4, b4 = spike_edges(g, 5)
    assert closure(g, frozenset({a4, b4})) == frozenset({0, a4, b4})


def test_closure_of_empty_set_is_empty():
    g = thagomizer_graph(3)
    assert closure(g, frozenset()) == frozenset()


def test_closure_of_cross_spike_pair_is_itself():
    g = thagomizer_graph(4)
    a1, _ = spike_edges(g, 2)
    _, b3 = spike_edges(g, 4)
    assert closure(g, frozenset({a1, b3})) == frozenset({a1, b3})


def test_closure_rejects_edge_index_out_of_range():
    g = thagomizer_graph(1)  # edges 0..2
    for bad in ({5}, {3}, {-1}):
        with pytest.raises(ValueError):
            closure(g, frozenset(bad))
        with pytest.raises(ValueError):
            g.subset_rank(frozenset(bad))


EDGE_ENTRY_POINTS = {
    "closure": lambda g, lattice, edges: closure(g, edges),
    "subset_rank": lambda g, lattice, edges: g.subset_rank(edges),
    "index_of": lambda g, lattice, edges: lattice.index_of(edges),
    "char_poly": lambda g, lattice, edges: lattice.char_poly(edges),
}


@pytest.mark.parametrize("entry", sorted(EDGE_ENTRY_POINTS))
def test_edge_index_entry_points_reject_bool_and_float(entry):
    g = thagomizer_graph(2)
    lattice = build_lattice(g)
    call = EDGE_ENTRY_POINTS[entry]
    call(g, lattice, {1})
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="edge index must be an int"):
            call(g, lattice, {bad})


def test_mu_row_rejects_bool_and_float_index():
    lattice = build_lattice(thagomizer_graph(2))
    assert lattice.mu_row(1)[1] == 1
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="flat index must be an int"):
            lattice.mu_row(bad)


def test_closure_properties_randomized():
    rng = random.Random(4242)
    g = thagomizer_graph(4)
    universe = range(len(g.edges))
    for _ in range(60):
        sample = frozenset(rng.sample(universe, rng.randrange(0, 6)))
        closed = closure(g, sample)
        assert sample <= closed  # extensive
        assert closure(g, closed) == closed  # idempotent
        assert g.subset_rank(sample) == g.subset_rank(closed)  # rank-preserving
        bigger = sample | frozenset(rng.sample(universe, 2))
        assert closure(g, sample) <= closure(g, bigger)  # monotone


def test_single_edge_lattice():
    lattice = build_lattice(Graph(2, ((0, 1),)))
    assert len(lattice) == 2
    assert lattice.rank_counts() == [1, 1]


def test_lattice_census_small():
    lattice = build_lattice(thagomizer_graph(2))
    assert len(lattice) == 13
    assert lattice.rank_counts() == [1, 5, 6, 1]
    assert build_lattice(thagomizer_graph(3)).rank_counts()[1] == 7


def test_lattice_census_formula():
    for n in range(5):
        counts = build_lattice(thagomizer_graph(n)).rank_counts()
        assert counts == [expected_rank_count(n, i) for i in range(n + 2)]


def test_lattice_closure_idempotence_and_cover_ranks():
    g = thagomizer_graph(3)
    lattice = build_lattice(g)
    for flat, rank in zip(lattice.flats, lattice.ranks):
        assert closure(g, flat) == flat
        assert g.subset_rank(flat) == rank
    # rank strictly increases along containment
    for i, f in enumerate(lattice.flats):
        for j, g_ in enumerate(lattice.flats):
            if i != j and f < g_:
                assert lattice.ranks[i] < lattice.ranks[j]


def test_lattice_rejects_large_rank():
    with pytest.raises(ValueError):
        build_lattice(thagomizer_graph(MAX_LATTICE_RANK))  # rank n+1 = 9


def test_char_poly_of_bottom_flat():
    lattice = build_lattice(thagomizer_graph(2))
    assert lattice.char_poly(frozenset()) == ONE


def test_char_poly_of_full_flat():
    for n in range(4):
        lattice = build_lattice(thagomizer_graph(n))
        full = lattice.flats[-1]
        assert lattice.char_poly(full) == char_poly_thag(n)


def test_char_poly_of_first_type_flats_is_boolean():
    g = thagomizer_graph(3)
    lattice = build_lattice(g)
    for flat, rank in zip(lattice.flats, lattice.ranks):
        if 0 not in flat and all(
            not {a, b} <= flat for a, b in (spike_edges(g, j) for j in range(2, 5))
        ):
            assert lattice.char_poly(flat) == char_poly_boolean(rank)


def test_moebius_alternation():
    for n in range(4):
        lattice = build_lattice(thagomizer_graph(n))
        row = lattice.mu_row(0)
        for j, mu in row.items():
            assert mu != 0
            assert (mu > 0) == (lattice.ranks[j] % 2 == 0)


def test_kl_generic_base_cases():
    assert build_lattice(thagomizer_graph(0)).kl_poly() == ONE
    assert build_lattice(Graph(3, ((0, 1), (1, 2)))).kl_poly() == ONE  # Boolean


def test_kl_generic_matches_recursion():
    for n in range(5):
        lattice = build_lattice(thagomizer_graph(n))
        assert lattice.kl_poly() == kl_poly(n)


def test_kl_generic_semilength_five():
    lattice = build_lattice(thagomizer_graph(5))
    assert lattice.kl_poly().coeffs == (1, 26, 15)


def test_index_of_rejects_non_flat():
    lattice = build_lattice(thagomizer_graph(2))
    # a complete spike without the hub edge is not closed
    with pytest.raises(ValueError):
        lattice.index_of(frozenset({1, 2}))
    # edge indices above 0..4 name no flat; a negative one is no edge index
    for bad in ({5}, {1, 10**9}):
        with pytest.raises(ValueError, match="is not a flat"):
            lattice.index_of(bad)
    with pytest.raises(ValueError, match="edge index must be nonnegative"):
        lattice.index_of({-1})


def test_mu_row_rejects_index_out_of_range():
    lattice = build_lattice(Graph(3, ((0, 1), (1, 2))))
    assert len(lattice) == 4
    assert lattice.mu_row(0)[3] == 1  # Boolean lattice of rank 2
    for bad in (-1, 4, 99):
        with pytest.raises(ValueError):
            lattice.mu_row(bad)


def test_editing_mu_row_leaves_the_lattice_unchanged():
    lattice = build_lattice(thagomizer_graph(2))
    top = lattice.flats[-1]
    assert lattice.char_poly(top) == IntPoly((-4, 8, -5, 1))
    lattice.mu_row(0)[len(lattice) - 1] += 5
    assert lattice.char_poly(top) == IntPoly((-4, 8, -5, 1))
    assert lattice.mu_row(0)[len(lattice) - 1] == -4


def is_palindromic(poly: IntPoly, degree: int) -> bool:
    return poly.degree() == degree and poly.coeffs == poly.coeffs[::-1]


def complete_graph(v: int) -> Graph:
    return Graph(v, tuple((a, b) for a in range(v) for b in range(a + 1, v)))


Z_GRAPHS = (
    [thagomizer_graph(n) for n in range(7)]
    + [complete_graph(v) for v in (4, 5, 6)]
    + [
        Graph(3, ((0, 1), (0, 1), (1, 2))),
        Graph(4, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (2, 3), (2, 3))),
        Graph(5, ((0, 1), (0, 1), (0, 2), (1, 2), (3, 4), (3, 4))),  # two components
    ]
)


def test_z_poly_is_palindromic_of_matroid_rank():
    for graph in Z_GRAPHS:
        assert is_palindromic(build_lattice(graph).z_poly(), graph.rank())


def test_z_poly_values():
    # Z of a Boolean matroid is (1 + t)^rank; of U_{2,3} (a triangle) 1 + 3t + t^2
    assert build_lattice(Graph(4, ((0, 1), (1, 2), (2, 3)))).z_poly() == IntPoly((1, 3, 3, 1))
    assert build_lattice(thagomizer_graph(1)).z_poly() == IntPoly((1, 3, 1))


def test_doctored_z_poly_is_not_palindromic():
    for graph in Z_GRAPHS:
        coeffs = list(build_lattice(graph).z_poly().coeffs)
        for k in range(len(coeffs)):
            if 2 * k == len(coeffs) - 1:
                continue  # a bump of the middle coefficient keeps the symmetry
            bumped = coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1:]
            assert not is_palindromic(IntPoly(bumped), graph.rank())
