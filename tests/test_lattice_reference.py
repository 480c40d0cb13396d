"""The bitset lattice engine against a per-pair reference kept here.

``ReferenceLattice`` is the engine as it was before flats became bitmasks:
flats found by closing single-edge extensions, the order by frozenset
containment, a Moebius row per flat, and the characteristic polynomial of
every interval [i, g] fed to the defining recursion one pair at a time.  It
shares only ``closure``, ``IntPoly`` and the reflection solver with the
engine under test.  In particular it solves every flat, so it checks the
engine's shortcut, one solve per class of flats keyed by the classes in
their up-sets, on graphs with planted twins and without.
"""

import itertools
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thagkl import flats
from thagkl.flats import Graph, build_lattice, closure, thagomizer_graph
from thagkl.polynomials import ONE, ZERO, IntPoly, solve_reflection_equation


class ReferenceLattice:
    def __init__(self, graph: Graph) -> None:
        bottom = closure(graph, frozenset())
        seen = {bottom}
        frontier = [bottom]
        while frontier:
            nxt = []
            for flat in frontier:
                for e in range(len(graph.edges)):
                    if e not in flat:
                        bigger = closure(graph, flat | {e})
                        if bigger not in seen:
                            seen.add(bigger)
                            nxt.append(bigger)
            frontier = nxt
        ranked = sorted((graph.subset_rank(f), tuple(sorted(f))) for f in seen)
        self.flats = tuple(frozenset(edges) for _, edges in ranked)
        self.ranks = tuple(r for r, _ in ranked)
        self.above = [[j for j, g in enumerate(self.flats) if f <= g] for f in self.flats]
        self._mu_rows: dict[int, dict[int, int]] = {}
        self._kl_upper: dict[int, IntPoly] = {}

    def mu_row(self, i: int) -> dict[int, int]:
        row = self._mu_rows.get(i)
        if row is None:
            row = {}
            for j in self.above[i]:
                if j == i:
                    row[j] = 1
                    continue
                fj = self.flats[j]
                row[j] = -sum(
                    row[h] for h in self.above[i] if h < j and self.flats[h] <= fj
                )
            self._mu_rows[i] = row
        return row

    def interval_char_poly(self, i: int, j: int) -> IntPoly:
        mu = self.mu_row(i)
        fj = self.flats[j]
        rj = self.ranks[j]
        coeffs = [0] * (rj - self.ranks[i] + 1)
        for h in self.above[i]:
            if h <= j and self.flats[h] <= fj:
                coeffs[rj - self.ranks[h]] += mu[h]
        return IntPoly(coeffs)

    def kl_of_upper(self, i: int) -> IntPoly:
        cached = self._kl_upper.get(i)
        if cached is not None:
            return cached
        rank = self.ranks[-1] - self.ranks[i]
        if rank == 0:
            result = ONE
        else:
            rhs = ZERO
            for g in self.above[i]:
                if g != i:
                    rhs = rhs + self.interval_char_poly(i, g) * self.kl_of_upper(g)
            result = solve_reflection_equation(rank, rhs)
        self._kl_upper[i] = result
        return result


def connected_partitions(num_vertices: int, edges) -> int:
    """Partitions of the vertices into blocks that each induce a connected
    subgraph, counted by brute force over all set partitions."""
    adjacent = [set() for _ in range(num_vertices)]
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)

    def connected(block: list[int]) -> bool:
        seen = {block[0]}
        stack = [block[0]]
        while stack:
            for w in adjacent[stack.pop()] & set(block):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(block)

    def partitions(vertices: list[int]):
        if not vertices:
            yield []
            return
        first, rest = vertices[0], vertices[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for k in range(len(part)):
                yield part[:k] + [[first] + part[k]] + part[k + 1:]

    return sum(all(connected(b) for b in p) for p in partitions(list(range(num_vertices))))


@st.composite
def multigraphs(draw):
    """Up to six vertices and eight edges; parallel edges, isolated vertices
    and several components all occur."""
    num_vertices = draw(st.integers(0, 6))
    if num_vertices < 2:
        return Graph(num_vertices, ())
    pair = st.tuples(st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=8))
    return Graph(num_vertices, tuple(edges))


@st.composite
def graphs_with_twins(draw):
    """A multigraph on two to four vertices, then one to three clones of its
    vertices: a false twin copies a vertex's neighbours, a true twin also
    gets the edge joining it to the vertex.  Some copied edges are doubled."""
    num_vertices = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=5))
    for _ in range(draw(st.integers(1, 3))):
        source = draw(st.integers(0, num_vertices - 1))
        clone = num_vertices
        num_vertices += 1
        neighbours = sorted({w for e in edges if source in e for w in e if w != source})
        for w in neighbours:
            edges.append((clone, w))
            if draw(st.booleans()):
                edges.append((w, clone))
        if draw(st.booleans()):
            edges.append((source, clone))
    return Graph(num_vertices, tuple(edges))


def complete_graph(v: int) -> Graph:
    return Graph(v, tuple((u, w) for u in range(v) for w in range(u + 1, v)))


# hubs 0, 1 are true twins, 2, 3 false twins, 4 has no twin; (2, 4) is doubled
TRUE_AND_FALSE_TWINS = Graph(
    5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 2))
)


@settings(max_examples=150, deadline=None)
@given(multigraphs())
@example(thagomizer_graph(4))
@example(complete_graph(5))
@example(Graph(6, ((0, 1), (0, 1), (1, 2), (3, 4), (3, 4), (4, 3))))
# contracting edge (0, 2) leaves K_{2,3}, contracting (0, 3) a graph of seven
# edges: both upper intervals have rank 4 and 34 flats, and P 1 + 5t against
# 1 + 3t, so a key of rank and up-set size alone fails here
@example(Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (3, 5), (4, 5))))
def test_engine_matches_reference(graph):
    assert_matches_reference(graph)


@settings(max_examples=60, deadline=None)
@given(graphs_with_twins())
@example(complete_graph(6))
@example(thagomizer_graph(5))
@example(TRUE_AND_FALSE_TWINS)
def test_engine_with_planted_twins_matches_reference(graph):
    # a clone of a vertex without edges is an isolated twin, which
    # twin_swaps leaves out
    assert twin_swaps(graph, isolated=True)
    assert_matches_reference(graph)


def test_twin_classes_of_named_graphs():
    # the reference's twin classes, on which the orbit counts below rest
    assert twin_classes(TRUE_AND_FALSE_TWINS) == [(0, 1), (2, 3)]
    assert twin_classes(thagomizer_graph(3)) == [(0, 1), (2, 3, 4)]
    assert twin_classes(complete_graph(4)) == [(0, 1, 2, 3)]
    # a path on four vertices has no twins
    assert twin_classes(Graph(4, ((0, 1), (1, 2), (2, 3)))) == []
    for graph, classes in ORBIT_CASES:
        assert twin_classes(graph) == [tuple(c) for c in classes]


def test_flats_of_one_rank_with_other_contractions_are_solved_apart():
    # a triangle with a pendant edge: contracting a triangle edge leaves a
    # path on three blocks, contracting the pendant edge a triangle.  Both
    # flats have rank 1, but the path's lattice has two atoms and the
    # triangle's three, so the coatoms above them, their keys and chi differ
    graph = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    top = len(ref.flats) - 1
    path, triangle = lattice.index_of({0}), lattice.index_of({3})
    assert lattice.ranks[path] == lattice.ranks[triangle] == 1
    assert lattice.up_sets[path].bit_count() == 4
    assert lattice.up_sets[triangle].bit_count() == 5
    chi = lattice._uppers[1]
    assert ref.interval_char_poly(path, top) != ref.interval_char_poly(triangle, top)
    assert (chi[path], chi[triangle]) == (ref.interval_char_poly(path, top),
                                          ref.interval_char_poly(triangle, top))


def canonical_edges(num_vertices: int, edges) -> tuple:
    """The least sorted edge list of a simple graph over every relabelling."""
    return min(tuple(sorted(tuple(sorted((s[u], s[v]))) for u, v in edges))
               for s in itertools.permutations(range(num_vertices)))


@pytest.mark.parametrize("graph, bits", [(complete_graph(6), 8), (complete_graph(7), 16)])
def test_narrow_slot_raises(monkeypatch, graph, bits):
    monkeypatch.setattr(flats, "_SLOT_BITS", bits)
    with pytest.raises(ArithmeticError, match="slot"):
        build_lattice(graph).kl_poly()


def vertex_partition(graph: Graph, flat) -> list[list[int]]:
    """Blocks of the vertices that the flat's edges connect."""
    block = {v: {v} for v in range(graph.num_vertices)}
    for e in flat:
        u, v = graph.edges[e]
        if block[u] is not block[v]:
            merged = block[u] | block[v]
            for w in merged:
                block[w] = merged
    return [sorted(b) for b in {id(b): b for b in block.values()}.values()]


# graphs with their twin classes of more than one vertex
ORBIT_CASES = [
    (thagomizer_graph(4), [[0, 1], [2, 3, 4, 5]]),
    (TRUE_AND_FALSE_TWINS, [[0, 1], [2, 3]]),
    # twin-free graphs: a path, a 5-cycle with a chord, two triangles
    # joined by an edge and a doubled edge
    (Graph(4, ((0, 1), (1, 2), (2, 3))), []),
    (Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))), []),
    (Graph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (1, 4))), []),
    (complete_graph(5), [[0, 1, 2, 3, 4]]),
]


def contraction_class(graph: Graph, flat):
    """The contraction G/F up to isomorphism.

    G/F has F's blocks with edges as vertices, two of them adjacent when an
    edge joins them; it is named by its block count and least edge list."""
    touched = {v for e in graph.edges for v in e}
    blocks = [b for b in vertex_partition(graph, flat) if touched.intersection(b)]
    where = {v: k for k, b in enumerate(blocks) for v in b}
    edges = {tuple(sorted((where[u], where[v]))) for u, v in graph.edges if where[u] != where[v]}
    return len(blocks), canonical_edges(len(blocks), edges)


def contraction_classes(graph: Graph, flat_list) -> set:
    """The contractions of the flats up to isomorphism.  Flats with one
    contraction have isomorphic upper intervals, and so one key each."""
    return {contraction_class(graph, f) for f in flat_list}


def orbit_names(graph: Graph, classes, flat_list) -> list:
    """The orbit of each flat under every permutation of twins, named by its
    least image as a sorted tuple of sorted vertex blocks."""
    perms = []
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        sigma = list(range(graph.num_vertices))
        for c, image in zip(classes, images):
            for v, w in zip(c, image):
                sigma[v] = w
        perms.append(sigma)
    return [
        min(tuple(sorted(tuple(sorted(s[v] for v in b)) for b in vertex_partition(graph, f)))
            for s in perms)
        for f in flat_list
    ]


def solves_of(call) -> int:
    """How many times ``call()`` runs the reflection core, through which the
    lattice engine solves; it shares the core with solve_reflection_equation."""
    solves = []
    honest = flats._solve_reflection

    def counting(rank, cs):
        solves.append(rank)
        return honest(rank, cs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flats, "_solve_reflection", counting)
        call()
    return len(solves)


@pytest.mark.parametrize("graph, classes", ORBIT_CASES)
def test_one_solve_per_orbit_of_twin_permutations(graph, classes):
    lattice = build_lattice(graph)
    solves = solves_of(lattice.kl_poly)
    # at most one solve per contraction of the non-top flats, and the keys
    # merge flats that no twin permutation relates
    non_top = lattice.flats[:-1]
    assert solves <= len(contraction_classes(graph, non_top))
    assert solves < len(set(orbit_names(graph, classes, non_top)))


@settings(max_examples=60, deadline=None)
@given(multigraphs())
@example(complete_graph(6))
def test_solves_are_at_most_the_contraction_classes(graph):
    lattice = build_lattice(graph)
    solves = solves_of(lattice.kl_poly)
    assert solves <= len(contraction_classes(graph, lattice.flats[:-1]))


@pytest.mark.parametrize("graph, classes", ORBIT_CASES)
def test_one_solve_per_orbit_in_the_char_poly_of_a_moved_flat(graph, classes):
    # char_poly(F) below the top runs the pass of the graph on F's edges,
    # which keys by that graph's own up-sets, even when a twin swap of the
    # whole graph moves F
    lattice = build_lattice(graph)
    moved = moved_by_a_twin_swap(graph, lattice.flats)
    assert bool(moved) == bool(classes)
    # the highest flat that a swap moves, else the highest below the top
    f = max(moved, default=len(lattice) - 2)
    restricted = Graph(graph.num_vertices,
                       tuple(graph.edges[e] for e in sorted(lattice.flats[f])))
    chi = []
    solves = solves_of(lambda: chi.append(lattice.char_poly(lattice.flats[f])))
    local = build_lattice(restricted)
    assert solves <= len(contraction_classes(restricted, local.flats[:-1]))
    assert chi == [ReferenceLattice(graph).interval_char_poly(0, f)]


def test_mu_row_of_a_flat_moved_by_twin_permutations():
    # in K_5 the flat {01} has the upper interval of every single edge, and
    # mu from it differs between flats with one upper interval above it:
    # {012}{34} is a product of two rank-1 intervals, {01}{234} merges
    # three blocks of {01}{2}{3}{4}
    graph = complete_graph(5)
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    edge = {pair: e for e, pair in enumerate(graph.edges)}

    def flat(*pairs):
        return lattice.index_of(closure(graph, {edge[p] for p in pairs}))

    i = flat((0, 1))
    kl, chi = lattice._uppers
    assert {(kl[e], chi[e]) for e in range(1, len(graph.edges) + 1)} == {(kl[i], chi[i])}
    j, k = flat((0, 1), (1, 2), (3, 4)), flat((0, 1), (2, 3), (3, 4))
    assert (kl[j], chi[j]) == (kl[k], chi[k])
    row = lattice.mu_row(i)
    assert (row[j], row[k]) == (1, 2)
    assert row == ref.mu_row(i)


def twin_swaps(graph: Graph, isolated: bool = False) -> list[tuple[int, int]]:
    """Pairs of twins, found here from neighbour sets: N(u) - {v} = N(v) - {u}.
    Two isolated vertices are twins too, but swapping them moves no flat, so
    they are left out unless asked for."""
    neighbours = [set() for _ in range(graph.num_vertices)]
    for u, v in graph.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return [(u, v) for u, v in itertools.combinations(range(graph.num_vertices), 2)
            if (isolated or neighbours[u]) and neighbours[u] - {v} == neighbours[v] - {u}]


def twin_classes(graph: Graph) -> list[tuple[int, ...]]:
    """The twin classes of more than one vertex with edges."""
    # twinship is an equivalence, so a vertex's class is it and its partners
    partners: dict[int, set[int]] = {}
    for u, v in twin_swaps(graph):
        partners.setdefault(u, {u}).add(v)
        partners.setdefault(v, {v}).add(u)
    return sorted({tuple(sorted(c)) for c in partners.values()})


def moved_by_a_twin_swap(graph: Graph, flat_list) -> list[int]:
    """Indices of the flats that swapping two twin vertices moves."""
    swaps = twin_swaps(graph)

    def blocks(flat, swap=None):
        image = {swap[0]: swap[1], swap[1]: swap[0]} if swap else {}
        return sorted(sorted(image.get(v, v) for v in b) for b in vertex_partition(graph, flat))

    return [i for i, flat in enumerate(flat_list)
            if any(blocks(flat, swap) != blocks(flat) for swap in swaps)]


def assert_chi_matches_reference(graph):
    # chi([g, 1]) from the one top-down pass for every flat g, and char_poly
    # of every flat that a twin swap moves, whose own lattice is not the
    # whole graph's
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    top = len(ref.flats) - 1
    assert lattice._uppers[1] == [ref.interval_char_poly(g, top) for g in range(top + 1)]
    for f in moved_by_a_twin_swap(graph, lattice.flats):
        assert lattice.char_poly(lattice.flats[f]) == ref.interval_char_poly(0, f)


@pytest.mark.parametrize("n", range(7))
def test_chi_of_the_thagomizer_matches_reference(n):
    graph = thagomizer_graph(n)
    lattice = build_lattice(graph)
    # a swap of hubs or of spikes moves every flat but the bottom, the top
    # and, from n = 2 on, the hub edge {0}
    fixed = {0, len(lattice) - 1} | ({lattice.index_of({0})} if n >= 2 else set())
    assert set(moved_by_a_twin_swap(graph, lattice.flats)) == set(range(len(lattice))) - fixed
    assert_chi_matches_reference(graph)


@settings(max_examples=60, deadline=None)
@given(graphs_with_twins())
@example(TRUE_AND_FALSE_TWINS)
@example(complete_graph(5))
# 1 and 6 are twins, and so are 2 and 3; copying by the orbits of the whole
# graph in a pass on [0, F], for a flat F that a swap moves, gave a wrong chi here
@example(Graph(7, ((1, 2), (1, 3), (5, 2), (5, 3), (1, 5), (6, 2), (6, 3), (6, 5))))
def test_chi_with_planted_twins_matches_reference(graph):
    assert_chi_matches_reference(graph)


def assert_matches_reference(graph):
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    assert lattice.flats == ref.flats
    assert lattice.ranks == ref.ranks
    # the first index of each rank, then len(lattice)
    top = lattice.ranks[-1]
    assert lattice._rank_start == [bisect_left(ref.ranks, r) for r in range(top + 2)]
    assert len(lattice) == connected_partitions(graph.num_vertices, graph.edges)
    for i, f in enumerate(lattice.flats):
        for j, g in enumerate(lattice.flats):
            assert (lattice.up_sets[i] >> j & 1) == (f <= g)
    for i, flat in enumerate(lattice.flats):
        assert lattice.mu_row(i) == ref.mu_row(i)
        assert lattice.char_poly(flat) == ref.interval_char_poly(0, i)
    assert lattice._uppers[0] == [ref.kl_of_upper(i) for i in range(len(ref.flats))]
    assert lattice.kl_poly() == ref.kl_of_upper(0)
    # Braden-Huh-Matherne-Proudfoot-Wang (arXiv:2010.06088): nonnegative,
    # constant term 1, and deg < rank / 2 for every upper interval
    for rank, p in zip(lattice.ranks, lattice._uppers[0]):
        assert p.constant_term() == 1
        assert 2 * p.degree() < top - rank or (rank == top and p == ONE)
        assert all(c >= 0 for c in p.coeffs)
    z = lattice.z_poly()
    assert z.degree() == top and z.coeffs == z.coeffs[::-1]
