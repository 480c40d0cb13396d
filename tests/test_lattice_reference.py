"""The bitset lattice engine against a per-pair reference kept here.

``ReferenceLattice`` is the engine as it was before flats became bitmasks:
flats found by closing single-edge extensions, the order by frozenset
containment, a Moebius row per flat, and the characteristic polynomial of
every interval [i, g] fed to the defining recursion one pair at a time.  It
shares only ``closure``, ``IntPoly`` and the reflection solver with the
engine under test.  In particular it knows nothing of twin vertices or of
contractions, so it checks the engine's shortcuts, one solve per twin orbit
and one per contraction class, on graphs with planted twins and without.
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
def test_engine_matches_reference(graph):
    assert_matches_reference(graph)


@settings(max_examples=60, deadline=None)
@given(graphs_with_twins())
@example(complete_graph(6))
@example(thagomizer_graph(5))
@example(TRUE_AND_FALSE_TWINS)
def test_engine_with_planted_twins_matches_reference(graph):
    assert len(set(flats._twin_classes(graph))) < graph.num_vertices
    assert_matches_reference(graph)


def test_twin_classes_of_named_graphs():
    assert flats._twin_classes(TRUE_AND_FALSE_TWINS) == [0, 0, 1, 1, 2]
    assert flats._twin_classes(thagomizer_graph(3)) == [0, 0, 1, 1, 1]
    assert flats._twin_classes(complete_graph(4)) == [0, 0, 0, 0]
    # a path on four vertices has no twins
    assert flats._twin_classes(Graph(4, ((0, 1), (1, 2), (2, 3)))) == [0, 1, 2, 3]


def test_orbit_key_merging_non_twins_is_caught(monkeypatch):
    # hub 0 and outer vertex 2 of the thagomizer are not twins.  Only flats
    # of five or more blocks are keyed by twin orbit: in thagomizer 3 that
    # is the bottom alone, so treating 0 and 2 as one class changes nothing,
    # while in thagomizer 4 it puts rank-1 flats whose upper intervals differ
    # in size into one class, and the copy check raises
    honest = flats._twin_classes

    def merged(g):
        classes = honest(g)
        return [classes[0] if c == classes[2] else c for c in classes]

    expected = {}
    for n in (3, 4):
        ref = ReferenceLattice(thagomizer_graph(n))
        expected[n] = [ref.kl_of_upper(i) for i in range(len(ref.flats))]
        assert build_lattice(thagomizer_graph(n))._uppers[0] == expected[n]
    monkeypatch.setattr(flats, "_twin_classes", merged)
    assert build_lattice(thagomizer_graph(3))._uppers[0] == expected[3]
    lattice = build_lattice(thagomizer_graph(4))
    assert any(isinstance(key, int) for key in lattice._keys[1:])
    with pytest.raises(ArithmeticError, match="copies"):
        lattice._uppers


def test_a_copied_flat_with_a_wrong_up_set_raises():
    # the lowest flat that copies another: clearing the top from its up-set
    # leaves an up-set smaller than that of the flat it copies
    lattice = build_lattice(thagomizer_graph(4))
    keys = lattice._keys
    i = next(i for i, key in enumerate(keys) if key in keys[i + 1:])
    up_sets = list(lattice.up_sets)
    up_sets[i] &= ~(1 << (len(lattice) - 1))
    lattice.up_sets = tuple(up_sets)
    with pytest.raises(ArithmeticError, match=f"flat {i} copies"):
        lattice._uppers


def test_a_key_of_the_block_count_alone_is_caught():
    # a triangle with a pendant edge: contracting a triangle edge leaves a
    # path on three blocks, contracting the pendant edge a triangle, and
    # their upper intervals have different chi
    graph = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    top = len(ref.flats) - 1
    path, triangle = lattice.index_of({0}), lattice.index_of({3})
    assert (lattice._keys[path], lattice._keys[triangle]) == ((1, 1, 2), (2, 2, 2))
    assert ref.interval_char_poly(path, top) != ref.interval_char_poly(triangle, top)
    lattice._keys = [("blocks", len(key)) if isinstance(key, tuple) else key
                     for key in lattice._keys]
    with pytest.raises(ArithmeticError, match="copies"):
        lattice._uppers


def canonical_edges(num_vertices: int, edges) -> tuple:
    """The least sorted edge list of a simple graph over every relabelling."""
    return min(tuple(sorted(tuple(sorted((s[u], s[v]))) for u, v in edges))
               for s in itertools.permutations(range(num_vertices)))


def test_sorted_degrees_name_a_graph_on_at_most_four_vertices():
    # every labelled simple graph on v <= 4 vertices: one isomorphism class
    # per sorted degree sequence, 11 classes on four vertices
    for v in range(5):
        pairs = list(itertools.combinations(range(v), 2))
        by_degrees: dict[tuple, set] = {}
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                degrees = tuple(sorted(sum(x in e for e in edges) for x in range(v)))
                by_degrees.setdefault(degrees, set()).add(canonical_edges(v, edges))
                if all(degrees):
                    # the engine's key of the bottom flat, whose blocks are the vertices
                    assert build_lattice(Graph(v, edges))._keys[0] == degrees
        assert all(len(graphs) == 1 for graphs in by_degrees.values())
    assert len(by_degrees) == 11


def test_sorted_degrees_do_not_name_a_graph_on_five_vertices():
    # a path and a triangle beside an edge share (1, 1, 2, 2, 2), and their
    # lattices differ, so the engine keys five blocks by twin orbit
    path = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    triangle_and_edge = Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
    for graph in (path, triangle_and_edge):
        degrees = sorted(sum(v in e for e in graph.edges) for v in range(5))
        assert degrees == [1, 1, 2, 2, 2]
    lattices = [build_lattice(path), build_lattice(triangle_and_edge)]
    assert lattices[0].rank_counts() == [1, 4, 6, 4, 1]
    assert lattices[1].rank_counts() == [1, 4, 4, 1]
    assert all(isinstance(lattice._keys[0], int) for lattice in lattices)


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
    """The contraction G/F up to isomorphism, or None above four blocks.

    G/F has F's blocks with edges as vertices, two of them adjacent when an
    edge joins them; it is named by its block count and least edge list."""
    touched = {v for e in graph.edges for v in e}
    blocks = [b for b in vertex_partition(graph, flat) if touched.intersection(b)]
    if len(blocks) > 4:
        return None
    where = {v: k for k, b in enumerate(blocks) for v in b}
    edges = {tuple(sorted((where[u], where[v]))) for u, v in graph.edges if where[u] != where[v]}
    return len(blocks), canonical_edges(len(blocks), edges)


def classes_of(graph: Graph, classes, flat_list) -> set:
    """The classes the engine solves once each: the contraction up to
    isomorphism for a flat of at most four blocks, else its twin orbit."""
    return {contraction_class(graph, f) or ("orbit", orbit)
            for f, orbit in zip(flat_list, orbit_names(graph, classes, flat_list))}


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


@pytest.mark.parametrize("graph, classes", ORBIT_CASES)
def test_one_solve_per_orbit_of_twin_permutations(monkeypatch, graph, classes):
    # the lattice engine solves through the reflection core it shares with
    # solve_reflection_equation
    solves = []

    def counting(rank, cs):
        solves.append(rank)
        return honest(rank, cs)

    honest = flats._solve_reflection
    monkeypatch.setattr(flats, "_solve_reflection", counting)
    lattice = build_lattice(graph)
    lattice.kl_poly()
    # one solve per class of the non-top flats, and contractions merge
    # flats that no twin permutation relates
    non_top = lattice.flats[:-1]
    assert len(solves) == len(classes_of(graph, classes, non_top))
    assert len(solves) < len(set(orbit_names(graph, classes, non_top)))


@pytest.mark.parametrize("graph, classes", ORBIT_CASES)
def test_one_solve_per_orbit_in_the_char_poly_of_a_moved_flat(monkeypatch, graph, classes):
    # char_poly(F) below the top runs the pass of the graph on F's edges,
    # which keys by that graph's own classes, even when a twin swap of the
    # whole graph moves F
    lattice = build_lattice(graph)
    moved = moved_by_a_twin_swap(graph, lattice.flats)
    assert bool(moved) == bool(classes)
    # the highest flat that a swap moves, else the highest below the top
    f = max(moved, default=len(lattice) - 2)
    restricted = Graph(graph.num_vertices,
                       tuple(graph.edges[e] for e in sorted(lattice.flats[f])))
    solves = []

    def counting(rank, cs):
        solves.append(rank)
        return honest(rank, cs)

    honest = flats._solve_reflection
    monkeypatch.setattr(flats, "_solve_reflection", counting)
    chi = lattice.char_poly(lattice.flats[f])
    monkeypatch.undo()
    local = build_lattice(restricted)
    restricted_classes = twin_classes(restricted)
    assert len(solves) == len(classes_of(restricted, restricted_classes, local.flats[:-1]))
    assert chi == ReferenceLattice(graph).interval_char_poly(0, f)


def test_mu_row_of_a_flat_moved_by_twin_permutations():
    # in K_5 the flat {01} shares its class with every single edge, and mu
    # from it differs inside one orbit above it: {012}{34} is a product of
    # two rank-1 intervals, {01}{234} merges three blocks of {01}{2}{3}{4}
    graph = complete_graph(5)
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    edge = {pair: e for e, pair in enumerate(graph.edges)}

    def flat(*pairs):
        return lattice.index_of(closure(graph, {edge[p] for p in pairs}))

    i = flat((0, 1))
    assert lattice._keys.count(lattice._keys[i]) == len(graph.edges)
    j, k = flat((0, 1), (1, 2), (3, 4)), flat((0, 1), (2, 3), (3, 4))
    assert lattice._keys[j] == lattice._keys[k]
    row = lattice.mu_row(i)
    assert (row[j], row[k]) == (1, 2)
    assert row == ref.mu_row(i)


def twin_swaps(graph: Graph) -> list[tuple[int, int]]:
    """Pairs of twins with edges, found here from neighbour sets:
    N(u) - {v} = N(v) - {u}.  Swapping two isolated vertices moves no flat."""
    neighbours = [set() for _ in range(graph.num_vertices)]
    for u, v in graph.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return [(u, v) for u, v in itertools.combinations(range(graph.num_vertices), 2)
            if neighbours[u] and neighbours[u] - {v} == neighbours[v] - {u}]


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
    # of every flat that a twin swap moves, whose orbits in the whole graph
    # are not those of its own lattice
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
