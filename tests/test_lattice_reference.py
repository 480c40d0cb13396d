"""The bitset lattice engine against a per-pair reference kept here.

``ReferenceLattice`` is the engine as it was before flats became bitmasks:
flats found by closing single-edge extensions, the order by frozenset
containment, a Moebius row per flat, and the characteristic polynomial of
every interval [i, g] fed to the defining recursion one pair at a time.  It
shares only ``closure``, ``IntPoly`` and the reflection solver with the
engine under test.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@settings(max_examples=150, deadline=None)
@given(multigraphs())
@example(thagomizer_graph(4))
@example(Graph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5))))
@example(Graph(6, ((0, 1), (0, 1), (1, 2), (3, 4), (3, 4), (4, 3))))
def test_engine_matches_reference(graph):
    lattice = build_lattice(graph)
    ref = ReferenceLattice(graph)
    assert lattice.flats == ref.flats
    assert lattice.ranks == ref.ranks
    assert len(lattice) == connected_partitions(graph.num_vertices, graph.edges)
    for i, f in enumerate(lattice.flats):
        for j, g in enumerate(lattice.flats):
            assert (lattice.up_sets[i] >> j & 1) == (f <= g)
            assert (lattice.down_sets[i] >> j & 1) == (g <= f)
    for i, flat in enumerate(lattice.flats):
        assert lattice.mu_row(i) == ref.mu_row(i)
        assert lattice.char_poly(flat) == ref.interval_char_poly(0, i)
    assert lattice._kl_of_uppers() == [ref.kl_of_upper(i) for i in range(len(ref.flats))]
    assert lattice.kl_poly() == ref.kl_of_upper(0)
    # Braden-Huh-Matherne-Proudfoot-Wang (arXiv:2010.06088): nonnegative,
    # constant term 1, and deg < rank / 2 for every upper interval
    top = lattice.ranks[-1]
    for rank, p in zip(lattice.ranks, lattice._kl_of_uppers()):
        assert p.constant_term() == 1
        assert 2 * p.degree() < top - rank or (rank == top and p == ONE)
        assert all(c >= 0 for c in p.coeffs)
    z = lattice.z_poly()
    assert z.degree() == top and z.coeffs == z.coeffs[::-1]
