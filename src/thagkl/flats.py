"""Graphic matroids from first principles: closure, lattice of flats, KL.

This module knows nothing about the thagomizer recursion; it computes the
Kazhdan-Lusztig polynomial of a graphic matroid directly from the lattice of
flats via the defining recursion (Elias-Proudfoot-Wakefield)

    t^rk(M) * P_M(1/t) = sum_F chi(M|_F)(t) * P(M/F)(t)

where the sum runs over all flats, the localization M|_F has the lower
interval [0, F] as its lattice, and the contraction M/F has the upper
interval [F, 1].  This provides an independent cross-check of the
specialized recursion at small rank.

Edges are indexed by position in ``Graph.edges``; a flat is a set of edge
indices closed under the graphic-matroid closure (an edge belongs to the
closure of S iff its endpoints are connected by S).  Equivalently, a flat is
a partition of the vertices into blocks that each induce a connected
subgraph, and holds every edge inside a block.  Its covers are found by
merging two blocks that an edge joins, so the lattice is grown rank by rank
as edge bitmasks, with its cover relation, and no closure is ever taken.

The KL polynomial of every upper interval [i, 1] is found without Moebius
values or interval characteristic polynomials.  Write P_g for the KL
polynomial of [g, 1] and put

    Q_h = sum_{g >= h} t^(rk g - rk h) P_g,    W_i = sum_{h >= i} mu(i, h) Q_h.

Expanding chi of [i, g] as sum_{i <= h <= g} mu(i, h) t^(rk g - rk h) and
swapping the sums shows that W_i is the whole right-hand side of the
recursion for [i, 1], so W_i = rhs_i + P_i, where rhs_i collects the terms
g > i.  Zeta inversion of W = mu * Q gives Q_i = sum_{h >= i} W_h; taking the
h = i terms out of both expressions of Q_i,

    rhs_i = sum_{g > i} (t^(rk g - rk i) P_g - W_g),

one sum over the up-set of i.  The reflection solver checks every rhs_i, so
an error here raises instead of returning a wrong polynomial.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import FrozenSet, Iterator

from .polynomials import IntPoly, ONE, solve_reflection_equation

MAX_LATTICE_RANK = 8

Flat = FrozenSet[int]


@dataclasses.dataclass(frozen=True)
class Graph:
    """Multigraph with vertices 0..num_vertices-1; parallel edges ok, loops not."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError(f"number of vertices {self.num_vertices} is negative")
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} not permitted")

    def _components(self, edge_subset: Flat) -> list[int]:
        """Union-find representative per vertex under the chosen edges."""
        bad = sorted(e for e in edge_subset if not 0 <= e < len(self.edges))
        if bad:
            raise ValueError(f"edge indices {bad} out of range for {len(self.edges)} edges")
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in edge_subset:
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return [find(v) for v in range(self.num_vertices)]

    def subset_rank(self, edge_subset: Flat) -> int:
        """Matroid rank of an edge subset: vertices minus components."""
        reps = self._components(edge_subset)
        return self.num_vertices - len(set(reps))

    def rank(self) -> int:
        return self.subset_rank(frozenset(range(len(self.edges))))


def thagomizer_graph(n: int) -> Graph:
    """K_{2,n} plus the edge between the two hub vertices.

    Vertex 0 and 1 are the hubs; outer vertices are 2..n+1.  Edge 0 is the
    hub edge, then each outer vertex j contributes edges (0, j) and (1, j),
    its "spike".
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    edges: list[tuple[int, int]] = [(0, 1)]
    for j in range(2, n + 2):
        edges.append((0, j))
        edges.append((1, j))
    return Graph(n + 2, tuple(edges))


def closure(graph: Graph, edge_subset: Flat) -> Flat:
    """Graphic-matroid closure: every edge whose endpoints the subset connects."""
    reps = graph._components(frozenset(edge_subset))
    return frozenset(
        e for e, (u, v) in enumerate(graph.edges) if reps[u] == reps[v]
    )


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FlatLattice:
    """All flats of a graph's cycle matroid, ordered by inclusion.

    ``ranked_covers[r]`` maps each flat of rank r, as an edge bitmask, to the
    bitmasks of the flats that cover it.  Flats are sorted by (rank, sorted
    edge indices), so index 0 is the empty flat and the last index is the
    full edge set; ``flats`` holds them as frozensets.  ``up_sets[i]`` and
    ``down_sets[i]`` are bitsets over flat indices: bit j of ``up_sets[i]``
    is set iff flats[i] <= flats[j], and of ``down_sets[i]`` iff
    flats[j] <= flats[i].  Moebius rows and the KL polynomials are computed
    lazily and cached.
    """

    def __init__(self, graph: Graph, ranked_covers: list[dict[int, list[int]]]) -> None:
        self.graph = graph
        masks: list[int] = []
        ranks: list[int] = []
        for rank, level in enumerate(ranked_covers):
            for mask in sorted(level, key=lambda m: list(_bits(m))):
                masks.append(mask)
                ranks.append(rank)
        self.flats: tuple[Flat, ...] = tuple(frozenset(_bits(m)) for m in masks)
        self.ranks: tuple[int, ...] = tuple(ranks)
        self._index = {f: i for i, f in enumerate(self.flats)}
        at = {m: i for i, m in enumerate(masks)}
        covers = [[at[m] for m in ranked_covers[r][mask]]
                  for mask, r in zip(masks, self.ranks)]
        # a cover has a larger index, so one pass from the top finds every
        # up-set and one from the bottom every down-set
        up = [0] * len(masks)
        for i in reversed(range(len(masks))):
            u = 1 << i
            for j in covers[i]:
                u |= up[j]
            up[i] = u
        down = [1 << j for j in range(len(masks))]
        for i, above in enumerate(covers):
            for j in above:
                down[j] |= down[i]
        self.up_sets: tuple[int, ...] = tuple(up)
        self.down_sets: tuple[int, ...] = tuple(down)
        self._mu_rows: dict[int, dict[int, int]] = {}
        self._kl_upper: list[IntPoly] | None = None

    def __len__(self) -> int:
        return len(self.flats)

    def index_of(self, flat: Flat) -> int:
        try:
            return self._index[frozenset(flat)]
        except KeyError:
            raise ValueError(f"{sorted(flat)} is not a flat of this lattice") from None

    def rank_counts(self) -> list[int]:
        """Number of flats of each rank, index = rank."""
        counts = [0] * (self.ranks[-1] + 1)
        for r in self.ranks:
            counts[r] += 1
        return counts

    def mu_row(self, i: int) -> dict[int, int]:
        """Moebius function mu(flats[i], flats[j]) for all j above i.

        Returns a fresh dict; the cached row stays private to the lattice.
        """
        if not 0 <= i < len(self):
            raise ValueError(f"flat index {i} out of range 0..{len(self) - 1}")
        row = self._mu_rows.get(i)
        if row is None:
            row = {}
            up = self.up_sets[i]
            # ascending j, so mu(i, h) is known for every h in [i, j) first
            for j in _bits(up):
                below = (self.down_sets[j] & up) ^ (1 << j)
                row[j] = -sum(row[h] for h in _bits(below)) if j != i else 1
            self._mu_rows[i] = row
        return dict(row)

    def char_poly(self, flat: Flat) -> IntPoly:
        """Characteristic polynomial of the localization at ``flat``."""
        top = self.index_of(flat)
        mu = self.mu_row(0)
        rank = self.ranks[top]
        coeffs = [0] * (rank + 1)
        for h in _bits(self.down_sets[top]):
            coeffs[rank - self.ranks[h]] += mu[h]
        return IntPoly(coeffs)

    def kl_poly(self) -> IntPoly:
        """KL polynomial of the whole lattice via the defining recursion."""
        return self._kl_of_uppers()[0]

    def z_poly(self) -> IntPoly:
        """Z(t) = sum_F t^rk(F) P(M/F)(t), palindromic of degree rk(M).

        Proudfoot-Xu-Young, arXiv:1706.05575.
        """
        coeffs = [0] * (self.ranks[-1] + 1)
        for rank, p in zip(self.ranks, self._kl_of_uppers()):
            for k, c in enumerate(p.coeffs):
                coeffs[rank + k] += c
        return IntPoly(coeffs)

    def _kl_of_uppers(self) -> list[IntPoly]:
        """KL polynomial of every upper interval [i, 1], by index i."""
        if self._kl_upper is None:
            top = self.ranks[-1]
            width = top + 1
            kl: list[IntPoly] = [ONE] * len(self)
            # per flat g: the coefficients of t^rk(g) P_g, then those of W_g,
            # each padded to rk(M) + 1, so one column sum over an up-set
            # gives both sums of rhs_i.  Columns are read by itemgetter, not
            # zip: CPython keeps freed short tuples in free lists, and zip's
            # tuples of every up-set length would stay there and raise the
            # process's peak memory.
            terms: list[list[int]] = [[]] * len(self)
            columns = [itemgetter(k) for k in range(2 * width)]
            for i in reversed(range(len(self))):
                rank = self.ranks[i]
                if rank == top:
                    p = w = ONE
                else:
                    rows = list(map(terms.__getitem__, _bits(self.up_sets[i] ^ (1 << i))))
                    sums = [sum(map(column, rows)) for column in columns]
                    rhs = IntPoly(sums[rank + k] - sums[width + k]
                                  for k in range(top - rank + 1))
                    p = solve_reflection_equation(top - rank, rhs)
                    w = rhs + p
                kl[i] = p
                row = [0] * (2 * width)
                row[rank:rank + len(p.coeffs)] = p.coeffs
                row[width:width + len(w.coeffs)] = w.coeffs
                terms[i] = row
            self._kl_upper = kl
        return self._kl_upper


def build_lattice(graph: Graph) -> FlatLattice:
    """Enumerate every flat, rank by rank, by merging blocks.

    A block is kept as the bitmask of the edges incident to its vertices.
    Two blocks are joined exactly by the edges incident to both, and merging
    them adds those edges to the flat, which gives each cover of the flat
    once.  Vertices without edges never merge and are left out.  The blocks
    of a flat are a list: a freed tuple would linger in CPython's tuple free
    lists.  Guarded by MAX_LATTICE_RANK; the lattice is exponential in rank.
    """
    if graph.rank() > MAX_LATTICE_RANK:
        raise ValueError(
            f"matroid rank {graph.rank()} exceeds lattice bound {MAX_LATTICE_RANK}"
        )
    incident = [0] * graph.num_vertices
    for e, (u, v) in enumerate(graph.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    level: dict[int, list[int]] = {0: [b for b in incident if b]}
    ranked_covers: list[dict[int, list[int]]] = []
    while level:
        covers: dict[int, list[int]] = {}
        nxt: dict[int, list[int]] = {}
        for flat, blocks in level.items():
            above = covers[flat] = []
            for a, block_a in enumerate(blocks):
                for b in range(a + 1, len(blocks)):
                    joining = block_a & blocks[b]
                    if joining:
                        bigger = flat | joining
                        above.append(bigger)
                        if bigger not in nxt:
                            nxt[bigger] = (blocks[:a] + [block_a | blocks[b]]
                                           + blocks[a + 1:b] + blocks[b + 1:])
        ranked_covers.append(covers)
        level = nxt
    return FlatLattice(graph, ranked_covers)
