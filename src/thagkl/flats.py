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

The KL and characteristic polynomials of every upper interval [i, 1] come
from one top-down pass, without Moebius values.  Write P_g for the KL
polynomial of [g, 1], r_g = rk(1) - rk(g) for its rank, and rhs_i for the
terms g > i of the recursion for [i, 1], so t^r_i P_i(1/t) - P_i = rhs_i.
Expanding chi of [i, g] as sum_{i <= h <= g} mu(i, h) t^(rk g - rk h) and
swapping the sums shows that the whole right-hand side W_i = rhs_i + P_i is
sum_{h >= i} mu(i, h) Q_h with Q_h = sum_{g >= h} t^(rk g - rk h) P_g, so
zeta inversion gives Q_i = sum_{h >= i} W_h.  The recursion itself says
that W_g = t^r_g P_g(1/t), the reversal of P_g, so with

    S_i = sum_{g > i} t^rk(g) P_g,

taking the h = i terms out of both expressions of Q_i leaves

    rhs_i = t^(-rk i) S_i(t) - t^rk(1) S_i(1/t),

read off one sum over the up-set of i.  Every rhs_i goes through the
reflection solver shared with ``polynomials``; built this way it is
antisymmetric in t^k <-> t^(r_i - k), so the solver's window checks hold by
construction, and a wrong row is caught by the overflow guard below and by
the reference engine of the tests.

The same sum gives chi.  Summing chi([F, 1]) = sum_{h >= F} mu(F, h)
t^(rk 1 - rk h) over the flats F >= i leaves only h = i, so

    sum_{F >= i} chi([F, 1]) = t^r_i,
    chi([i, 1]) = t^r_i - sum_{g > i} chi([g, 1]).

``char_poly(F)`` needs chi([0, F]), the characteristic polynomial of the
localization M|_F.  Closing a set of edges inside F never leaves F, so M|_F
is the cycle matroid of the graph on F's edges, and its chi is read from the
top of that graph's own lattice; for F = 1 it is the cached full pass.

Flats are classed by the pass itself, a rank at a time from the top; the
top flat is a class of its own.  Flat i is keyed by the tuple of counts
|up(i) & C| over the classes C formed at higher ranks, read as one popcount
per class.  Every flat of a class has one row, so the key fixes the up-set
sum as sum_C |up(i) & C| row_C, and with it rhs_i and chi([i, 1]): by
induction from the top, flats of one rank with one key have one P, chi and
row, which makes the key sound with no isomorphism test and nothing to
check.  Each key of a rank is a class, solved once, and its counts add up
to |up(i)| - 1, so no up-set is summed flat by flat.  An isomorphism from
[i, 1] to [j, 1] maps each flat g above i to a flat of g's rank whose upper
interval is isomorphic to [g, 1], so by the same induction flats with
isomorphic upper intervals, and in particular with isomorphic contractions
G/F, share a key: the pass solves at most once per isomorphism class of
contractions, at any number of blocks.

Each flat's row, the coefficients of t^rk(g) P_g and of chi([g, 1]), is one
int packed by the shared codec of ``polynomials`` in signed slots of
``_SLOT_BITS`` bits, so the up-set sum of i, which holds S_i and the chi sum
in its two halves, is one C-level ``sum`` of the class rows times their
counts; a guard raises ``ArithmeticError`` once the largest coefficient
times len(lattice), a bound on any up-set sum, could reach half a slot.

Flats are sorted by rank, then by their sorted lists of edge indices.  No
flat contains another of its rank, so the lowest edge at which two flats of
one rank differ decides their order: the flat that holds it comes first.
``bin(mask)[:1:-1]`` spells the mask's bits from edge 0 up, the bit-reversed
mask, so sorting each rank by it in descending order gives that order
without building the lists.

Bitsets are scanned by ``itertools.compress`` over a 0/1 selector read from
``bin(mask)``, one step per bit up to the highest.

``mu_row(i)`` reads only up-sets: mu(i, j) = -sum_{i <= h < j} mu(i, h)
over the flats h <= j, so it visits up(i) in ascending index order, where
every such h comes before j, and pushes each mu(i, h) to the flats of up(h)
above h.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import compress, repeat
from operator import mul
from typing import FrozenSet

from .polynomials import IntPoly, ONE, _check_index, _pack, _solve_reflection, _unpack
# the public solver stays bound here, as before, for code that wraps it by module
from .polynomials import solve_reflection_equation  # noqa: F401

MAX_LATTICE_RANK = 8

# bits of one signed coefficient slot of a packed KL row
_SLOT_BITS = 64

# maps the '0'/'1' digits of bin(mask) to 0/1 bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

Flat = FrozenSet[int]


@dataclasses.dataclass(frozen=True)
class Graph:
    """Multigraph with vertices 0..num_vertices-1; parallel edges ok, loops not."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_index(self.num_vertices, "number of vertices")
        edges = tuple(map(tuple, self.edges))
        for u, v in edges:
            _check_index(u, "edge endpoint")
            _check_index(v, "edge endpoint")
            if max(u, v) >= self.num_vertices:
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} not permitted")
        # a list of edges is stored as a tuple, so the graph stays hashable
        object.__setattr__(self, "edges", edges)

    def _components(self, edge_subset: Flat) -> list[int]:
        """Union-find representative per vertex under the chosen edges."""
        for e in edge_subset:
            _check_index(e, "edge index")
        bad = sorted(e for e in edge_subset if e >= len(self.edges))
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
    _check_index(n, "thagomizer index")
    edges: list[tuple[int, int]] = [(0, 1)]
    for j in range(2, n + 2):
        edges.append((0, j))
        edges.append((1, j))
    return Graph(n + 2, tuple(edges))


def _check_graph(graph: Graph) -> None:
    if not isinstance(graph, Graph):
        raise TypeError(f"graph must be a Graph, got {type(graph).__name__}")


def closure(graph: Graph, edge_subset: Flat) -> Flat:
    """Graphic-matroid closure: every edge whose endpoints the subset connects."""
    _check_graph(graph)
    reps = graph._components(frozenset(edge_subset))
    return frozenset(
        e for e, (u, v) in enumerate(graph.edges) if reps[u] == reps[v]
    )


def _selector(mask: int) -> bytes:
    """Bit k of ``mask`` as byte k, 0 or 1: a selector for ``compress``."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class FlatLattice:
    """All flats of a graph's cycle matroid, ordered by inclusion.

    ``ranked_covers[r]`` maps each flat of rank r, as an edge bitmask, to the
    bitmasks of the flats that cover it; it is not kept.  Flats are sorted by
    (rank, sorted edge indices), so index 0 is the empty flat and the last
    index is the full edge set; ``flats`` holds them as frozensets, and
    ``index_of`` finds one by its bitmask.  The flats of rank r have the indices ``_rank_start[r]`` up to
    ``_rank_start[r + 1]``.  ``up_sets[i]`` is a bitset over flat indices:
    bit j is set iff flats[i] <= flats[j].  The KL and characteristic
    polynomials of the upper intervals come from one cached pass, solved
    once per class of flats with the same counts of each class above them;
    Moebius rows are computed from the up-sets on each call.
    """

    def __init__(self, graph: Graph, ranked_covers: list[dict[int, list[int]]]) -> None:
        self.graph = graph
        edge_ids = range(len(graph.edges))
        masks: list[int] = []
        ranks: list[int] = []
        self._rank_start = [0]
        for rank, level in enumerate(ranked_covers):
            # bin(m)[:1:-1] reads the bits of m from edge 0 up: descending,
            # the flat holding the lowest edge of a difference comes first
            masks.extend(sorted(level, key=lambda m: bin(m)[:1:-1], reverse=True))
            ranks.extend(repeat(rank, len(level)))
            self._rank_start.append(len(masks))
        self.flats: tuple[Flat, ...] = tuple(
            frozenset(compress(edge_ids, _selector(m))) for m in masks)
        self.ranks: tuple[int, ...] = tuple(ranks)
        self._at = at = {m: i for i, m in enumerate(masks)}
        # a cover has a larger index, so one pass from the top finds every
        # up-set; the cover lists are not kept
        up = [0] * len(masks)
        for i in reversed(range(len(masks))):
            u = 1 << i
            for m in ranked_covers[ranks[i]][masks[i]]:
                u |= up[at[m]]
            up[i] = u
        self.up_sets: tuple[int, ...] = tuple(up)

    def __len__(self) -> int:
        return len(self.flats)

    def index_of(self, flat: Flat) -> int:
        edges = frozenset(flat)
        for e in edges:
            _check_index(e, "edge index")
        if all(e < len(self.graph.edges) for e in edges):
            i = self._at.get(sum(1 << e for e in edges))
            if i is not None:
                return i
        raise ValueError(f"{sorted(edges)} is not a flat of this lattice")

    def rank_counts(self) -> list[int]:
        """Number of flats of each rank, index = rank."""
        starts = self._rank_start
        return [b - a for a, b in zip(starts, starts[1:])]

    def mu_row(self, i: int) -> dict[int, int]:
        """Moebius function mu(flats[i], flats[j]) for all j above i, as a fresh dict."""
        _check_index(i, "flat index")
        if i >= len(self):
            raise ValueError(f"flat index {i} out of range 0..{len(self) - 1}")
        # pending[j - i] sums mu(i, h) over the flats h of [i, j) below j met
        # so far; ascending h, so it is complete when j is reached
        pending = [0] * (len(self) - i)
        pending[0] = -1
        row: dict[int, int] = {}
        for h in compress(range(i, len(self)), _selector(self.up_sets[i] >> i)):
            value = row[h] = -pending[h - i]
            for j in compress(range(h + 1, len(self)), _selector(self.up_sets[h] >> (h + 1))):
                pending[j - i] += value
        return row

    def char_poly(self, flat: Flat) -> IntPoly:
        """Characteristic polynomial of the localization at ``flat``."""
        f = self.index_of(flat)
        if f == len(self) - 1:
            return self._uppers[1][0]
        edges = self.graph.edges
        restricted = Graph(self.graph.num_vertices, tuple(edges[e] for e in sorted(self.flats[f])))
        return build_lattice(restricted)._uppers[1][0]

    def kl_poly(self) -> IntPoly:
        """KL polynomial of the whole lattice via the defining recursion."""
        return self._uppers[0][0]

    def z_poly(self) -> IntPoly:
        """Z(t) = sum_F t^rk(F) P(M/F)(t), palindromic of degree rk(M).

        Proudfoot-Xu-Young, arXiv:1706.05575.
        """
        coeffs = [0] * (self.ranks[-1] + 1)
        for rank, p in zip(self.ranks, self._uppers[0]):
            for k, c in enumerate(p.coeffs):
                coeffs[rank + k] += c
        return IntPoly(coeffs)

    @functools.cached_property
    def _uppers(self) -> tuple[list[IntPoly], list[IntPoly]]:
        """P and chi of every upper interval [i, 1], by index i.

        One top-down pass, a rank at a time: flat i is keyed by how many
        flats of each class formed above its rank lie in its up-set, and
        each key of a rank is a class, solved once from the sum of the rows
        those counts weight.
        """
        top = self.ranks[-1]
        half = 1 << (_SLOT_BITS - 1)
        kl: list[IntPoly] = [ONE] * len(self)
        chi: list[IntPoly] = [ONE] * len(self)
        up_sets = self.up_sets
        starts = self._rank_start
        # per class formed so far: the bitset of its flats, and the row of
        # each, t^rk(g) P_g in slots 0..top and chi([g, 1]) in slots
        # top+1..2*top+1, so the counts of a key weight the rows into S_i
        # and the chi sum of i; a row is zero below slot rk(g), so it is
        # packed from there.  The top flat is a class of its own.
        masks = [1 << (len(self) - 1)]
        rows = [_pack([1, 1], _SLOT_BITS) << (_SLOT_BITS * top)]
        peak = 1
        for rank in reversed(range(top)):
            r = top - rank
            lo, hi = starts[rank], starts[rank + 1]
            ups = up_sets[lo:hi]
            # one column per class: its flats in each up-set of this rank
            counts = [list(map(int.bit_count, map(mask.__and__, ups))) for mask in masks]
            level: dict[tuple[int, ...], int] = {}
            ids = [level.setdefault(key, len(level)) for key in zip(*counts)]
            polys: list[tuple[IntPoly, IntPoly]] = []
            # a key has a count per class above this rank, so map stops
            # before the rows this rank appends
            for key in level:
                digits = _unpack(sum(map(mul, key, rows)) >> (_SLOT_BITS * rank), _SLOT_BITS)
                digits += [0] * (2 * r + 2 - len(digits))
                s = digits[:r + 1]
                # rhs_i = t^(-rk i) S_i(t) - t^top S_i(1/t)
                p = _solve_reflection(r, [a - b for a, b in zip(s, reversed(s))])
                p += [0] * (r + 1 - len(p))
                # chi([i, 1]) = t^r minus the chi sum over the flats above i
                c = [-d for d in digits[r + 1:]]
                c[r] += 1
                slots = p + c
                peak = max(peak, max(map(abs, slots)))
                if peak * len(self) >= half:
                    raise ArithmeticError(
                        f"coefficient {peak} times {len(self)} flats may overflow "
                        f"a {_SLOT_BITS}-bit slot"
                    )
                polys.append((IntPoly(p), IntPoly(c)))
                rows.append(_pack(slots, _SLOT_BITS) << (_SLOT_BITS * rank))
            kl[lo:hi], chi[lo:hi] = zip(*map(polys.__getitem__, ids))
            new = [0] * len(level)
            for i, k in enumerate(ids):
                new[k] |= 1 << i
            masks += [m << lo for m in new]
        return kl, chi


def build_lattice(graph: Graph) -> FlatLattice:
    """Enumerate every flat, rank by rank, by merging blocks.

    A block is kept as one int: the bitmask of the edges incident to its
    vertices.  Two blocks are joined exactly by the edges incident to both,
    and merging them adds those edges to the flat, which gives each cover of
    the flat once; the merged block is the union of the two.  Vertices
    without edges never merge and are left out.  The blocks of a flat are a
    list: a freed tuple would linger in CPython's tuple free lists.  Guarded
    by MAX_LATTICE_RANK; the lattice is exponential in rank.
    """
    _check_graph(graph)
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
