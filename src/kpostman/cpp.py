"""Exact route-inspection (postman) solver for one walk.

Duplicating a minimum-weight join over the odd-degree vertices makes the
multigraph Eulerian; an Euler tour of the result is an optimal single closed
walk covering every edge.  solve_cpp reads everything it needs off the
graph's cached cut into degree-2 chains at its anchors (vertices of degree
other than 2): connectivity (graph._connected, a union-find over the chain
ends), the odd vertices (every odd vertex is an anchor, at which an odd
number of chains end) and the join; is_connected and odd_vertices read the
same cut.  The join is computed exactly on the anchor graph by
graph._join_chains: the chain Dijkstra graph._settle, which the girth
search shares, runs from each terminal over whole chains keyed on
(weight, hops), with paths that tie on both taken in heap order, the
terminals are paired by a minimum-weight perfect matching over those
distances (Edmonds' blossom algorithm, as in Edmonds-Johnson 1973), and the
join is the symmetric difference of the chains on the paired paths.  Each
graph caches that join as chain indices (MultiGraph.chain_join) beside its
cut, so solve_cpp and the kernel search on the same graph share one join;
min_weight_join, whose terminals need not be anchors, runs _join_chains
over one single-edge chain per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .graph import (
    Chain,
    GraphError,
    MultiGraph,
    Walk,
    _connected,
    _join_chains,
    _odd_anchors,
)


@dataclass(frozen=True, eq=False)
class Multiplicities:
    """Per-edge traversal counts over a base graph.

    Absent ids count 0.  The classic covering multigraph has every count
    >= 1; residual states produced while peeling cycles may drop to 0.
    """

    base: MultiGraph
    counts: Mapping[int, int]

    @classmethod
    def cover(cls, base: MultiGraph, counts: Mapping[int, int]) -> "Multiplicities":
        """Covering counts: every edge of the base graph at least once."""
        for e in base.edges:
            if counts.get(e.id, 0) < 1:
                raise GraphError(f"edge {e.id} is not covered")
        return cls(base, dict(counts))

    @classmethod
    def uniform(cls, base: MultiGraph, count: int = 1) -> "Multiplicities":
        return cls(base, {e.id: count for e in base.edges})

    def count(self, edge_id: int) -> int:
        return self.counts.get(edge_id, 0)

    def weight(self) -> int:
        by_id = self.base.edge_by_id
        try:
            return sum(by_id[eid].weight * c for eid, c in self.counts.items() if c > 0)
        except KeyError as exc:
            raise GraphError(f"no edge with id {exc.args[0]}") from None

    def copies(self) -> int:
        return sum(c for c in self.counts.values() if c > 0)

    def degree(self, vertex: int) -> int:
        return sum(self.counts.get(e.id, 0) for e in self.base.adjacency.get(vertex, ()))

    def without(self, removed: Mapping[int, int]) -> "Multiplicities":
        """Subtract edge copies; raises if more copies are removed than exist."""
        counts = dict(self.counts)
        for eid, c in removed.items():
            have = counts.get(eid, 0)
            if c > have:
                raise GraphError(f"removing {c} copies of edge {eid}, only {have} present")
            counts[eid] = have - c
        return Multiplicities(self.base, counts)


class CppSolution(NamedTuple):
    join: frozenset[int]
    multiplicities: Multiplicities
    weight: int


def odd_vertices(g: MultiGraph) -> frozenset[int]:
    return frozenset(_odd_anchors(g.chains))


def min_weight_join(g: MultiGraph, t: Iterable[int]) -> frozenset[int]:
    """Minimum-weight edge set whose odd-degree vertices are exactly t.

    Exact for nonnegative weights: optimal pairing of t over the shortest
    path metric, joined as the symmetric difference of the path edge sets
    (overlaps cancel and can only reduce the weight).
    """
    terminals = sorted(set(t))
    for v in terminals:
        if not 1 <= v <= g.vertex_count:
            raise GraphError(f"vertex {v} out of range 1..{g.vertex_count}")
    if len(terminals) % 2 != 0:
        raise GraphError(f"odd-vertex set has odd size {len(terminals)}")
    chains = [Chain((u, v), (eid,), w, False, u, v) for eid, u, v, w in g.edges]
    if not _connected(chains):
        raise GraphError("graph must be connected")
    return frozenset(g.edges[i].id for i in _join_chains(chains, terminals))


def solve_cpp(g: MultiGraph) -> CppSolution:
    """Optimal single-walk cover: duplicate a minimum join over odd vertices.

    Returns the join, the covering counts (1 outside the join, 2 on it) and
    the optimal weight total(g) + weight(join).  Connectivity comes from
    g's cached chain cut and the join from g's cached chain_join over it.
    """
    if not g.edges:
        raise GraphError("graph has no edges")
    chains = g.chains
    if not _connected(chains):
        raise GraphError("graph must be connected")
    counts = dict.fromkeys(g.edge_by_id, 1)
    weight = g.total_weight()
    join: list[int] = []
    for i in g.chain_join:
        c = chains[i]
        counts.update(dict.fromkeys(c.edges, 2))
        weight += c.weight
        join.extend(c.edges)
    return CppSolution(frozenset(join), Multiplicities.cover(g, counts), weight)


def euler_tour(m: Multiplicities, start: int) -> Walk:
    """Closed walk using each edge copy of m exactly once, from start.

    m must span a single component with all degrees even; at each vertex the
    first available copy in the order of the base graph's edges is taken,
    so tours are deterministic.
    """
    g = m.base
    left = _read_counts(m)
    v = _odd_vertex(g, left)
    if v is not None:
        raise GraphError(f"vertex {v} has odd degree {m.degree(v)}")
    if m.degree(start) == 0:
        raise GraphError(f"start vertex {start} not in the traversed component")
    tour = _tour(g, left, dict.fromkeys(g.adjacency, 0), start)
    if any(left.values()):
        raise GraphError("multigraph spans more than one component")
    return Walk(tuple(tour))


def _read_counts(m: Multiplicities) -> dict[int, int]:
    """The copies per edge id of m's base, 0 for edges m leaves out.
    Raises on a negative count of a base edge, the first in base order,
    and then on a count that names no edge of the base."""
    by_id = m.base.edge_by_id
    left = dict.fromkeys(by_id, 0)
    left.update(m.counts)
    if len(left) > len(by_id) or min(left.values(), default=0) < 0:
        for eid, c in left.items():  # base ids in base order, then the others
            if eid not in by_id:
                raise GraphError(f"no edge with id {eid}")
            if c < 0:
                raise GraphError(f"edge {eid} has negative count {c}")
    return left


def _odd_vertex(g: MultiGraph, left: Mapping[int, int]) -> int | None:
    """The lowest vertex that meets an odd number of the copies in left
    (edge id -> copies, every edge of g), or None if there is none."""
    odd: set[int] = set()
    for eid, u, v, _ in g.edges:
        if left[eid] & 1:
            odd ^= {u, v}
    return min(odd, default=None)


def _tour(
    g: MultiGraph, left: dict[int, int], cursor: dict[int, int], start: int
) -> list[tuple[int, int]]:
    """Hierholzer's closed walk from start through every copy still left in
    start's component, as (vertex, edge id) steps; empty if start has none.

    Spends the copies in `left`.  `cursor[v]` indexes the first edge of
    g.adjacency[v] that may have a copy left; counts only fall, so the edge
    it lands on is the first available copy in adjacency order, and no
    spent edge is read twice across the tours that share `cursor`.
    """
    adjacency = g.adjacency
    verts = [start]
    vias = [0]
    out_v: list[int] = []
    out_e: list[int] = []
    v = start
    while True:
        out = adjacency[v]
        i = cursor[v]
        n = len(out)
        while i < n and not left[out[i][0]]:
            i += 1
        cursor[v] = i
        if i < n:
            eid, a, b, _ = out[i]
            left[eid] -= 1
            v = a + b - v  # the other end
            verts.append(v)
            vias.append(eid)
            continue
        out_v.append(verts.pop())
        out_e.append(vias.pop())
        if not verts:
            break
        v = verts[-1]
    out_v.reverse()
    out_e.reverse()
    return list(zip(out_v, out_e[1:]))
