"""Exact route-inspection (postman) solver for one walk.

Duplicating a minimum-weight join over the odd-degree vertices makes the
multigraph Eulerian; an Euler tour of the result is an optimal single closed
walk covering every edge.  solve_cpp reads everything it needs off the
graph's cached cut into degree-2 chains at its anchors (vertices of degree
other than 2): connectivity (graph._components, a union-find over the chain
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

Euler tours (euler_tour, and the walk split's tours of the leftover) run
Hierholzer's algorithm over runs of the same cut: a run is a stretch of
one chain with the same count c on every edge and no tour start strictly
inside it, and counts as c parallel edges between its two ends.  A step
crosses a whole run; at a run end the tour takes the first run with
copies left, in the order of the run's end edge in the graph's adjacency.
Only run ends can be odd, so the odd-degree check reads the parity off
the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .graph import (
    Chain,
    Edge,
    GraphError,
    MultiGraph,
    Walk,
    _components,
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
        """Covering counts: every edge of the base graph at least once.
        One C-level pass checks them; the edges are walked only to name the
        first uncovered one, in base order."""
        if min(map(counts.get, base.edge_by_id, repeat(0)), default=1) < 1:
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
    if len(_components(chains)) > 1:
        raise GraphError("graph must be connected")
    return frozenset(g.edges[i].id for i in _join_chains(chains, terminals))


def solve_cpp(g: MultiGraph) -> CppSolution:
    """Optimal single-walk cover: duplicate a minimum join over odd vertices.

    Returns the join, the covering counts (1 outside the join, 2 on it) and
    the optimal weight total(g) + weight(join).  Connectivity, both weights
    and the join come from g's cached chain cut and the chain_join over it.
    """
    if not g.edges:
        raise GraphError("graph has no edges")
    chains = g.chains
    if len(_components(chains)) > 1:
        raise GraphError("graph must be connected")
    counts = dict.fromkeys(g.edge_by_id, 1)
    weight = sum(c.weight for c in chains)  # the chains partition the edges
    join: list[int] = []
    for i in g.chain_join:
        c = chains[i]
        counts.update(dict.fromkeys(c.edges, 2))
        weight += c.weight
        join.extend(c.edges)
    return CppSolution(frozenset(join), Multiplicities.cover(g, counts), weight)


def euler_tour(m: Multiplicities, start: int) -> Walk:
    """Closed walk using each edge copy of m exactly once, from start.

    m must span a single component with all degrees even.  The walk is
    _tour's over the runs of m (see _runs) with start as the only tour
    start, so it is deterministic: at each run end it takes the first run
    with copies left, in the order of the run's end edge in the base
    graph's adjacency, and crosses that run whole.
    """
    g = m.base
    left = _read_counts(m)
    runs = _runs(g, left, (start,))
    if runs.odd is not None:
        raise GraphError(f"vertex {runs.odd} has odd degree {m.degree(runs.odd)}")
    if m.degree(start) == 0:
        raise GraphError(f"start vertex {start} not in the traversed component")
    tour = _tour(runs, start).steps
    if len(tour) < sum(left.values()):
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


class _Runs(NamedTuple):
    """The copies left of a multigraph, cut into runs for _tour.

    A run is a stretch of one chain of the base's chain cut on which every
    edge has the same count c >= 1 and which has no tour start strictly
    inside it; it counts as c parallel edges between its two ends, and a
    tour crosses it whole.  Every vertex a tour stands on is a run end.
    """

    adjacency: Mapping[int, tuple[Edge, ...]]  # the base's
    pieces: list[tuple[tuple[int, ...], tuple[int, ...]]]  # (vertices, edges) per run
    weights: list[int]  # per run, of one crossing
    copies: list[int]  # per run, spent by the tours
    ends: dict[int, int]  # run index per end edge of a run
    cursor: dict[int, int]  # per run end: see _tour
    odd: int | None  # the lowest vertex of odd degree


def _runs(g: MultiGraph, left: Mapping[int, int], starts: Iterable[int]) -> _Runs:
    """Cut the copies in left (edge id -> copies, every edge of g) into
    runs, at every change of count along a chain and at every start inside
    one.  A chain with one count and no start inside is one run, found by
    C-level passes over its edges; only the others are walked edge by
    edge.  A whole chain's run weighs the cut's c.weight, a part's is
    summed over its edges.  Only run ends can be odd, so the parity is
    read off the runs: a vertex is odd iff an odd number of runs with an
    odd count end at it (a run closed on one vertex ends there twice)."""
    adjacency = g.adjacency
    cuts = {s for s in starts if len(adjacency.get(s, ())) == 2}
    edge_of, weight_of = g.edge_by_id.__getitem__, itemgetter(3)
    pieces: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    weights: list[int] = []
    copies: list[int] = []
    for c in g.chains:
        vs, es = c.vertices, c.edges
        counts = list(map(left.__getitem__, es))
        n = counts[0]
        if counts.count(n) == len(counts) and cuts.isdisjoint(vs):
            if n:
                pieces.append((vs, es))
                weights.append(c.weight)
                copies.append(n)
            continue
        i = 0
        for j in range(1, len(es) + 1):
            if j == len(es) or counts[j] != n or vs[j] in cuts:
                if n:
                    pieces.append((vs[i : j + 1], es[i:j]))
                    weights.append(sum(map(weight_of, map(edge_of, es[i:j]))))
                    copies.append(n)
                if j < len(es):
                    i, n = j, counts[j]
    ends: dict[int, int] = {}
    odd: set[int] = set()
    for r, (vs, es) in enumerate(pieces):
        ends[es[0]] = ends[es[-1]] = r
        if copies[r] & 1 and vs[0] != vs[-1]:
            odd ^= {vs[0], vs[-1]}
    return _Runs(adjacency, pieces, weights, copies, ends, {}, min(odd, default=None))


class _Tour(NamedTuple):
    steps: list[tuple[int, int]]  # (vertex, edge id)
    stood: list[int]  # the run ends the tour stood on, start first
    weight: int  # of the runs crossed


def _tour(runs: _Runs, start: int) -> _Tour:
    """Hierholzer's closed walk from start through every copy still left in
    start's component; no steps if start has none.

    Steps from run end to run end, each step crossing one run whole, and
    spends the runs' copies.  At a run end v it takes the first run with
    copies left, in the order of the run's end edge in adjacency[v];
    `cursor[v]` indexes the first entry of adjacency[v] whose run may have
    copies left, so no spent run is read twice across the tours that share
    `runs`.  Each crossing is expanded into its edge steps at the end.
    """
    adjacency, pieces, weights, copies, ends, cursor, _ = runs
    stack = [start]
    vias = [0]  # per stacked vertex: the run crossed to reach it, ~r if backwards
    out: list[int] = []
    weight = 0
    v = start
    while True:
        out_edges = adjacency[v]
        n = len(out_edges)
        i = cursor.get(v, 0)
        while i < n:
            eid = out_edges[i][0]
            r = ends.get(eid)
            if r is not None and copies[r]:
                break
            i += 1
        cursor[v] = i
        if i < n:
            copies[r] -= 1
            weight += weights[r]
            vs, es = pieces[r]
            if v == vs[0]:  # a run closed on v is crossed forwards
                v = vs[-1]
                vias.append(r)
            else:
                v = vs[0]
                vias.append(~r)
            stack.append(v)
            continue
        out.append(vias.pop())
        stack.pop()
        if not stack:
            break
        v = stack[-1]
    tour: list[tuple[int, int]] = []
    stood: list[int] = []
    for r in out[-2::-1]:  # the circuit is the pop order reversed, less start's entry
        if r >= 0:
            vs, es = pieces[r]
            stood.append(vs[0])
            tour.extend(zip(vs, es))
        else:
            vs, es = pieces[~r]
            stood.append(vs[-1])
            tour.extend(zip(reversed(vs), reversed(es)))
    return _Tour(tour, stood, weight)
