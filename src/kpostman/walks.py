"""Turning an even covering multigraph plus a k-cycle packing into k walks."""

from __future__ import annotations

from .cpp import Multiplicities, euler_tour
from .cycles import CyclePacking, check_packing
from .graph import GraphError, Solution, Walk


def split_into_k_walks(m: Multiplicities, packing: CyclePacking) -> Solution:
    """Build exactly k = len(packing) closed walks covering every copy of m.

    Removes the packing, Euler-tours each leftover component, and splices
    each tour into the first packed cycle it shares a vertex with.  Requires
    m connected with all degrees even and the packing contained in m; total
    weight equals weight(m).
    """
    if not packing.cycles:
        raise GraphError("packing must contain at least one cycle")
    if not m.all_degrees_even():
        raise GraphError("multigraph has a vertex of odd degree")
    support_graph = m.base
    if len(_components(m)) > 1:
        raise GraphError("multigraph must be connected")
    check_packing(m, packing)

    rest = m.without(packing.edge_multiset())
    walk_steps: list[list[tuple[int, int]]] = []
    for cyc in packing.cycles:
        r = len(cyc.edges)
        walk_steps.append([(cyc.vertices[i], cyc.edges[i]) for i in range(r)])

    for comp_vertices, comp_ids in _components(rest):
        splice_at = None
        for ci, cyc in enumerate(packing.cycles):
            shared = sorted(comp_vertices.intersection(cyc.vertices))
            if shared:
                splice_at = (ci, shared[0])
                break
        if splice_at is None:
            raise RuntimeError("leftover component shares no vertex with any packed cycle")
        ci, s = splice_at
        tour = euler_tour(rest.restrict(comp_ids), s)
        steps = walk_steps[ci]
        pos = next(i for i, (v, _) in enumerate(steps) if v == s)
        walk_steps[ci] = steps[:pos] + list(tour.steps) + steps[pos:]

    walks = tuple(Walk(tuple(steps)) for steps in walk_steps)
    total = sum(w.weight(support_graph) for w in walks)
    assert total == m.weight()
    return Solution(walks, total)


def _components(m: Multiplicities) -> list[tuple[set[int], set[int]]]:
    """Connected components of the support, as (vertex set, edge id set)."""
    support = m.support()
    unseen = {e.id: e for e in support}
    comps: list[tuple[set[int], set[int]]] = []
    adj = m.base.adjacency
    while unseen:
        first = unseen[min(unseen)]
        verts = {first.u}
        stack = [first.u]
        ids: set[int] = set()
        while stack:
            v = stack.pop()
            for e in adj[v]:
                if e.id in unseen and m.count(e.id) > 0:
                    if e.id not in ids:
                        ids.add(e.id)
                        del unseen[e.id]
                    w = e.other(v)
                    if w not in verts:
                        verts.add(w)
                        stack.append(w)
        comps.append((verts, ids))
    return comps
