"""Turning an even covering multigraph plus a k-cycle packing into k walks.

Walk i is packed cycle i with tours of the leftover copies spliced in.  Each
connected component of the leftover goes, as one Euler tour, to the first
packed cycle (in packing order) that touches it.  The tour starts at the
lowest vertex that cycle shares with the component and is inserted just
before that vertex's first occurrence in the cycle.
"""

from __future__ import annotations

from operator import itemgetter

from .cpp import Multiplicities, _odd_vertex, _read_counts, _tour
from .cycles import CyclePacking, check_packing
from .graph import GraphError, Solution, Walk, _find


def split_into_k_walks(m: Multiplicities, packing: CyclePacking) -> Solution:
    """Build exactly k = len(packing) closed walks covering every copy of m.

    Removes the packing and tours the leftover from the packed cycles'
    vertices, in packing order and each cycle's vertices ascending, so each
    leftover component is toured once, from the first cycle that touches
    it.  Requires m connected with all degrees even and the packing
    contained in m; total weight equals weight(m).
    """
    if not packing.cycles:
        raise GraphError("packing must contain at least one cycle")
    left = _read_counts(m)
    if _odd_vertex(m.base, left) is not None:
        raise GraphError("multigraph has a vertex of odd degree")
    check_packing(m, packing)
    for eid, c in packing.edge_multiset().items():
        left[eid] -= c

    # m is connected iff every leftover copy is reached from a packed cycle
    # and the cycles are linked through shared vertices or shared leftover
    # components; `first` maps each vertex reached so far to the first
    # cycle that reached it, and `root` is a union-find over cycle indices
    first: dict[int, int] = {}
    root: dict[int, int] = {}
    cursor = dict.fromkeys(m.base.adjacency, 0)
    walks = []
    for ci, cyc in enumerate(packing.cycles):
        tours = {}
        for v in sorted(cyc.vertices):
            j = first.setdefault(v, ci)
            if j != ci:
                root[_find(root, ci)] = _find(root, j)
            tour = _tour(m.base, left, cursor, v)
            if tour:
                tours[v] = tour
                first.update(dict.fromkeys(map(itemgetter(0), tour), ci))
        walk: list[tuple[int, int]] = []
        for step in zip(cyc.vertices, cyc.edges):
            if step[0] in tours:
                walk.extend(tours[step[0]])
            walk.append(step)
        walks.append(Walk(tuple(walk)))
    if any(left.values()) or any(_find(root, i) != _find(root, 0) for i in range(len(walks))):
        raise GraphError("multigraph must be connected")

    by_id = m.base.edge_by_id
    total = sum(by_id[eid].weight for w in walks for _, eid in w.steps)
    assert total == m.weight()
    return Solution(tuple(walks), total)
