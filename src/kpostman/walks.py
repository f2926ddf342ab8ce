"""Turning an even covering multigraph plus k packed cycles into k walks.

A packed cycle is already a closed walk, a graph.Walk on distinct
vertices, and walk i is packed cycle i with tours of the leftover copies
spliced in.  Each connected component of the leftover goes, as one Euler
tour, to the first packed cycle (in packing order) that touches it.  The
tour starts at the lowest vertex that cycle shares with the component
and is inserted just before that vertex's first occurrence in the cycle.

check_packing checks the packing, spends its copies and sums its weight
in one pass.  Tours start only while copies are left, so a cycle that
gets none is its own walk, returned as it is.  The tours are cpp._tour's
over the runs of the leftover (cpp._runs), cut at every packed cycle's
vertices: at a run end a tour takes the first run with copies left, in
the order of the run's end edge in the graph's adjacency, and crosses it
whole, so a doubled chain is crossed end to end and back, not edge by
edge.

The checks stay at run level.  Connectivity is read off the run ends the
tours stood on, not off every step, and the total is certified as the
packed cycles' weights plus the weights of the runs the tours crossed
(cut weights for whole chains), which must equal weight(m); the walks'
steps are not summed again.
"""

from __future__ import annotations

from typing import Sequence

from .cpp import Multiplicities, _runs, _tour
from .cycles import check_packing
from .graph import GraphError, Solution, Walk, _find


def split_into_k_walks(m: Multiplicities, packing: Sequence[Walk]) -> Solution:
    """Build exactly k = len(packing) closed walks covering every copy of m.

    Removes the packing and tours the leftover from the packed cycles'
    vertices, in packing order and each cycle's vertices ascending, so each
    leftover component is toured once, from the first cycle that touches
    it.  Requires m connected with all degrees even and the packing
    contained in m; total weight equals weight(m).
    """
    if not packing:
        raise GraphError("packing must contain at least one cycle")
    left, total = check_packing(m, packing)  # total: the packed cycles' weight
    # tours start only while copies are left, and need no runs otherwise;
    # with none left, every degree is even
    rest = sum(left.values())
    if rest:
        runs = _runs(m.base, left, {v for c in packing for v, _ in c.steps})
        # a packed cycle meets each of its vertices twice, so the copies
        # left have m's parities
        if runs.odd is not None:
            raise GraphError("multigraph has a vertex of odd degree")

    # m is connected iff every leftover copy is reached from a packed cycle
    # and the cycles are linked through shared vertices or shared leftover
    # components; `first` maps each packed-cycle vertex and each run end a
    # tour stood on to the first cycle that reached it (every packed-cycle
    # vertex is a run end, since the runs are cut there), and `root` is a
    # union-find over cycle indices
    first: dict[int, int] = {}
    root: dict[int, int] = {}
    walks = []
    for ci, cyc in enumerate(packing):
        tours = {}
        for v, _ in sorted(cyc.steps):
            j = first.setdefault(v, ci)
            if j != ci:
                root[_find(root, ci)] = _find(root, j)
            if rest:
                tour, stood, weight = _tour(runs, v)
                if tour:
                    rest -= len(tour)
                    total += weight
                    tours[v] = tour
                    first.update(dict.fromkeys(stood, ci))
        if tours:
            walk: list[tuple[int, int]] = []
            for step in cyc.steps:
                walk.extend(tours.get(step[0], ()))
                walk.append(step)
            cyc = Walk(tuple(walk))
        walks.append(cyc)
    # every union made a non-root, and no non-root becomes a root again
    if rest or sum(x != r for x, r in root.items()) < len(walks) - 1:
        raise GraphError("multigraph must be connected")
    assert total == m.weight()
    return Solution(tuple(walks), total)
