"""Shortest cycles, greedy edge-disjoint packing, and an exact packing search
that serves undirected and directed graphs alike.

Cycles live in a multigraph-with-counts: two copies of one edge form a
2-cycle, as do two parallel edges.  "Shortest" is by edge count, then by
total weight; ties on both are broken deterministically.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Protocol

from .cpp import Multiplicities
from .graph import Chain, Edge, GraphError, MultiGraph, chain_decomposition, core_edge_ids


@dataclass(frozen=True)
class Cycle:
    """Simple closed cycle: edges[i] joins vertices[i] to vertices[i+1 mod r]."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def edge_multiset(self) -> Counter:
        return Counter(self.edges)

    def weight(self, g: MultiGraph) -> int:
        return sum(g.edge(eid).weight for eid in self.edges)


@dataclass(frozen=True)
class CyclePacking:
    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def edge_multiset(self) -> Counter:
        total: Counter = Counter()
        for c in self.cycles:
            total.update(c.edges)
        return total


def check_cycle(m: Multiplicities, c: Cycle) -> None:
    """Raise unless c is a valid simple cycle within m's remaining copies."""
    r = len(c.edges)
    if r < 2 or len(c.vertices) != r:
        raise GraphError(f"cycle must have >= 2 edges and matching vertex count, got {c}")
    if len(set(c.vertices)) != r:
        raise GraphError(f"cycle repeats a vertex: {c.vertices}")
    for i, eid in enumerate(c.edges):
        e = m.base.edge(eid)
        a, b = c.vertices[i], c.vertices[(i + 1) % r]
        if {a, b} != {e.u, e.v}:
            raise GraphError(f"edge {eid} does not join {a} and {b}")
    for eid, uses in c.edge_multiset().items():
        if uses > m.count(eid):
            raise GraphError(f"cycle uses edge {eid} {uses} times, only {m.count(eid)} copies")


def check_packing(m: Multiplicities, packing: CyclePacking) -> None:
    """Raise unless the cycles are pairwise disjoint edge copies within m."""
    for c in packing.cycles:
        check_cycle(m, c)
    for eid, uses in packing.edge_multiset().items():
        if uses > m.count(eid):
            raise GraphError(f"packing uses edge {eid} {uses} times, only {m.count(eid)} copies")


def _two_cycle_candidates(m: Multiplicities) -> list[tuple[int, int, tuple[int, ...], Cycle]]:
    out = []
    support = m.support()
    by_pair: dict[frozenset[int], list[Edge]] = {}
    for e in support:
        by_pair.setdefault(e.endpoints(), []).append(e)
    for e in support:
        if m.count(e.id) >= 2:
            ids = (e.id, e.id)
            out.append((2, 2 * e.weight, ids, Cycle((e.u, e.v), ids)))
    for pair_edges in by_pair.values():
        for i, e in enumerate(pair_edges):
            for f in pair_edges[i + 1:]:
                ids = tuple(sorted((e.id, f.id)))
                out.append((2, e.weight + f.weight, ids, Cycle((e.u, e.v), ids)))
    return out


def shortest_cycle(m: Multiplicities) -> Cycle | None:
    """Minimum (edge count, weight) cycle of the multigraph, or None if acyclic.

    Without 2-cycles the support is a simple graph.  Its 2-core is cut into
    chains; loop chains and rings are cycles as they are, and every other
    cycle is found by one lexicographic (hops, weight) Dijkstra per anchor
    over the chains, closing over a non-tree chain whose ends hang from
    different root branches.  A search stops once it pops more than half
    the best cycle so far, which keeps the result exact.
    """
    two = _two_cycle_candidates(m)
    if two:
        return min(two, key=lambda t: (t[0], t[1], t[2]))[3]
    g = m.base
    chains = chain_decomposition(g, core_edge_ids(g, [e.id for e in m.support()]))
    best_key: tuple[float, float] = (math.inf, math.inf)
    best: Cycle | None = None
    open_chains: list[Chain] = []
    incident: dict[int, list[int]] = {}
    for c in chains:
        if c.u == c.v:
            if (len(c.edges), c.weight) < best_key:
                best_key, best = (len(c.edges), c.weight), Cycle(c.vertices[:-1], c.edges)
        else:
            incident.setdefault(c.u, []).append(len(open_chains))
            incident.setdefault(c.v, []).append(len(open_chains))
            open_chains.append(c)

    def closed(root: int, pred: dict[int, int], x: int, i: int, y: int) -> Cycle:
        """Tree path root -> x, chain i to y, tree path y -> root."""

        def up(v: int):  # tree chains from v up to the root
            while v != root:
                yield pred[v]
                c = open_chains[pred[v]]
                v = c.u if c.v == v else c.v

        verts: list[int] = []
        ids: list[int] = []
        cur = root
        for j in [*reversed(list(up(x))), i, *up(y)]:
            vs, es = open_chains[j].walk_from(cur)
            verts.extend(vs[:-1])
            ids.extend(es)
            cur = vs[-1]
        return Cycle(tuple(verts), tuple(ids))

    for root in sorted(incident):
        dist = {root: (0, 0)}
        pred: dict[int, int] = {}  # vertex -> index of its tree chain
        branch = {root: -1}  # vertex -> index of the first chain on its tree path
        settled: set[int] = set()
        heap = [((0, 0), root)]
        while heap:
            (h, w), x = heapq.heappop(heap)
            if x in settled:
                continue
            if (2 * h, 2 * w) > best_key:
                break
            settled.add(x)
            for i in incident[x]:
                c = open_chains[i]
                y = c.v if c.u == x else c.u
                if y in settled:
                    if i != pred.get(x) and branch[y] != branch[x]:
                        key = (h + len(c.edges) + dist[y][0], w + c.weight + dist[y][1])
                        if key < best_key:
                            best_key, best = key, closed(root, pred, x, i, y)
                    continue
                cand = (h + len(c.edges), w + c.weight)
                if y not in dist or cand < dist[y]:
                    dist[y] = cand
                    pred[y] = i
                    branch[y] = i if x == root else branch[x]
                    heapq.heappush(heap, (cand, y))
    return best


def greedy_cycle_packing(m: Multiplicities, k: int) -> CyclePacking:
    """Repeatedly extract a shortest cycle, up to k cycles or until acyclic."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    cur = m
    cycles: list[Cycle] = []
    while len(cycles) < k:
        c = shortest_cycle(cur)
        if c is None:
            break
        cycles.append(c)
        cur = cur.without(c.edge_multiset())
    return CyclePacking(tuple(cycles))


class SteppedGraph(Protocol):
    """A graph as PackingSearch reads it: `ends` gives an edge id's two ends
    and `steps` the (edge id, next vertex) pairs leaving a vertex.  A
    MultiGraph steps each edge both ways, a DiGraph each arc tail to head."""

    ends: Mapping[int, tuple[int, int]]
    steps: Mapping[int, tuple[tuple[int, int], ...]]


RawCycle = tuple[tuple[int, ...], tuple[int, ...]]  # (vertices, slots)


class PackingSearch:
    """Exhaustive branch over cycles through the lowest remaining edge copy,
    for edge-disjoint cycles and arc-disjoint directed cycles alike.

    The residual state is a tuple of copy counts with one slot per edge, in
    ascending edge-id order, memoized with the target; reusable across many
    count vectors over the same base graph.  With a target ("find at least
    this many") the returned value is capped there, which is all a
    feasibility test needs.
    """

    def __init__(self, base: SteppedGraph):
        self.ids = sorted(base.ends)
        slot = {eid: i for i, eid in enumerate(self.ids)}
        self.ends = [base.ends[eid] for eid in self.ids]
        self.steps = {v: tuple((slot[eid], w) for eid, w in out) for v, out in base.steps.items()}
        self.memo: dict[tuple[tuple[int, ...], int], tuple[int, tuple[RawCycle, ...]]] = {}

    def run(self, counts: Mapping[int, int], target: int) -> tuple[int, tuple[Cycle, ...]]:
        state = tuple(max(counts.get(eid, 0), 0) for eid in self.ids)
        got, found = self._search(state, target)
        return got, tuple(Cycle(verts, tuple(self.ids[s] for s in slots)) for verts, slots in found)

    def _cycles_through(self, state: tuple[int, ...], i: int) -> list[RawCycle]:
        """Every simple cycle through one copy of slot i."""
        cycles: list[RawCycle] = []
        u, v = self.ends[i]

        def dfs(cur: int, verts: tuple[int, ...], slots: tuple[int, ...]) -> None:
            for s, nxt in self.steps[cur]:
                if state[s] - (s == i) - slots.count(s) < 1:
                    continue
                if nxt == u:
                    cycles.append(((u,) + verts, (i,) + slots + (s,)))
                elif nxt != v and nxt not in verts:
                    dfs(nxt, verts + (nxt,), slots + (s,))

        dfs(v, (v,), ())
        return cycles

    def _search(self, state: tuple[int, ...], target: int) -> tuple[int, tuple[RawCycle, ...]]:
        target = min(target, sum(state) // 2)  # every cycle eats >= 2 copies
        if target <= 0:
            return 0, ()
        key = (state, target)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        i = next(s for s, c in enumerate(state) if c)
        best: tuple[int, tuple[RawCycle, ...]] = (0, ())
        for cyc in self._cycles_through(state, i):
            sub = list(state)
            for s in cyc[1]:
                sub[s] -= 1
            got, rest = self._search(tuple(sub), target - 1)
            if 1 + got > best[0]:
                best = (1 + got, (cyc,) + rest)
                if best[0] >= target:
                    self.memo[key] = best
                    return best
        dropped = self._search(state[:i] + (0,) + state[i + 1:], target)
        if dropped[0] > best[0]:
            best = dropped
        self.memo[key] = best
        return best


def exact_max_cycle_packing(m: Multiplicities, size_limit: int = 14) -> tuple[int, CyclePacking]:
    """True maximum number of pairwise edge-disjoint cycles, with a witness,
    gated by total edge copies <= size_limit."""
    copies = m.copies()
    if copies > size_limit:
        raise GraphError(f"{copies} edge copies exceed the size limit {size_limit}")
    nu, cycles = PackingSearch(m.base).run(m.counts, copies // 2)
    return nu, CyclePacking(cycles)
