"""Shared brute-force oracles and instance builders for the test suite.

The oracles here enumerate raw search spaces and never call the code paths
they are used to check.  The one exception is reference_greedy_packing: it
is the greedy packing as a plain loop over the public shortest_cycle (itself
checked against enumeration), so it checks the one-pass bookkeeping of
greedy_cycle_packing, not its girth search.  reference_split is the earlier
walk split, with its packing checks, kept as it was: it tours from every
vertex of every packed cycle, so it checks the one-pass check-and-spend
and the skipped tours of split_into_k_walks, not the library's Hierholzer
tour over runs, which both share by default.  With per_edge=True it tours
with edge_tour instead, the library's earlier Hierholzer tour that steps
one edge copy at a time, kept as it was, which checks the run tour.
reference_reduction is the earlier chain reduction, kept as it was: it
sums every merged segment edge by edge and starts its expansions from an
identity entry per input edge, so it checks the reduction's weights read
off the chain cut and its expansions of kernel edges only.
reference_edge_greedy is the earlier greedy packing, kept as it was: it
builds the simple rest's 2-core edge by edge (reference_core) and cuts it
afresh with _chains after every cycle, sharing only the girth search with
greedy_cycle_packing, so it checks the cut that greedy reads off the
graph's cached one and updates in place; it now also hands back its
first cut when the 2-cycles alone reach k, as greedy does.
reference_edge_bound is the earlier packing bound over an edge list, kept
as it was: it builds a graph of the edges and cuts its 2-core afresh, so
it checks the bound that pack-cycles reads off greedy's cut.
The record readers
reference_read_triples and reference_parse_solution are the library's
earlier readers, kept as they were, and so are bfs_connected and
odd_by_degree, the per-vertex connectivity and parity checks that the
library now reads off its chain cut.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import Counter
from functools import cache
from itertools import combinations, product
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from hypothesis import strategies as st

from kpostman.cpp import Multiplicities, _read_counts, _runs, _tour
from kpostman.cycles import (
    PackingSearch,
    _chain_cycle,
    _girth,
    packing_upper_bound,
    shortest_cycle,
)
from kpostman.digraph import DiGraph
from kpostman.generators import named_graph, random_connected_graph
from kpostman.graph import (
    Edge,
    GraphError,
    MultiGraph,
    ParseError,
    Solution,
    Walk,
    _chains,
    _CoreCut,
    _find,
    ascii_text,
)
from kpostman.kernel import ExpansionMap

__all__ = [
    "named_graph",
    "random_connected_graph",
    "cpp_enumeration_minimum",
    "join_enumeration_minimum",
    "join_pairing_minimum",
    "chain_union_minimum",
    "bfs_connected",
    "odd_by_degree",
    "bouquet",
    "shortest_distances",
    "even_degrees",
    "closed_walk",
    "all_simple_cycles",
    "all_directed_cycles",
    "min_cycle_key",
    "max_disjoint_from_list",
    "reference_greedy_packing",
    "reference_edge_greedy",
    "reference_edge_bound",
    "reference_core",
    "reference_split",
    "edge_tour",
    "reference_reduction",
    "reference_read_triples",
    "reference_parse_solution",
    "random_small_graphs",
    "seeded_load",
    "record_texts",
]


def bfs_connected(g: MultiGraph) -> bool:
    """True iff all vertices of degree >= 1 lie in one component."""
    adjacency = g.adjacency
    active = [v for v, es in adjacency.items() if es]
    if not active:
        return True
    seen = {active[0]}
    stack = [active[0]]
    while stack:
        v = stack.pop()
        for e in adjacency[v]:
            w = e.u + e.v - v  # the other end
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(active)


def odd_by_degree(g: MultiGraph) -> frozenset[int]:
    return frozenset(v for v in g.adjacency if g.degree(v) % 2 == 1)


def cpp_enumeration_minimum(g: MultiGraph) -> int:
    """Minimum weight over count vectors in {1,2}^m with all degrees even."""
    edges = g.edges
    best = None
    for picks in product((1, 2), repeat=len(edges)):
        ok = True
        for v in g.adjacency:
            deg = sum(c for e, c in zip(edges, picks) if v in (e.u, e.v))
            if deg % 2 != 0:
                ok = False
                break
        if not ok:
            continue
        w = sum(c * e.weight for e, c in zip(edges, picks))
        if best is None or w < best:
            best = w
    assert best is not None, "no even orientation exists; graph disconnected?"
    return best


def join_enumeration_minimum(g: MultiGraph, t: frozenset[int]) -> int:
    """Minimum weight over all edge subsets whose odd-degree set equals t."""
    best = None
    ids = [e.id for e in g.edges]
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            chosen = set(combo)
            odd = set()
            for v in g.adjacency:
                d = sum(1 for e in g.adjacency.get(v, ()) if e.id in chosen)
                if d % 2 == 1:
                    odd.add(v)
            if odd == set(t):
                w = sum(g.edge(eid).weight for eid in chosen)
                if best is None or w < best:
                    best = w
    assert best is not None
    return best


def shortest_distances(g: MultiGraph, s: int) -> dict[int, int]:
    """Plain Dijkstra over every vertex: the distance to each vertex that
    s reaches."""
    best = {s: 0}
    heap = [(0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > best[v]:
            continue
        for e in g.adjacency[v]:
            u = e.other(v)
            if u not in best or d + e.weight < best[u]:
                best[u] = d + e.weight
                heapq.heappush(heap, (best[u], u))
    return best


def join_pairing_minimum(g: MultiGraph, t: frozenset[int]) -> int:
    """Minimum T-join weight: a plain Dijkstra over every vertex from each
    vertex of t, then the optimal pairing of t by DP over subsets."""
    terminals = sorted(t)
    dist = {s: shortest_distances(g, s) for s in terminals}

    @cache
    def pairing(rest: tuple[int, ...]) -> int:
        if not rest:
            return 0
        a = rest[0]
        return min(
            dist[a][b] + pairing(rest[1:i] + rest[i + 1 :]) for i, b in enumerate(rest) if i
        )

    return pairing(tuple(terminals))


def chain_union_minimum(g: MultiGraph, k: int) -> int:
    """The k-walk optimum over duplication sets of whole chains plus pairs
    on a minimum-weight edge, the kernel search's own restriction, found
    the plain way: all 2^c unions of the c chains are built, those that
    leave a vertex of odd degree are dropped, and the rest are scored in
    increasing weight by the exhaustive packing search alone, each
    missing cycle paid as one pair, until no heavier union can win."""
    chains = sorted(g.chains, key=lambda c: c.edges[0])
    odd = 0  # bit v: vertex v has odd degree
    for v in g.adjacency:
        odd |= (g.degree(v) & 1) << v
    flips, weights = [0], [0]  # per union of the first chains: its parity flips and weight
    for c in chains:
        flip = (1 << c.u) ^ (1 << c.v)
        flips += [f ^ flip for f in flips]
        weights += [w + c.weight for w in weights]
    unions = sorted((w, mask) for mask, (f, w) in enumerate(zip(flips, weights)) if f == odd)
    base, mu = g.total_weight(), g.min_weight_edge().weight
    searcher = PackingSearch(g)
    best = None
    for w, mask in unions:
        if best is not None and base + w >= best:
            break
        counts = {e.id: 1 for e in g.edges}
        for i, c in enumerate(chains):
            if mask >> i & 1:
                counts.update(dict.fromkeys(c.edges, 2))
        got, _ = searcher.run(counts, k)
        cost = base + w + 2 * mu * (k - got)
        best = cost if best is None else min(best, cost)
    assert best is not None, "no even union of chains; graph disconnected?"
    return best


def bouquet(weights: list[int]) -> MultiGraph:
    """Triangles hung on vertex 1, one per weight, every edge of a triangle
    of that weight: each triangle is a loop chain of the center."""
    triples = []
    for i, w in enumerate(weights):
        a, b = 2 * i + 2, 2 * i + 3
        triples += [(1, a, w), (a, b, w), (b, 1, w)]
    return MultiGraph.from_edges(2 * len(weights) + 1, triples)


def even_degrees(m) -> bool:
    """Whether every vertex meets an even number of the edge copies of the
    Multiplicities m, counted vertex by vertex."""
    return all(
        sum(m.counts.get(e.id, 0) for e in m.base.adjacency.get(v, ())) % 2 == 0
        for v in m.base.adjacency
    )


def closed_walk(g: MultiGraph, steps) -> bool:
    """Whether the (vertex, edge id) steps form a closed walk of g: each
    step's edge joins its vertex to the next step's, the last step's to
    the first step's."""
    ends = g.ends
    return all(
        sorted((v, nxt)) == sorted(ends[eid])
        for (v, eid), (nxt, _) in zip(steps, [*steps[1:], *steps[:1]])
    )


def all_simple_cycles(g: MultiGraph, counts: dict[int, int]) -> list[tuple[int, ...]]:
    """Every simple cycle of the multigraph, as a sorted edge-id multiset."""
    found: set[tuple[int, ...]] = set()
    support = [e for e in g.edges if counts.get(e.id, 0) > 0]
    for e in support:
        if counts.get(e.id, 0) >= 2:
            found.add((e.id, e.id))

        def dfs(cur, target, visited, ids):
            for f in g.adjacency[cur]:
                if counts.get(f.id, 0) < 1 or f.id in ids or f.id == e.id:
                    continue
                nxt = f.other(cur)
                if nxt == target:
                    found.add(tuple(sorted(ids + [f.id, e.id])))
                elif nxt not in visited:
                    dfs(nxt, target, visited | {nxt}, ids + [f.id])

        dfs(e.v, e.u, {e.u, e.v}, [])
    return sorted(found)


def all_directed_cycles(d: DiGraph) -> list[tuple[int, ...]]:
    """Every simple directed cycle, as sorted arc ids.  Each cycle is found
    from its lowest vertex, walking only through higher vertices."""
    found: set[tuple[int, ...]] = set()
    for start in range(1, d.vertex_count + 1):

        def dfs(cur, visited, ids):
            for a in d.arcs:
                if a.tail != cur:
                    continue
                if a.head == start:
                    found.add(tuple(sorted(ids + [a.id])))
                elif a.head > start and a.head not in visited:
                    dfs(a.head, visited | {a.head}, ids + [a.id])

        dfs(start, {start}, [])
    return sorted(found)


def min_cycle_key(g: MultiGraph, counts: dict[int, int]) -> tuple[int, int] | None:
    """Smallest (edge count, weight) over all cycles: two copies of an edge,
    or an edge closed by the lexicographically shortest path between its
    ends that avoids it."""
    best = None
    for e in g.edges:
        if counts.get(e.id, 0) >= 2:
            cand = (2, 2 * e.weight)
        elif counts.get(e.id, 0) == 1:
            cand = None
            dist = {e.u: (0, 0)}
            heap = [((0, 0), e.u)]
            done: set[int] = set()
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                if v == e.v:
                    cand = (d[0] + 1, d[1] + e.weight)
                    break
                for f in g.adjacency[v]:
                    if f.id != e.id and counts.get(f.id, 0) > 0:
                        nd, u = (d[0] + 1, d[1] + f.weight), f.other(v)
                        if u not in dist or nd < dist[u]:
                            dist[u] = nd
                            heapq.heappush(heap, (nd, u))
        else:
            continue
        if cand is not None and (best is None or cand < best):
            best = cand
    return best


def max_disjoint_from_list(cycles: list[tuple[int, ...]], counts: dict[int, int]) -> int:
    """Max number of edge-disjoint cycles chosen from an explicit list.

    The lowest edge with copies left is either in a chosen cycle, which
    may as well be taken first, or in none, so all its copies can go.
    The copies left are packed into one integer, a bit field per edge with
    a guard bit above it, so a cycle fits iff subtracting its copies
    clears no guard.  Memoized on that integer.
    """
    start: dict[int, int] = {}  # edge id -> lowest bit of its field
    owner: dict[int, int] = {}  # bit -> lowest bit of its field
    field: dict[int, int] = {}  # lowest bit -> the field's mask
    state = guards = 0
    for eid, n in sorted(counts.items()):
        if n > 0:
            lo, width = guards.bit_length(), n.bit_length()
            start[eid] = lo
            owner.update((b, lo) for b in range(lo, lo + width))
            field[lo] = ((1 << width) - 1) << lo
            state |= n << lo
            guards |= 1 << (lo + width)
    values = sum(field.values())
    through: dict[int, list[int]] = {}  # lowest bit of a field -> cycle copies
    for c in cycles:
        use = Counter(c)
        if all(n <= counts.get(eid, 0) for eid, n in use.items()):
            delta = sum(n << start[eid] for eid, n in use.items())
            for eid in use:
                through.setdefault(start[eid], []).append(delta)
    memo: dict[int, int] = {}

    def rec(state: int) -> int:
        live = state & values
        if not live:
            return 0
        if state not in memo:
            lo = owner[(live & -live).bit_length() - 1]
            best = rec(state & ~field[lo])
            for delta in through.get(lo, ()):
                rest = state - delta
                if rest & guards == guards:
                    best = max(best, 1 + rec(rest))
            memo[state] = best
        return memo[state]

    return rec(state | guards)


def reference_greedy_packing(m: Multiplicities, k: int) -> tuple[Walk, ...]:
    """Up to k cycles: a shortest cycle of what is left, again and again,
    each time on a fresh Multiplicities without the copies taken."""
    cycles: list[Walk] = []
    while len(cycles) < k:
        c = shortest_cycle(m)
        if c is None:
            break
        cycles.append(c)
        m = m.without(Counter(c.edge_ids()))
    return tuple(cycles)


def reference_core(edges) -> dict[int, dict[Edge, None]]:
    """Incidence map of the 2-core of the graph on edges: the incident
    edges of each vertex left, in the order given, as the keys of a dict so
    that one can be dropped in O(1) (see reference_peel)."""
    adj: dict[int, dict[Edge, None]] = {}
    for e in edges:
        adj.setdefault(e.u, {})[e] = None
        adj.setdefault(e.v, {})[e] = None
    reference_peel(adj, list(adj))
    return adj


def reference_peel(adj: dict[int, dict[Edge, None]], vertices) -> None:
    """Strip degree-1 vertices from the incidence map in place, starting at
    vertices, until none is left; a vertex left with no edge is dropped."""
    stack = list(vertices)
    while stack:
        v = stack.pop()
        es = adj.get(v)
        if es is None or len(es) > 1:
            continue
        del adj[v]
        for e in es:
            w = e.other(v)
            ws = adj[w]
            del ws[e]
            if len(ws) < 2:
                stack.append(w)


def _reference_two_cycles(support: list[Edge], left) -> list[tuple[int, tuple[int, int], Walk]]:
    out = []
    by_pair: dict[tuple[int, int], list[Edge]] = {}
    for e in support:
        if left[e.id] >= 2:
            ids = (e.id, e.id)
            out.append((2 * e.weight, ids, Walk(((e.u, e.id), (e.v, e.id)))))
        by_pair.setdefault((e.u, e.v) if e.u < e.v else (e.v, e.u), []).append(e)
    for pair_edges in by_pair.values():
        for i, e in enumerate(pair_edges):
            for f in pair_edges[i + 1:]:
                ids = (e.id, f.id) if e.id < f.id else (f.id, e.id)
                out.append((e.weight + f.weight, ids, Walk(((e.u, ids[0]), (e.v, ids[1])))))
    out.sort(key=lambda t: t[:2])
    return out


def reference_edge_greedy(m: Multiplicities, k: int, cut=None, cuts=None) -> tuple[Walk, ...]:
    """The library's earlier greedy packing, kept as it was: edge by edge,
    a support list and a per-pair 2-cycle pass, then the 2-core of the
    simple rest as an incidence map, cut afresh with _chains after every
    cycle.  A list passed as `cut` receives the first of those cuts, also
    when the 2-cycles alone reach k, and one passed as `cuts` each cut the
    girth search reads, in turn."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    left = _read_counts(m)
    support = [e for e in m.base.edges if left[e.id]]
    cycles: list[Walk] = []
    for _, (a, b), c in _reference_two_cycles(support, left):
        fits = left[a] // 2 if a == b else min(left[a], left[b])
        times = min(fits, k - len(cycles))
        if times > 0:
            cycles.extend([c] * times)
            left[a] -= times
            left[b] -= times
            if len(cycles) == k:
                break
    core = reference_core(e for e in support if left[e.id])
    chains = _chains(core)
    if cut is not None:
        cut.extend(chains)
    if len(cycles) == k:
        return tuple(cycles)
    edge = m.base.edge_by_id
    while True:
        if cuts is not None:
            cuts.append(list(chains))
        found = _girth(chains, [(len(c.edges), c.weight) for c in chains])
        if found is None:
            break
        _, start, path = found
        c = _chain_cycle(start, [chains[i] for i in path])
        cycles.append(c)
        if len(cycles) == k:
            break
        for eid in c.edge_ids():
            e = edge[eid]
            del core[e.u][e]
            del core[e.v][e]
        reference_peel(core, [v for v, _ in c.steps])
        chains = _chains(core)
    return tuple(cycles)


def reference_edge_bound(edges, floor: int) -> int:
    """The library's earlier edge-list packing bound, kept as it was:
    packing_upper_bound of the 2-core cut of a graph built on `edges`, one
    copy each."""
    edges = tuple(edges)
    g = MultiGraph(max((max(e.u, e.v) for e in edges), default=0), edges)
    return packing_upper_bound(_CoreCut(g).chains, floor)


def _reference_check_cycle(m: Multiplicities, c: Walk) -> None:
    vs, es = tuple(v for v, _ in c.steps), c.edge_ids()
    r = len(es)
    if r < 2 or len(vs) != r:
        raise GraphError(f"cycle must have >= 2 edges and matching vertex count, got {c}")
    if len(set(vs)) != r:
        raise GraphError(f"cycle repeats a vertex: {vs}")
    for i, eid in enumerate(es):
        e = m.base.edge(eid)
        a, b = vs[i], vs[(i + 1) % r]
        if {a, b} != {e.u, e.v}:
            raise GraphError(f"edge {eid} does not join {a} and {b}")
    for eid, uses in Counter(es).items():
        if uses > m.count(eid):
            raise GraphError(f"cycle uses edge {eid} {uses} times, only {m.count(eid)} copies")


def _reference_check_packing(m: Multiplicities, packing: tuple[Walk, ...]) -> None:
    for c in packing:
        _reference_check_cycle(m, c)
    for eid, uses in Counter(eid for c in packing for eid in c.edge_ids()).items():
        if uses > m.count(eid):
            raise GraphError(f"packing uses edge {eid} {uses} times, only {m.count(eid)} copies")


def edge_tour(
    g: MultiGraph, left: dict[int, int], cursor: dict[int, int], start: int
) -> list[tuple[int, int]]:
    """The library's earlier Hierholzer tour, one edge copy per step: the
    closed walk from start through every copy still left in start's
    component, as (vertex, edge id) steps; empty if start has none.

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


def reference_split(m: Multiplicities, packing: tuple[Walk, ...], per_edge: bool = False) -> Solution:
    """The earlier split_into_k_walks, kept as the reference: every check
    first (counts, parity counted vertex by vertex, each cycle, the whole
    packing), the packing subtracted as one multiset, then a tour from
    every vertex of every packed cycle, in packing order and each cycle's
    vertices ascending.  The tours are the library's _tour over the runs
    cut at every packed cycle's vertex, or edge_tour with per_edge."""
    if not packing:
        raise GraphError("packing must contain at least one cycle")
    left = _read_counts(m)
    g = m.base
    if any(sum(left[e.id] for e in es) % 2 for es in g.adjacency.values()):
        raise GraphError("multigraph has a vertex of odd degree")
    _reference_check_packing(m, packing)
    for eid, n in Counter(eid for c in packing for eid in c.edge_ids()).items():
        left[eid] -= n

    cursor = dict.fromkeys(g.adjacency, 0)
    runs = _runs(g, left, {v for c in packing for v, _ in c.steps})
    first: dict[int, int] = {}
    root: dict[int, int] = {}
    walks = []
    for ci, cyc in enumerate(packing):
        tours = {}
        for v in sorted(v for v, _ in cyc.steps):
            j = first.setdefault(v, ci)
            if j != ci:
                root[_find(root, ci)] = _find(root, j)
            tour = edge_tour(g, left, cursor, v) if per_edge else _tour(runs, v).steps
            if tour:
                tours[v] = tour
                first.update(dict.fromkeys(map(itemgetter(0), tour), ci))
        walk: list[tuple[int, int]] = []
        for step in cyc.steps:
            if step[0] in tours:
                walk.extend(tours[step[0]])
            walk.append(step)
        walks.append(Walk(tuple(walk)))
    spent = Counter(eid for w in walks for _, eid in w.steps)
    if spent != +Counter(m.counts) or any(
        _find(root, i) != _find(root, 0) for i in range(len(walks))
    ):
        raise GraphError("multigraph must be connected")

    by_id = m.base.edge_by_id
    total = sum(by_id[eid].weight for w in walks for _, eid in w.steps)
    assert total == m.weight()
    return Solution(tuple(walks), total)


def reference_reduction(g: MultiGraph, k: int) -> ExpansionMap:
    """The earlier apply_reduction_rule, per edge: an identity expansion for
    every input edge, each merged segment summed and its edges deleted."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    min_id = g.min_weight_edge().id if g.edges else None
    next_id = g.max_edge_id() + 1
    edge_by_id = g.edge_by_id
    expansions: dict[int, tuple[int, ...]] = {e.id: (e.id,) for e in g.edges}
    merged: list[Edge] = []
    for c in g.chains:
        parts = k + 2 if c.ring else k + 1
        if len(c.edges) <= parts:
            continue
        verts, ids = c.vertices, c.edges
        cuts: set[int] = set()
        if min_id in ids:
            p = ids.index(min_id)
            if c.ring:  # start the ring at the kept edge
                verts, ids = verts[p:] + verts[1 : p + 1], ids[p:] + ids[:p]
                p = 0
            cuts = {cut for cut in (p, p + 1) if 0 < cut < len(ids)}
        pos = 1
        while len(cuts) < parts - 1:
            cuts.add(pos)
            pos += 1
        bounds = [0, *sorted(cuts), len(ids)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo < 2:
                continue
            weight = sum(edge_by_id[eid].weight for eid in ids[lo:hi])
            merged.append(Edge(next_id, verts[lo], verts[hi], weight))
            expansions[next_id] = ids[lo:hi]
            next_id += 1
            for eid in ids[lo:hi]:
                del expansions[eid]
    if not merged:
        return ExpansionMap(g, g, expansions)
    kept = tuple(e for e in g.edges if e.id in expansions)
    return ExpansionMap(g, MultiGraph(g.vertex_count, kept + tuple(merged)), expansions)


def seeded_load(workload: str, seed: int | None = None):
    """The specs of a benchmark workload at `seed`, by default the
    workload's default seed, from perfbench/workloads.py."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import DEFAULT_SEED, generate
    finally:
        sys.path.pop(0)
    return generate(workload, DEFAULT_SEED if seed is None else seed)


def random_small_graphs(seed: int, trials: int, max_n=5, max_m=7, max_w=2):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(2, max_n)
        m = rng.randint(n - 1, max_m)
        yield random_connected_graph(rng, n, m, max_weight=max_w)


_TOKENS = [
    *("p", "kcpp", "dkcpp", "e", "a", "s", "w", "#"),
    *("0", "1", "2", "3", "-1", "x", "1.5", "+1", "1_0", "\u0661", "9" * 30),
]


@st.composite
def _matched_texts(draw) -> str:
    """A header whose record count matches its body, with small fields
    (some out of range), so that the parsers often return a value."""
    small = st.integers(0, 3)
    fmt = draw(st.sampled_from(["kcpp", "dkcpp", "s"]))
    count = draw(st.integers(0, 3))
    if fmt == "s":
        lines = [f"s {draw(small)} {count}"]
        for _ in range(count):
            steps = draw(st.integers(0, 2))
            body = draw(st.lists(small, min_size=2 * steps + 1, max_size=2 * steps + 1))
            lines.append(" ".join(map(str, ["w", steps, *body[:-1], body[0]])))
    else:
        lines = [f"p {fmt} {draw(small)} {count} {draw(small)}"]
        tag = "e" if fmt == "kcpp" else "a"
        lines += [f"{tag} {draw(small)} {draw(small)} {draw(small)}" for _ in range(count)]
    return "\n".join(lines)


_token_lines = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=7).map(" ".join)
_plain_fields = st.sampled_from(["-1", "0", "1", "2", "3", "+1", "1_0", "x"])
_plain_records = st.tuples(st.sampled_from(["e", "a"]), *[_plain_fields] * 3).map(" ".join)


@st.composite
def _edited_texts(draw) -> str:
    """A matched text with one line of record-like tokens or one edge or
    arc record of four tokens put in, so that faults also come before the
    header, after it and among valid records."""
    lines = draw(_matched_texts()).split("\n")
    at = draw(st.integers(0, len(lines)))
    return "\n".join(lines[:at] + [draw(st.one_of(_token_lines, _plain_records))] + lines[at:])


def record_texts():
    """Arbitrary text, lines of record-like tokens that get past the first
    checks of the instance and solution parsers, texts whose records match
    their header, so that valid values come up too, and such texts with
    one line of tokens put in."""
    lines = st.lists(_token_lines, max_size=8).map("\n".join)
    return st.one_of(st.text(), lines, _matched_texts(), _edited_texts())


def _reference_records(
    text: str | bytes, tags: tuple[str, ...], fmt: str | None = None
) -> Iterator[tuple[int, str, list[int]]]:
    """The earlier graph._records, kept as the reference: every line is
    split, checked for its tag, header format, '+' or '_' and integer
    fields in this order, and yielded."""
    for lineno, raw in enumerate(ascii_text(text).splitlines(), start=1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        tag, fields = tok[0], tok[1:]
        if tag not in tags:
            raise ParseError(f"line {lineno}: unknown record tag {tag!r}")
        if tag == "p":
            if fields[:1] != [fmt]:
                raise ParseError(f"line {lineno}: malformed header {raw.strip()!r}")
            fields = fields[1:]
        if "+" in raw or "_" in raw:
            raise ParseError(f"line {lineno}: '+' or '_' in {raw.strip()!r}")
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {raw.strip()!r}") from None
        yield lineno, tag, values


def reference_read_triples(
    text: str | bytes, fmt: str, tag: str, header_sizes: tuple[int, ...]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The earlier graph.read_triples, kept as the reference: each record
    from _reference_records, then the header and triple checks."""
    header: list[int] | None = None
    triples: list[tuple[int, int, int]] = []
    for lineno, t, values in _reference_records(text, ("p", tag), fmt):
        if t == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(values) not in header_sizes:
                raise ParseError(f"line {lineno}: malformed header")
            if values[2] < 1 or any(x < 0 for x in values):
                raise ParseError(f"line {lineno}: header values out of range")
            header = values
            continue
        if header is None:
            raise ParseError(f"line {lineno}: record before header")
        if len(values) != 3:
            raise ParseError(f"line {lineno}: malformed record, expected 3 fields")
        a, b, w = values
        if a == b:
            raise ParseError(f"line {lineno}: loop {a}-{b}")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w}")
        if not (1 <= a <= header[0] and 1 <= b <= header[0]):
            raise ParseError(f"line {lineno}: vertex index out of range")
        triples.append((a, b, w))
    if header is None:
        raise ParseError("missing header")
    if len(triples) != header[1]:
        raise ParseError(f"header declares m={header[1]} but found {len(triples)} records")
    return header, triples


def reference_parse_solution(text: str | bytes) -> Solution:
    """The earlier graph.parse_solution, kept as the reference: records
    from _reference_records, and each walk's steps taken by index."""
    total: int | None = None
    k: int | None = None
    walks: list[Walk] = []
    for lineno, tag, numbers in _reference_records(text, ("s", "w")):
        if tag == "s":
            if total is not None:
                raise ParseError(f"line {lineno}: duplicate solution header")
            if len(numbers) != 2:
                raise ParseError(f"line {lineno}: malformed solution header")
            total, k = numbers
            if total < 0 or k < 1:
                raise ParseError(f"line {lineno}: solution header values out of range")
        else:
            if total is None:
                raise ParseError(f"line {lineno}: walk before solution header")
            if not numbers:
                raise ParseError(f"line {lineno}: walk record without a step count")
            count, body = numbers[0], numbers[1:]
            if count < 1 or len(body) != 2 * count + 1:
                raise ParseError(f"line {lineno}: walk needs >= 1 step and 2*count+1 tokens")
            if body[0] != body[-1]:
                raise ParseError(f"line {lineno}: walk does not close on its start vertex")
            steps = tuple((body[2 * i], body[2 * i + 1]) for i in range(count))
            walks.append(Walk(steps))
    if total is None or k is None:
        raise ParseError("missing solution header")
    if len(walks) != k:
        raise ParseError(f"solution header declares {k} walks, found {len(walks)}")
    return Solution(tuple(walks), total)
