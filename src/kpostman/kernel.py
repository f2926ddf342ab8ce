"""Kernelization pipeline: the packing shortcut, the chain reduction rule,
and solution lifting.

The pipeline is certificate-driven: the shortcut only fires when it holds
an actual cycle packing in hand.  It runs once, on the input; the reduced
graph goes straight to the exact search.  kernelize measures nothing
else: kernel_report(g, outcome) measures degree classes and chain sizes
only when asked, as `kpostman kernelize` does to print them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .cpp import CppSolution, Multiplicities, solve_cpp
from .cycles import Cycle, CyclePacking, greedy_cycle_packing
from .graph import (
    Chain,
    Edge,
    GraphError,
    MultiGraph,
    Solution,
    Walk,
    _chains,
    _core,
    chain_decomposition,
    degree_classes,
    is_connected,
    verify_solution,
)
from .walks import split_into_k_walks


def find_chains(g: MultiGraph) -> list[Chain]:
    """All anchor-to-anchor chains; empty when the graph is a bare cycle.
    Anchors are visited in ascending order, so an open chain has u < v."""
    return [c for c in chain_decomposition(g) if not c.ring]


def _parallel_groups(chains: list[Chain]) -> dict[tuple[int, int], list[Chain]]:
    """Open chains grouped by their anchor pair, each group ordered by its
    first edge id."""
    groups: dict[tuple[int, int], list[Chain]] = {}
    for c in sorted(chains, key=lambda c: c.edges[0]):
        if c.u != c.v:
            groups.setdefault((c.u, c.v), []).append(c)
    return groups


@dataclass(frozen=True)
class ExpansionMap:
    """How each kernel edge expands into a degree-2 chain of original edges.

    Each expansion list is oriented from the kernel edge's u endpoint; the
    lists partition the original edge set.  vertex_to_original translates
    kernel vertex indices after isolated-vertex compaction.
    """

    original: MultiGraph
    kernel: MultiGraph
    expansions: dict[int, tuple[int, ...]]
    vertex_to_original: dict[int, int]

    def validate(self) -> None:
        seen: list[int] = []
        for ke in self.kernel.edges:
            ids = self.expansions[ke.id]
            seen.extend(ids)
            verts = _chain_vertices(self.original, ids, self.vertex_to_original[ke.u])
            if verts[-1] != self.vertex_to_original[ke.v]:
                raise GraphError(f"expansion of kernel edge {ke.id} does not reach its v endpoint")
            if sum(self.original.edge(i).weight for i in ids) != ke.weight:
                raise GraphError(f"expansion of kernel edge {ke.id} has wrong total weight")
        if sorted(seen) != sorted(self.original.edge_by_id):
            raise GraphError("expansions do not partition the original edge set")


def _chain_vertices(g: MultiGraph, ids: tuple[int, ...], start: int) -> list[int]:
    verts = [start]
    cur = start
    for eid in ids:
        cur = g.edge(eid).other(cur)
        verts.append(cur)
    return verts


def apply_reduction_rule(g: MultiGraph, k: int) -> tuple[MultiGraph, ExpansionMap]:
    """Shorten, in one pass, every chain with more than k internal vertices
    to k+1 segments, and a bare cycle with more than k+2 vertices to a ring
    of k+2 segments; each segment becomes one edge of summed weight.

    The minimum-weight edge g.min_weight_edge() always stays a segment of
    its own, so the minimum edge weight is unchanged.  When it lies strictly
    inside a chain and k = 1, that chain keeps 2 internal vertices.
    Bypassed vertices stay as isolated indices.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    min_id = g.min_weight_edge().id if g.edges else None
    next_id = g.max_edge_id() + 1
    expansions: dict[int, tuple[int, ...]] = {e.id: (e.id,) for e in g.edges}
    merged: list[Edge] = []
    for c in chain_decomposition(g):
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
            weight = sum(g.edge(eid).weight for eid in ids[lo:hi])
            merged.append(Edge(next_id, verts[lo], verts[hi], weight))
            expansions[next_id] = ids[lo:hi]
            next_id += 1
            for eid in ids[lo:hi]:
                del expansions[eid]
    kept = tuple(e for e in g.edges if e.id in expansions)
    work = MultiGraph(g.vertex_count, kept + tuple(merged))
    return work, ExpansionMap(
        original=g,
        kernel=work,
        expansions=expansions,
        vertex_to_original={v: v for v in work.vertices()},
    )


def _two_cycle(e: Edge) -> Cycle:
    return Cycle((e.u, e.v), (e.id, e.id))


def pendant_shortcut(
    g: MultiGraph, k: int, cpp: CppSolution | None = None
) -> Solution | None:
    """The paper's pendant rule: with at least k distinct pendant edges, the
    optimal single-walk cover splits into k walks.  A guard over
    packing_shortcut, which kernelize runs instead: a pendant vertex has odd
    degree, so its edge lies in every T-join; the join then has at least k
    edges, and the shortcut's 2-cycles on them fire first."""
    if len({g.adjacency[v][0].id for v in degree_classes(g).v1}) < k:
        return None
    return packing_shortcut(g, k, cpp)


def _stripped_core_cycles(g: MultiGraph, k: int) -> list[Cycle]:
    """Greedy cycles of the 2-core of g with each degree-2 chain counted as
    one edge, mapped back to cycles of g.  Loop chains and rings are cycles
    as they are; the greedy runs on the open chains."""
    chains = _chains(_core(g.edges))
    out = [Cycle(c.vertices[:-1], c.edges) for c in chains if c.u == c.v]
    open_chains = [c for c in chains if c.u != c.v]
    if len(out) >= k or not open_chains:
        return out
    core = MultiGraph(
        g.vertex_count,
        tuple(Edge(i, c.u, c.v, c.weight) for i, c in enumerate(open_chains, start=1)),
    )
    for cyc in greedy_cycle_packing(Multiplicities.uniform(core), k - len(out)).cycles:
        verts: list[int] = []
        ids: list[int] = []
        for frm, eid in zip(cyc.vertices, cyc.edges):
            vs, es = open_chains[eid - 1].walk_from(frm)
            verts.extend(vs[:-1])
            ids.extend(es)
        out.append(Cycle(tuple(verts), tuple(ids)))
    return out


def packing_shortcut(
    g: MultiGraph, k: int, cpp: CppSolution | None = None
) -> Solution | None:
    """Try to certify k disjoint cycles in the optimal cover's multigraph:
    a 2-cycle on each of the first k duplicated join edges, then greedy on
    what remains, then greedy on the degree-stripped core of g.  Fires at
    the single-walk optimum whenever k cycles are found."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if cpp is None:
        cpp = solve_cpp(g)
    m = cpp.multiplicities
    cycles: list[Cycle] = [_two_cycle(g.edge(eid)) for eid in sorted(cpp.join)[:k]]
    if len(cycles) == k:
        return split_into_k_walks(m, CyclePacking(tuple(cycles)))
    residual = m.without(CyclePacking(tuple(cycles)).edge_multiset())
    cycles.extend(greedy_cycle_packing(residual, k - len(cycles)).cycles)
    if len(cycles) >= k:
        return split_into_k_walks(m, CyclePacking(tuple(cycles[:k])))
    core_cycles = _stripped_core_cycles(g, k)
    if len(core_cycles) >= k:
        return split_into_k_walks(m, CyclePacking(tuple(core_cycles[:k])))
    return None


def parallel_edge_shortcut(chains: list[Chain], k: int) -> CyclePacking | None:
    """k disjoint cycles obtained by pairing up 2k parallel chains of
    find_chains, from the lowest anchor pair that has that many.  kernelize
    does not call this rule: the reduction keeps every anchor, so the
    packing shortcut on the input has already found k cycles."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    groups = _parallel_groups(chains)
    for key in sorted(groups):
        group = groups[key]
        if len(group) < 2 * k:
            continue
        cycles = []
        for c1, c2 in zip(group[0 : 2 * k : 2], group[1 : 2 * k : 2]):
            there, back = c1.walk_from(c1.u), c2.walk_from(c1.v)
            cycles.append(Cycle(there[0][:-1] + back[0][:-1], there[1] + back[1]))
        return CyclePacking(tuple(cycles))
    return None


@dataclass(frozen=True)
class KernelReport:
    """Degree classes and chain sizes of the graph kernelize solved or
    returned; see kernel_report."""

    k: int
    fired: str | None
    v1: int
    v2: int
    v3plus: int
    bare_cycle: bool
    h_edges: int | None
    max_parallel: int | None
    max_chain_internal: int
    blocked_chains: int
    dropped_vertices: int

    def lines(self) -> list[str]:
        """One key=value line in field order; an absent count prints as '-'."""
        shown = {**asdict(self), "fired": self.fired or "none", "bare_cycle": int(self.bare_cycle)}
        return [" ".join(f"{key}={'-' if val is None else val}" for key, val in shown.items())]


@dataclass(frozen=True)
class Solved:
    solution: Solution
    cpp_weight: int


@dataclass(frozen=True)
class Reduced:
    expansion: ExpansionMap
    k: int
    cpp_weight: int

    @property
    def kernel(self) -> MultiGraph:
        return self.expansion.kernel


KernelOutcome = Solved | Reduced


def _compact(em: ExpansionMap) -> ExpansionMap:
    """Drop isolated vertices and renumber vertices/edges for emission."""
    work = em.kernel
    live = sorted(v for v in work.vertices() if work.degree(v) > 0)
    old_to_new = {v: i + 1 for i, v in enumerate(live)}
    new_edges = []
    expansions = {}
    for new_id, e in enumerate(sorted(work.edges, key=lambda e: e.id), start=1):
        new_edges.append(Edge(new_id, old_to_new[e.u], old_to_new[e.v], e.weight))
        expansions[new_id] = em.expansions[e.id]
    kernel = MultiGraph(len(live), tuple(new_edges))
    vmap = {old_to_new[v]: em.vertex_to_original[v] for v in live}
    return ExpansionMap(em.original, kernel, expansions, vmap)


def kernelize(g: MultiGraph, k: int) -> KernelOutcome:
    """Run the pipeline: the packing shortcut, at the single-walk optimum;
    if it does not fire, return the chain-reduced instance with an
    expansion map for the exact search."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    cpp = solve_cpp(g)  # raises for a graph without edges or not connected
    sol = packing_shortcut(g, k, cpp=cpp)
    if sol is not None:
        return Solved(sol, cpp.weight)
    _, em = apply_reduction_rule(g, k)
    return Reduced(_compact(em), k, cpp.weight)


def kernel_report(g: MultiGraph, outcome: KernelOutcome) -> KernelReport:
    """Measure what kernelize(g, k) returned: g itself when the shortcut
    solved it, the kernel when it reduced g.  h_edges and max_parallel are
    reported only for a kernel that is not a bare cycle."""
    if isinstance(outcome, Solved):
        measured, k, fired = g, len(outcome.solution.walks), "packing"
    else:
        measured, k, fired = outcome.kernel, outcome.k, None
    chains = find_chains(measured)
    dc = degree_classes(measured)
    bare = not chains
    max_internal = len(dc.v2) - 2 if bare else max(len(c.internal) for c in chains)
    h_edges = max_par = None
    if fired is None and not bare:
        sizes = [len(group) for group in _parallel_groups(chains).values()]
        h_edges, max_par = sum(sizes), max(sizes, default=0)
    return KernelReport(
        k=k,
        fired=fired,
        v1=len(dc.v1),
        v2=len(dc.v2),
        v3plus=len(dc.v3plus),
        bare_cycle=bare,
        h_edges=h_edges,
        max_parallel=max_par,
        max_chain_internal=max_internal,
        blocked_chains=sum(1 for c in chains if len(c.internal) > k),
        dropped_vertices=g.vertex_count - measured.vertex_count,
    )


def lift_solution(em: ExpansionMap, s: Solution) -> Solution:
    """Replace every kernel-edge traversal by its oriented original chain."""
    verify_solution(em.kernel, len(s.walks), s)
    lifted = []
    for walk in s.walks:
        steps: list[tuple[int, int]] = []
        r = len(walk.steps)
        for i, (v, eid) in enumerate(walk.steps):
            rec = em.kernel.edge(eid)
            ids = em.expansions.get(eid)
            if ids is None:
                raise GraphError(f"no expansion recorded for kernel edge {eid}")
            oriented = ids if v == rec.u else tuple(reversed(ids))
            cur = em.vertex_to_original[v]
            for oid in oriented:
                steps.append((cur, oid))
                cur = em.original.edge(oid).other(cur)
            nxt = walk.steps[(i + 1) % r][0]
            if cur != em.vertex_to_original[nxt]:
                raise GraphError(f"expansion of edge {eid} does not reconnect the walk")
        lifted.append(tuple(steps))
    walks = tuple(Walk(st) for st in lifted)
    total = sum(w.weight(em.original) for w in walks)
    if total != s.total_weight:
        raise GraphError(f"lift changed total weight {s.total_weight} -> {total}")
    return Solution(walks, total)
