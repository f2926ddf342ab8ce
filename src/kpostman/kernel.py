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
from .cycles import _chain_cycle, cycle_rank_bound, greedy_cycle_packing
from .graph import (
    Chain,
    Edge,
    GraphError,
    MultiGraph,
    Solution,
    Walk,
    _CoreCut,
    degree_classes,
    verify_solution,
)
from .walks import split_into_k_walks


def find_chains(g: MultiGraph) -> list[Chain]:
    """All anchor-to-anchor chains; empty when the graph is a bare cycle.
    Anchors are visited in ascending order, so an open chain has u < v."""
    return [c for c in g.chains if not c.ring]


def _parallel_groups(chains: list[Chain]) -> dict[tuple[int, int], list[Chain]]:
    """Open chains grouped by their anchor pair, each group in cut order."""
    groups: dict[tuple[int, int], list[Chain]] = {}
    for c in chains:
        if c.u != c.v:
            groups.setdefault((c.u, c.v), []).append(c)
    return groups


@dataclass(frozen=True)
class ExpansionMap:
    """How each kernel edge expands into a degree-2 chain of original edges.

    The kernel uses the original's vertex labels, and is the original
    itself when the reduction shortened nothing.  Each expansion list is
    oriented from the kernel edge's u endpoint; the lists partition the
    original edge set.
    """

    original: MultiGraph
    kernel: MultiGraph
    expansions: dict[int, tuple[int, ...]]

    def validate(self) -> None:
        seen: list[int] = []
        for ke in self.kernel.edges:
            ids = self.expansions.get(ke.id)
            if ids is None:
                raise GraphError(f"no expansion recorded for kernel edge {ke.id}")
            seen.extend(ids)
            end = ke.u  # walk the expansion; other() raises if it breaks
            for eid in ids:
                end = self.original.edge(eid).other(end)
            if end != ke.v:
                raise GraphError(f"expansion of kernel edge {ke.id} does not reach its v endpoint")
            if sum(self.original.edge(i).weight for i in ids) != ke.weight:
                raise GraphError(f"expansion of kernel edge {ke.id} has wrong total weight")
        if sorted(seen) != sorted(self.original.edge_by_id):
            raise GraphError("expansions do not partition the original edge set")


def apply_reduction_rule(g: MultiGraph, k: int) -> ExpansionMap:
    """Shorten, in one pass, every chain with more than k internal vertices
    to k+1 segments, and a bare cycle with more than k+2 vertices to a ring
    of k+2 segments; each segment becomes one edge of summed weight.

    The minimum-weight edge g.min_weight_edge() always stays a segment of
    its own, so the minimum edge weight is unchanged.  When it lies strictly
    inside a chain and k = 1, that chain keeps 2 internal vertices.
    The kernel keeps g's vertex labels and header n; a bypassed vertex has
    no edge in it.  The kernel's edges are those of g that no segment
    merged, in the order of g.edges and with their ids, then the merged
    segments in chain order, with ids from g.max_edge_id() + 1 on.  When
    no chain is that long, g is its own kernel (kernel is g, every edge
    expanding to itself), so the search reads the adjacency, chain cut and
    CPP join that g has already cached.  The rule works chain by chain and
    does not check connectivity; kernelize has checked g.

    A shortened chain costs O(k) Python-level work beside C-level slices
    and scans of its edge ids: its last merged segment weighs the cut's
    c.weight less the at most k+2 single edges of the chain.  Only the
    chain holding the minimum-weight edge can have a merged segment before
    that edge, which is summed edge by edge.  expansions holds the kernel's
    edges only; the kept ones are picked in one pass over g.edges.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    min_id = g.min_weight_edge().id if g.edges else None
    next_id = g.max_edge_id() + 1
    edge_by_id = g.edge_by_id
    merged: list[Edge] = []
    spanned: dict[int, tuple[int, ...]] = {}  # expansion per merged segment
    merged_ids: set[int] = set()
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
        segments = list(zip(bounds, bounds[1:]))
        spans = [(lo, hi) for lo, hi in segments if hi - lo > 1]
        # the chain's weight less its single edges; the last span takes
        # what the spans before it leave of that
        rest = c.weight - sum(edge_by_id[ids[lo]].weight for lo, hi in segments if hi - lo == 1)
        for n, (lo, hi) in enumerate(spans, start=1):
            seg = ids[lo:hi]
            weight = rest if n == len(spans) else sum(edge_by_id[eid].weight for eid in seg)
            rest -= weight
            merged.append(Edge(next_id, verts[lo], verts[hi], weight))
            spanned[next_id] = seg
            merged_ids.update(seg)
            next_id += 1
    if not merged:
        return ExpansionMap(g, g, {e.id: (e.id,) for e in g.edges})
    kept = tuple(e for e in g.edges if e.id not in merged_ids)
    expansions = {e.id: (e.id,) for e in kept}
    expansions.update(spanned)
    return ExpansionMap(
        original=g,
        kernel=MultiGraph(g.vertex_count, kept + tuple(merged)),
        expansions=expansions,
    )


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


def _stripped_core_cycles(g: MultiGraph, k: int) -> list[Walk]:
    """Greedy cycles of the 2-core of g with each degree-2 chain counted as
    one edge, mapped back to cycles of g.  Loop chains and rings are cycles
    as they are; the greedy runs on the open chains."""
    chains = _CoreCut(g).chains
    out = [_chain_cycle(c.u, [c]) for c in chains if c.u == c.v]
    open_chains = [c for c in chains if c.u != c.v]
    if len(out) >= k or not open_chains:
        return out
    core = MultiGraph(
        g.vertex_count,
        tuple(Edge(i, c.u, c.v, c.weight) for i, c in enumerate(open_chains, start=1)),
    )
    for cyc in greedy_cycle_packing(Multiplicities.uniform(core), k - len(out)):
        out.append(_chain_cycle(cyc.steps[0][0], [open_chains[eid - 1] for _, eid in cyc.steps]))
    return out


def packing_shortcut(
    g: MultiGraph, k: int, cpp: CppSolution | None = None
) -> Solution | None:
    """Try to certify k disjoint cycles in the optimal cover's multigraph,
    in one list: a 2-cycle on each of the first k join edges, then greedy
    on the edges outside the join, one copy each, or if that is short,
    greedy on the degree-stripped core of g.  Fires at the single-walk
    optimum whenever k cycles are found.

    Both guards are exact.  No cycle work runs when k exceeds the cover's
    cycle_rank_bound (copies |E(g)| + |join| on the vertices of g with an
    edge), since every list is edge-disjoint cycles of the connected
    cover; the stripped core runs only within g's own cycle_rank_bound,
    since its cycles are edge-disjoint cycles of the connected g."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if cpp is None:
        cpp = solve_cpp(g)
    if k > cycle_rank_bound(len(g.edges) + len(cpp.join), len(g.adjacency)):
        return None
    cycles = [Walk(((e.u, e.id), (e.v, e.id))) for e in map(g.edge, sorted(cpp.join)[:k])]
    if len(cycles) < k:
        rest = Multiplicities(g, {e.id: 1 for e in g.edges if e.id not in cpp.join})
        cycles += greedy_cycle_packing(rest, k - len(cycles))
    if len(cycles) < k and k <= cycle_rank_bound(len(g.edges), len(g.adjacency)):
        cycles = _stripped_core_cycles(g, k)
    if len(cycles) < k:
        return None
    return split_into_k_walks(cpp.multiplicities, cycles[:k])


def parallel_edge_shortcut(chains: list[Chain], k: int) -> tuple[Walk, ...] | None:
    """k disjoint cycles obtained by pairing up 2k parallel chains of
    find_chains in cut order, from the lowest anchor pair that has that
    many.  kernelize does not call this rule: the reduction keeps every
    anchor, so the packing shortcut on the input has already found k
    cycles."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    groups = _parallel_groups(chains)
    for key in sorted(groups):
        group = groups[key]
        if len(group) < 2 * k:
            continue
        pairs = zip(group[0 : 2 * k : 2], group[1 : 2 * k : 2])
        return tuple(_chain_cycle(key[0], pair) for pair in pairs)
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


def kernelize(g: MultiGraph, k: int) -> KernelOutcome:
    """Run the pipeline: the packing shortcut, at the single-walk optimum;
    if it does not fire, return the chain-reduced instance
    (apply_reduction_rule) with its expansion map for the exact search."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    cpp = solve_cpp(g)  # raises for a graph without edges or not connected
    sol = packing_shortcut(g, k, cpp=cpp)
    if sol is not None:
        return Solved(sol, cpp.weight)
    return Reduced(apply_reduction_rule(g, k), k, cpp.weight)


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
        dropped_vertices=len(g.adjacency) - len(measured.adjacency),
    )


def lift_solution(em: ExpansionMap, s: Solution) -> Solution:
    """Replace every kernel-edge traversal by its oriented original chain.
    A kernel that is the input itself expands every edge to itself, so its
    solution is returned as it is, once verified."""
    verify_solution(em.kernel, len(s.walks), s)
    if em.kernel is em.original:
        return s
    kernel_edges = em.kernel.edge_by_id
    original_edges = em.original.edge_by_id
    walks = []
    total = 0
    for walk in s.walks:
        steps: list[tuple[int, int]] = []
        r = len(walk.steps)
        for i, (v, eid) in enumerate(walk.steps):
            ids = em.expansions.get(eid)
            if ids is None:
                raise GraphError(f"no expansion recorded for kernel edge {eid}")
            oriented = ids if v == kernel_edges[eid].u else ids[::-1]
            cur = v
            for oid in oriented:
                steps.append((cur, oid))
                _, a, b, w = original_edges[oid]
                cur = a + b - cur  # the other end
                total += w
            if cur != walk.steps[(i + 1) % r][0]:
                raise GraphError(f"expansion of edge {eid} does not reconnect the walk")
        walks.append(Walk(tuple(steps)))
    if total != s.total_weight:
        raise GraphError(f"lift changed total weight {s.total_weight} -> {total}")
    return Solution(tuple(walks), total)
