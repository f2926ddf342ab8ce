"""Top-level k-walk solving: the exact search for kernels, the full
pipeline, and the unrestricted brute-force oracle.

The exact search rests on two facts.  Along a chain of degree-2 vertices a
duplication set takes all edges or none, so the duplication sets that make
every degree even are the T-joins of the chain graph H, whose vertices are
the anchors, whose edges are the chains, and whose T is the odd vertices.
Extra traversals beyond two are only ever placed on one fixed
minimum-weight edge, in pairs; each pair buys exactly one more
edge-disjoint cycle.

The even sets are walked through H's cycle space (Edmonds-Johnson 1973).
Fix a minimum spanning forest of H: every even set is the forest's T-join
XOR the fundamental cycles of exactly one subset F of the cotree chains,
and it contains F, so w(F) bounds its weight from below.  The CPP join,
the lightest even set, is evaluated first as the incumbent; then the
subsets F are drawn lazily from a heap in increasing w(F) until no later
set can beat the incumbent.  A set is skipped without a packing when its
weight plus the pairs its cycle rank forces already reaches the incumbent.
The oracle enumerates raw multiplicity vectors instead and knows nothing
of either restriction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .cpp import Multiplicities, _join, odd_vertices
from .cycles import Cycle, CyclePacking, PackingSearch, greedy_cycle_packing
from .graph import (
    Chain,
    GraphError,
    MultiGraph,
    SearchBudgetExceeded,
    Solution,
    chain_decomposition,
    is_connected,
)
from .kernel import KernelReport, Reduced, Solved, kernelize, lift_solution
from .walks import split_into_k_walks

MAX_SEARCH_CHAINS = 24
# even duplication sets one kernel search may visit: the seeded workloads
# visit at most 20, random 16-vertex, 24-edge kernels at most about 460
MAX_SEARCH_SETS = 1000
ORACLE_MAX_EDGES = 8
ORACLE_MAX_K = 3


@dataclass(frozen=True)
class KcppResult:
    solution: Solution
    weight: int
    cpp_weight: int
    method: str
    decision: bool | None
    # always None: solve_kcpp measures no kernel report (kernel_report does,
    # on request); kept only because perfbench/tracer.py reads it
    report: KernelReport | None


def _cycle_space(chains: list[Chain]) -> tuple[int, list[tuple[int, int]]]:
    """H's even sets as chain bitmasks: the T-join of a minimum spanning
    forest of H, and the (weight, fundamental cycle) of each cotree chain,
    lightest first.  Loop chains and rings are always cotree."""
    root: dict[int, int] = {}

    def find(x: int) -> int:
        while root.setdefault(x, x) != x:
            root[x] = x = root[root[x]]
        return x

    tree: dict[int, list[tuple[int, int]]] = {}
    cotree = []
    for i in sorted(range(len(chains)), key=lambda i: (chains[i].weight, i)):
        c = chains[i]
        a, b = find(c.u), find(c.v)
        if a == b:
            cotree.append(i)
        else:
            root[a] = b
            tree.setdefault(c.u, []).append((i, c.v))
            tree.setdefault(c.v, []).append((i, c.u))
    up: dict[int, int] = {}  # anchor -> forest chains on its path to the root
    for c in chains:
        if c.u not in up:
            up[c.u] = 0
            stack = [c.u]
            while stack:
                x = stack.pop()
                for i, y in tree.get(x, ()):
                    if y not in up:
                        up[y] = up[x] | (1 << i)
                        stack.append(y)
    # the forest's T-join is the XOR of up[v] over the odd anchors v, and
    # every chain flips the parity of both of its ends
    join = 0
    for c in chains:
        join ^= up[c.u] ^ up[c.v]
    return join, [
        (chains[i].weight, (1 << i) ^ up[chains[i].u] ^ up[chains[i].v]) for i in cotree
    ]


def solve_kcpp_exact(g: MultiGraph, k: int) -> Solution:
    """Exact optimum over the even duplication sets of whole chains plus
    extra pairs on the fixed minimum-weight edge.

    The sets are visited in cycle-space order after the CPP join (see the
    module docstring).  A set's cycle count comes from a greedy packing,
    and, when that falls short of k and the missing cycles cost something,
    from the exhaustive packing search over the simple graph that greedy's
    2-cycles leave.  The winner's packing, padded with 2-cycles on the
    minimum-weight edge, is split into the k walks.  Raises
    SearchBudgetExceeded on more than MAX_SEARCH_CHAINS chains or
    MAX_SEARCH_SETS visited sets.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if not g.edges:
        raise GraphError("graph has no edges")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    chains = sorted(chain_decomposition(g), key=lambda c: c.edges[0])
    if len(chains) > MAX_SEARCH_CHAINS:
        raise SearchBudgetExceeded(
            f"search budget exceeded: {len(chains)} chains > {MAX_SEARCH_CHAINS}"
        )
    base = g.total_weight()
    e_min = g.min_weight_edge()
    mu = e_min.weight
    vertices = sum(1 for es in g.adjacency.values() if es)
    searcher = PackingSearch(g)

    def doubled(s: int) -> tuple[int, int]:
        """Weight and edge count of the chains in s."""
        w = n = 0
        for i, c in enumerate(chains):
            if s >> i & 1:
                w += c.weight
                n += len(c.edges)
        return w, n

    def evaluate(s: int, w: int) -> tuple[int, dict[int, int], list[Cycle]]:
        """(cost, counts, at most k disjoint cycles) of the chains in s
        doubled, the cycles it lacks paid as pairs on e_min."""
        counts = dict.fromkeys(g.edge_by_id, 1)
        for i, c in enumerate(chains):
            if s >> i & 1:
                counts.update(dict.fromkeys(c.edges, 2))
        cycles = list(greedy_cycle_packing(Multiplicities(g, counts), k).cycles)
        if len(cycles) < k and mu:
            # greedy takes every 2-cycle first, and some maximum packing
            # holds each of them, so only the simple rest needs the search
            pairs = [c for c in cycles if len(c) == 2]
            rest = dict(counts)
            for c in pairs:
                for eid in c.edges:
                    rest[eid] -= 1
            got, found = searcher.run(rest, k - len(pairs))
            if len(pairs) + got > len(cycles):
                cycles = pairs + list(found)
        return base + w + 2 * mu * (k - len(cycles)), counts, cycles

    # every odd vertex of g is an anchor, so the CPP join is whole chains
    chain_of = {eid: i for i, c in enumerate(chains) for eid in c.edges}
    join = _join(g, sorted(odd_vertices(g)))
    j0 = 0
    for eid in join:
        j0 |= 1 << chain_of[eid]
    w0, n0 = doubled(j0)
    assert n0 == len(join), "the CPP join splits a chain"
    best = evaluate(j0, w0)

    start, cotree = _cycle_space(chains)
    heap = [(0, -1, start)]  # (w(F), last cotree index in F, even set of F)
    visited = 0
    while heap:
        w_f, last, s = heapq.heappop(heap)
        if base + max(w_f, w0) >= best[0]:
            break
        visited += 1
        if visited > MAX_SEARCH_SETS:
            raise SearchBudgetExceeded(
                f"search budget exceeded: more than {MAX_SEARCH_SETS} even duplication sets"
            )
        # successors: add the next cotree chain, or swap the last for it
        nxt = last + 1
        if nxt < len(cotree):
            w_next, cycle_next = cotree[nxt]
            heapq.heappush(heap, (w_f + w_next, nxt, s ^ cycle_next))
            if last >= 0:
                w_last, cycle_last = cotree[last]
                heapq.heappush(heap, (w_f - w_last + w_next, nxt, s ^ cycle_last ^ cycle_next))
        if s == j0:
            continue
        w, n = doubled(s)
        copies = len(g.edges) + n
        rank = min(copies // 2, copies - vertices + 1)  # bounds the cycles packed
        if base + w + 2 * mu * max(0, k - rank) >= best[0]:
            continue
        cand = evaluate(s, w)
        if cand[0] < best[0]:
            best = cand

    cost, counts, cycles = best
    cycles = cycles[:k]
    t = k - len(cycles)
    counts[e_min.id] += 2 * t
    cycles += [Cycle((e_min.u, e_min.v), (e_min.id, e_min.id))] * t
    solution = split_into_k_walks(Multiplicities.cover(g, counts), CyclePacking(tuple(cycles)))
    assert solution.total_weight == cost
    return solution


def solve_kcpp(g: MultiGraph, k: int, p: int | None = None) -> KcppResult:
    """Kernelize; solve the kernel exactly if no shortcut fired; lift back.

    With a budget p the result also carries the decision weight <= p.
    """
    outcome = kernelize(g, k)
    if isinstance(outcome, Solved):
        sol = outcome.solution
        method = "packing"
    else:
        assert isinstance(outcome, Reduced)
        kernel_solution = solve_kcpp_exact(outcome.kernel, k)
        sol = lift_solution(outcome.expansion, kernel_solution)
        method = "kernel"
    decision = None if p is None else sol.total_weight <= p
    return KcppResult(sol, sol.total_weight, outcome.cpp_weight, method, decision, None)


def oracle_kcpp(g: MultiGraph, k: int) -> int:
    """Brute-force optimum: enumerate per-edge traversal counts up to 2k+2
    in increasing added weight; a vector is feasible iff all degrees are
    even and the exhaustive packing search finds k disjoint cycles.  No
    structural restriction on where extra copies go.  Raises
    SearchBudgetExceeded above ORACLE_MAX_EDGES edges or ORACLE_MAX_K.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if k > ORACLE_MAX_K:
        raise SearchBudgetExceeded(f"search budget exceeded: k = {k} > {ORACLE_MAX_K}")
    if len(g.edges) > ORACLE_MAX_EDGES:
        raise SearchBudgetExceeded(
            f"search budget exceeded: {len(g.edges)} edges > {ORACLE_MAX_EDGES}"
        )
    if not g.edges:
        raise GraphError("graph has no edges")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    cap = 2 * k + 2

    zero = [e for e in g.edges if e.weight == 0]
    pos = [e for e in g.edges if e.weight > 0]
    searcher = PackingSearch(g)

    # cost-free edges: only the count parity matters for degree parity, and
    # raising a count by two can never lose a packing, so only the largest
    # count of each parity within the cap needs trying
    zero_options = (cap - 1, cap)

    def feasible(counts: dict[int, int]) -> bool:
        for v in g.vertices():
            if sum(counts[e.id] for e in g.adjacency[v]) % 2 != 0:
                return False
        got, _ = searcher.run(counts, k)
        return got >= k

    def zero_assignments(base: dict[int, int]):
        def rec(i: int, acc: dict[int, int]):
            if i == len(zero):
                yield acc
                return
            for c in zero_options:
                nxt = dict(acc)
                nxt[zero[i].id] = c
                yield from rec(i + 1, nxt)

        yield from rec(0, base)

    suffix_max = [0] * (len(pos) + 1)
    for i in range(len(pos) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + (cap - 1) * pos[i].weight

    def pos_vectors(budget: int):
        def rec(i: int, rem: int, acc: dict[int, int]):
            if i == len(pos):
                if rem == 0:
                    yield acc
                return
            w = pos[i].weight
            for c in range(1, cap + 1):
                add = (c - 1) * w
                if add > rem:
                    break
                if rem - add > suffix_max[i + 1]:
                    continue
                nxt = dict(acc)
                nxt[pos[i].id] = c
                yield from rec(i + 1, rem - add, nxt)

        yield from rec(0, budget, {})

    base_weight = g.total_weight()
    for budget in range(0, suffix_max[0] + 1):
        for vec in pos_vectors(budget):
            for counts in zero_assignments(vec):
                if feasible(counts):
                    return base_weight + budget
    raise GraphError(f"no feasible multiplicity vector under cap {cap}")
