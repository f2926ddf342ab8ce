"""Top-level k-walk solving: the restricted exact search for kernels, the
full pipeline, and the unrestricted brute-force oracle.

The exact search exploits a parity fact: along a path of degree-2 vertices a
duplication set must take all edges or none, so duplication candidates are
unions of whole chains.  Extra traversals beyond two are only ever placed on
one fixed minimum-weight edge, in pairs; each pair buys exactly one more
edge-disjoint cycle.  The oracle enumerates raw multiplicity vectors instead
and knows nothing of either restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cpp import Multiplicities
from .cycles import CyclePacking, PackingSearch, greedy_cycle_packing
from .graph import GraphError, MultiGraph, Solution, chain_decomposition, is_connected
from .kernel import KernelReport, Reduced, Solved, kernelize, lift_solution
from .walks import split_into_k_walks

MAX_SEARCH_CHAINS = 16
ORACLE_MAX_EDGES = 8
ORACLE_MAX_K = 3


@dataclass(frozen=True)
class KcppResult:
    solution: Solution
    weight: int
    cpp_weight: int
    method: str
    decision: bool | None
    report: KernelReport | None


@dataclass(frozen=True)
class RestrictedDuplication:
    """A duplication candidate: doubled edges plus extra pairs on e_min.

    Realizes multiplicity 1 + [e in double_set] + 2*extra_pairs*[e == e_min].
    """

    double_set: tuple[int, ...]
    extra_pairs: int
    e_min: int

    def counts(self, g: MultiGraph) -> dict[int, int]:
        doubled = set(self.double_set)
        counts = {e.id: (2 if e.id in doubled else 1) for e in g.edges}
        counts[self.e_min] += 2 * self.extra_pairs
        return counts


def _chain_candidates(g: MultiGraph) -> list[tuple[int, ...]]:
    """Edge-id groups that duplication sets are composed of: the maximal
    degree-2 chains, or the whole edge set when the graph is a bare cycle."""
    return [c.edges for c in sorted(chain_decomposition(g), key=lambda c: c.edges[0])]


def _parity_ok(g: MultiGraph, double_ids: set[int]) -> bool:
    for v in g.vertices():
        flips = sum(1 for e in g.adjacency[v] if e.id in double_ids)
        if (g.degree(v) + flips) % 2 != 0:
            return False
    return True


def solve_kcpp_exact(g: MultiGraph, k: int) -> Solution:
    """Exact optimum by searching duplication sets over whole chains plus
    extra pairs on the fixed minimum-weight edge; feasibility of a candidate
    is certified by greedy packing with an exhaustive fallback."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if not g.edges:
        raise GraphError("graph has no edges")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    groups = _chain_candidates(g)
    if len(groups) > MAX_SEARCH_CHAINS:
        raise GraphError(
            f"search budget exceeded: {len(groups)} chains > {MAX_SEARCH_CHAINS}"
        )
    base_weight = g.total_weight()
    e_min = g.min_weight_edge()
    mu = e_min.weight
    weight_of = {ids: sum(g.edge(i).weight for i in ids) for ids in groups}

    candidates = []
    for size in range(len(groups) + 1):
        for combo in combinations(range(len(groups)), size):
            ids: set[int] = set()
            for gi in combo:
                ids.update(groups[gi])
            if _parity_ok(g, ids):
                w = sum(weight_of[groups[gi]] for gi in combo)
                candidates.append((w, tuple(sorted(ids))))
    candidates.sort()
    if not candidates:
        raise GraphError("no even duplication set exists; graph is disconnected?")

    searcher = PackingSearch(g)
    best: tuple[int, int, tuple[int, ...]] | None = None  # (cost, t, double ids)
    for w_s, ids in candidates:
        if best is not None and base_weight + w_s > best[0]:
            break
        counts = {e.id: (2 if e.id in ids else 1) for e in g.edges}
        packed = len(greedy_cycle_packing(Multiplicities(g, counts), k))
        if packed < k:
            packed, _ = searcher.run(counts, k)
        t = max(0, k - packed)
        assert t <= k
        cost = base_weight + w_s + 2 * t * mu
        cand = (cost, t, ids)
        if best is None or cand < best:
            best = cand
    assert best is not None
    cost, t, ids = best
    chosen = RestrictedDuplication(ids, t, e_min.id)
    counts = chosen.counts(g)
    m = Multiplicities.cover(g, counts)
    packing = greedy_cycle_packing(m, k)
    if len(packing) < k:
        got, cycles = searcher.run(counts, k)
        assert got >= k
        packing = CyclePacking(cycles[:k])
    else:
        packing = CyclePacking(packing.cycles[:k])
    solution = split_into_k_walks(m, packing)
    assert solution.total_weight == cost
    return solution


def solve_kcpp(g: MultiGraph, k: int, p: int | None = None) -> KcppResult:
    """Kernelize; solve the kernel exactly if no shortcut fired; lift back.

    With a budget p the result also carries the decision weight <= p.
    """
    outcome = kernelize(g, k)
    if isinstance(outcome, Solved):
        sol = outcome.solution
        method = outcome.method
    else:
        assert isinstance(outcome, Reduced)
        kernel_solution = solve_kcpp_exact(outcome.kernel, k)
        sol = lift_solution(outcome.expansion, kernel_solution)
        method = "kernel"
    decision = None if p is None else sol.total_weight <= p
    return KcppResult(
        sol, sol.total_weight, outcome.cpp_weight, method, decision, outcome.report
    )


def oracle_kcpp(g: MultiGraph, k: int, mult_cap: int | None = None) -> int:
    """Brute-force optimum: enumerate per-edge traversal counts in increasing
    added weight; a vector is feasible iff all degrees are even and the
    exhaustive packing search finds k disjoint cycles.  No structural
    restriction on where extra copies go.
    """
    if mult_cap is None:
        mult_cap = 2 * k + 2
    if k < 1 or k > ORACLE_MAX_K:
        raise GraphError(f"oracle gate: k must be in 1..{ORACLE_MAX_K}")
    if len(g.edges) > ORACLE_MAX_EDGES:
        raise GraphError(f"oracle gate: at most {ORACLE_MAX_EDGES} edges")
    if not g.edges:
        raise GraphError("graph has no edges")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if mult_cap < 1:
        raise GraphError("mult_cap must be >= 1")

    zero = [e for e in g.edges if e.weight == 0]
    pos = [e for e in g.edges if e.weight > 0]
    searcher = PackingSearch(g)

    # cost-free edges: only the count parity matters for degree parity, and
    # raising a count by two can never lose a packing, so only the largest
    # count of each parity within the cap needs trying
    zero_options: list[list[int]] = []
    for _ in zero:
        opts = [mult_cap if mult_cap % 2 == 1 else mult_cap - 1]
        if mult_cap >= 2:
            opts.append(mult_cap if mult_cap % 2 == 0 else mult_cap - 1)
        zero_options.append(sorted(opts))

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
            for c in zero_options[i]:
                nxt = dict(acc)
                nxt[zero[i].id] = c
                yield from rec(i + 1, nxt)

        yield from rec(0, base)

    suffix_max = [0] * (len(pos) + 1)
    for i in range(len(pos) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + (mult_cap - 1) * pos[i].weight

    def pos_vectors(budget: int):
        def rec(i: int, rem: int, acc: dict[int, int]):
            if i == len(pos):
                if rem == 0:
                    yield acc
                return
            w = pos[i].weight
            for c in range(1, mult_cap + 1):
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
    raise GraphError(f"no feasible multiplicity vector under cap {mult_cap}")
