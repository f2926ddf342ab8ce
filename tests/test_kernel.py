"""Kernel pipeline: shortcuts, reduction rule, chains, lifting."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from kpostman.cpp import solve_cpp
from kpostman.generators import (
    NAMED_BASES,
    cycle_graph,
    inflate_chains,
    named_graph,
    theta_graph,
    uniform_inflation,
)
from kpostman.graph import GraphError, MultiGraph, verify_solution
from kpostman.kernel import (
    Reduced,
    Solved,
    apply_reduction_rule,
    find_chains,
    kernel_report,
    kernelize,
    lift_solution,
    packing_shortcut,
    parallel_edge_shortcut,
    pendant_shortcut,
)
from kpostman.solve import MAX_SEARCH_CHAINS, oracle_kcpp, solve_kcpp, solve_kcpp_exact

from conftest import random_small_graphs


def dumbbell(chain_weights):
    """Two triangles joined by a chain with the given edge weights."""
    tri1 = [(1, 2, 5), (2, 3, 5), (3, 1, 5)]
    tri2 = [(4, 5, 5), (5, 6, 5), (6, 4, 5)]
    n = 6
    chain = []
    prev = 1
    for w in chain_weights[:-1]:
        n += 1
        chain.append((prev, n, w))
        prev = n
    chain.append((prev, 4, chain_weights[-1]))
    return MultiGraph.from_edges(n, tri1 + tri2 + chain)


@pytest.mark.parametrize(
    "shortcut, g",
    [
        (pendant_shortcut, named_graph("star3")),
        (packing_shortcut, named_graph("star3")),
        (lambda g, k: parallel_edge_shortcut(find_chains(g), k), theta_graph(4, 2)),
    ],
    ids=["pendant", "packing", "parallel-edge"],
)
@pytest.mark.parametrize("k", [0, -1])
def test_shortcuts_refuse_k_below_one(shortcut, g, k):
    with pytest.raises(GraphError, match=f"^k must be >= 1, got {k}$"):
        shortcut(g, k)


def test_pendant_star():
    g = named_graph("star3")
    sol = pendant_shortcut(g, 3)
    assert sol is not None and sol.total_weight == 6
    verify_solution(g, 3, sol)
    assert oracle_kcpp(g, 3) == 6


def test_pendant_triangle_none():
    assert pendant_shortcut(named_graph("triangle"), 2) is None


def test_pendant_path():
    g = named_graph("path2")
    sol = pendant_shortcut(g, 2)
    assert sol is not None and sol.total_weight == 4
    verify_solution(g, 2, sol)
    assert oracle_kcpp(g, 2) == 4


def test_pendant_single_edge_has_one_pendant_edge_only():
    # both endpoints are pendant but share the lone edge: no 2 disjoint 2-cycles
    assert pendant_shortcut(named_graph("single"), 2) is None


def test_packing_bowtie():
    g = named_graph("bowtie")
    sol = packing_shortcut(g, 2)
    assert sol is not None and sol.total_weight == 6
    verify_solution(g, 2, sol)
    assert oracle_kcpp(g, 2) == 6


def test_packing_falls_back_to_core_chain_cycles():
    # greedy on the cover finds fewer than 4 cycles; the triangle closed on
    # vertex 1 plus 3 cycles over the 2-core's chains, each counted as one
    # edge, make 4
    g = MultiGraph.from_edges(18, [
        (1, 5, 0), (5, 6, 2), (6, 2, 2), (2, 3, 0), (3, 7, 3), (7, 8, 3), (8, 4, 2),
        (1, 9, 3), (9, 10, 1), (10, 11, 3), (11, 3, 1), (5, 12, 0), (12, 13, 3),
        (13, 2, 0), (3, 1, 1), (2, 14, 1), (14, 15, 2), (15, 16, 0), (16, 1, 0), (4, 5, 0),
        (1, 17, 1), (17, 18, 1), (18, 1, 1),
    ])  # fmt: skip
    sol = packing_shortcut(g, 4)
    assert sol is not None
    assert verify_solution(g, 4, sol) == solve_cpp(g).weight


def test_core_chain_cycles_answer_above_the_chain_cap():
    # 4 copies of a square a-b-d-c sharing a = 1, each side once as an edge
    # and once as a 4-edge chain: greedy on the cover finds 2 cycles per
    # copy, the core's chains as edges pair up into 4, and the 32 chains
    # are more than the exact search takes
    triples = []
    n = 1
    for _ in range(4):
        a, b, c, d = 1, n + 1, n + 2, n + 3
        n += 3
        for x, y in ((a, b), (c, d), (a, c), (b, d)):
            triples.append((x, y, 1))
            path = [x, n + 1, n + 2, n + 3, y]
            n += 3
            triples.extend((p, q, 1) for p, q in zip(path, path[1:]))
    g = MultiGraph.from_edges(n, triples)
    assert len(g.edges) == 80 and len(find_chains(g)) > MAX_SEARCH_CHAINS
    res = solve_kcpp(g, 12)
    assert res.method == "packing" and res.weight == 80 == solve_cpp(g).weight


def test_packing_triangle_k2_none():
    assert packing_shortcut(named_graph("triangle"), 2) is None


def test_packing_k4_k3():
    g = named_graph("k4")
    sol = packing_shortcut(g, 3)
    assert sol is not None and sol.total_weight == 8
    verify_solution(g, 3, sol)
    assert oracle_kcpp(g, 3) == 8


def test_reduction_dumbbell_chain_shrinks():
    g = dumbbell([1] * 6)  # 5 internal chain vertices
    work, em = apply_reduction_rule(g, 3)
    em.validate()
    chains = [c for c in find_chains(work) if c.u != c.v]
    assert all(len(c.internal) <= 3 for c in chains)
    assert work.total_weight() == g.total_weight()


def test_reduction_triangle_unchanged():
    g = named_graph("triangle")
    work, em = apply_reduction_rule(g, 1)
    assert work.edges == g.edges
    em.validate()


def test_reduction_bare_cycle_keeps_zero_minimum():
    g = cycle_graph(10, [1] * 9 + [0])
    work, em = apply_reduction_rule(g, 2)
    em.validate()
    assert work.min_weight() == 0
    active = sum(1 for v in work.vertices() if work.degree(v) > 0)
    assert active == 4  # k + 2


def test_reduction_blocked_interior_uses_end_position():
    # unique minimum sits on the only interior pair; an end position is safe
    g = dumbbell([5, 1, 5, 5])
    work, em = apply_reduction_rule(g, 2)
    em.validate()
    assert work.min_weight() == 1
    chains = [c for c in find_chains(work) if c.u != c.v]
    assert all(len(c.internal) <= 2 for c in chains)


def test_reduction_min_weight_invariant_random():
    rng = random.Random(4)
    for core in random_small_graphs(seed=41, trials=40, max_n=4, max_m=5):
        seg = {e.id: [rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for e in core.edges}
        g = inflate_chains(core, seg)
        for k in (1, 2, 3):
            work, em = apply_reduction_rule(g, k)
            em.validate()
            assert work.min_weight() == g.min_weight()


def _reduction_bases():
    """Long rings and chain-inflated named bases; the minimum-weight edge sits
    at a chain end, strictly inside a chain, or on a ring."""
    yield cycle_graph(1000)
    yield cycle_graph(1000, [3] * 499 + [1] + [3] * 500)
    for name in NAMED_BASES:
        yield uniform_inflation(named_graph(name), 12)
        seg = {e.id: [3] * 12 for e in named_graph(name).edges}
        seg[1][5] = 1
        yield inflate_chains(named_graph(name), seg)


def test_reduction_one_pass_bounds():
    interior_min_kept = 0
    for g in _reduction_bases():
        active = sum(1 for v in g.vertices() if g.degree(v) > 0)
        e_min = g.min_weight_edge()
        for k in (1, 2, 3, 4):
            work, em = apply_reduction_rule(g, k)
            em.validate()
            assert work.min_weight() == g.min_weight()
            assert work.edge(e_min.id) == e_min
            chains = find_chains(work)
            for c in chains:
                if len(c.internal) > k:
                    # k = 1 with the minimum strictly inside: 3 segments
                    assert k == 1 and len(c.internal) == 2 and e_min.id == c.edges[1]
                    interior_min_kept += 1
            if not chains:  # bare cycle
                assert sum(1 for v in work.vertices() if work.degree(v) > 0) == min(active, k + 2)
    assert interior_min_kept > 0


def test_reduction_safety_against_oracle():
    rng = random.Random(44)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        m = rng.randint(n - 1, 4)
        core = random_small_graphs(seed=rng.randint(0, 10**6), trials=1, max_n=n, max_m=m)
        core = next(iter(core))
        budget = 8 - len(core.edges)
        seg = {}
        for e in core.edges:
            extra = rng.randint(0, max(0, budget))
            budget -= extra
            seg[e.id] = [rng.randint(0, 2) for _ in range(1 + extra)]
        g = inflate_chains(core, seg)
        if len(g.edges) > 8:
            continue
        k = rng.randint(1, 3)
        work, em = apply_reduction_rule(g, k)
        lifted = lift_solution(em, solve_kcpp_exact(work, k))
        verify_solution(g, k, lifted)
        assert lifted.total_weight == oracle_kcpp(g, k)
        checked += 1


def test_path_multigraph_of_path():
    # a path contracts to one open chain of summed weight between its ends
    (chain,) = find_chains(MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]))
    assert (chain.u, chain.v, chain.weight) == (1, 4, 3)
    assert chain.internal == (2, 3)


def test_path_multigraph_theta_parallel_edges():
    # theta: three parallel chains between the hubs, lower anchor first
    chains = find_chains(theta_graph(3, 2))
    assert [(c.u, c.v, c.weight) for c in chains] == [(1, 2, 2)] * 3


def test_path_multigraph_bowtie_loops_reported_separately():
    # bowtie: two chains closed on the centre, no open chain
    chains = find_chains(named_graph("bowtie"))
    assert len(chains) == 2 and all(c.u == c.v == 3 for c in chains)


def test_path_multigraph_rejects_bare_cycle():
    # a bare cycle has no anchor and so no chain
    assert find_chains(named_graph("triangle")) == []
    assert find_chains(cycle_graph(6)) == []


def test_parallel_shortcut_thresholds():
    th4 = theta_graph(4, 2)
    pack = parallel_edge_shortcut(find_chains(th4), 2)
    assert pack is not None and len(pack) == 2
    th3 = theta_graph(3, 2)
    assert parallel_edge_shortcut(find_chains(th3), 2) is None
    pack1 = parallel_edge_shortcut(find_chains(th3), 1)
    assert pack1 is not None and len(pack1) == 1


def test_kernelize_star_solved_by_pendant():
    # the 3 pendant edges are the whole join, so their 2-cycles are the
    # packing shortcut's first stage
    out = kernelize(named_graph("star3"), 3)
    assert isinstance(out, Solved)
    assert out.solution.total_weight == 6 == out.cpp_weight


def test_kernelize_triangle_k2_reduced_to_itself():
    out = kernelize(named_graph("triangle"), 2)
    assert isinstance(out, Reduced)
    assert out.kernel.vertex_count == 3 and len(out.kernel.edges) == 3
    assert out.k == 2
    out.expansion.validate()


def test_kernelize_subdivided_bowtie_solved_at_cpp_weight():
    g = uniform_inflation(named_graph("bowtie"), 10)
    out = kernelize(g, 2)
    assert isinstance(out, Solved)
    assert out.solution.total_weight == 60
    verify_solution(g, 2, out.solution)


def test_kernelize_theta_parallel_shortcut_after_reduction():
    # 2k or 2k+1 parallel chains between two hubs survive the reduction as
    # parallel chains, and the packing shortcut on the input, before the
    # reduction, already finds k cycles on them
    for k in range(1, 5):
        for paths in (2 * k, 2 * k + 1):
            for length in range(1, 9):
                g = theta_graph(paths, length)
                out = kernelize(g, k)
                assert isinstance(out, Solved)
                assert kernel_report(g, out).fired == "packing"
                assert out.solution.total_weight == out.cpp_weight == solve_cpp(g).weight
                verify_solution(g, k, out.solution)


def test_kernelize_reduced_structural_bounds():
    rng = random.Random(9)
    reduced_seen = 0
    for trial in range(60):
        core = next(iter(random_small_graphs(seed=trial, trials=1, max_n=4, max_m=6)))
        seg = {e.id: [1] * rng.randint(1, 6) for e in core.edges}
        g = inflate_chains(core, seg)
        k = rng.randint(2, 3)
        out = kernelize(g, k)
        if isinstance(out, Reduced):
            reduced_seen += 1
            kern = out.kernel
            assert all(kern.degree(v) > 0 for v in kern.vertices())
            chains = find_chains(kern)
            assert all(len(c.internal) <= k for c in chains)
            if not chains:  # bare cycle
                active = sum(1 for v in kern.vertices() if kern.degree(v) > 0)
                assert active <= k + 2
            else:
                per_pair = Counter(tuple(sorted((c.u, c.v))) for c in chains if c.u != c.v)
                assert all(c < 2 * k for c in per_pair.values())
                assert kernel_report(g, out).max_parallel == max(per_pair.values(), default=0)
            out.expansion.validate()
    assert reduced_seen > 0


def test_kernelize_solved_weight_equals_cpp_weight_when_shortcut_fires():
    for name, k in [("star3", 3), ("bowtie", 2), ("k4", 2), ("k4", 3), ("path2", 2)]:
        g = named_graph(name)
        out = kernelize(g, k)
        assert isinstance(out, Solved)
        assert out.solution.total_weight == out.cpp_weight == solve_cpp(g).weight
        assert len(out.solution.walks) == k
        verify_solution(g, k, out.solution)


def test_lift_identity_expansion():
    g = named_graph("triangle")
    work, em = apply_reduction_rule(g, 2)
    sol = solve_kcpp_exact(work, 2)
    assert lift_solution(em, sol) == sol


def test_lift_expands_merged_chain():
    g = MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 3), (3, 4, 2), (4, 1, 2)])
    work, em = apply_reduction_rule(g, 1)
    assert len(work.edges) < len(g.edges)
    sol = solve_kcpp_exact(work, 1)
    lifted = lift_solution(em, sol)
    verify_solution(g, 1, lifted)
    assert lifted.total_weight == sol.total_weight == 9


def test_lift_double_crossing_counts_weight_twice():
    # a path kernelizes to a single merged edge; its walk crosses twice
    g2 = MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 3), (3, 4, 2)])
    work2, em2 = apply_reduction_rule(g2, 1)
    sol = solve_kcpp_exact(work2, 1)
    lifted = lift_solution(em2, sol)
    verify_solution(g2, 1, lifted)
    assert lifted.total_weight == 2 * g2.total_weight()
