"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All checks are exact integer comparisons; no tolerances anywhere.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache

from kpostman.cpp import solve_cpp
from kpostman.generators import (
    inflate_chains,
    named_graph,
    random_connected_graph,
    random_digraph,
)
from kpostman.graph import verify_solution
from kpostman.kernel import (
    Reduced,
    apply_reduction_rule,
    find_chains,
    kernel_report,
    kernelize,
    lift_solution,
)
from kpostman.digraph import verify_packing_equivalence
from kpostman.solve import oracle_kcpp, solve_kcpp, solve_kcpp_exact

from conftest import cpp_enumeration_minimum

NAMED = ["single", "parallel-pair", "path2", "triangle", "star3", "theta", "bowtie", "k4"]

FIXED_VALUES = [
    ("triangle", 2, 5),
    ("single", 2, 4),
    ("path2", 1, 4),
    ("bowtie", 2, 6),
    ("star3", 3, 6),
]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@lru_cache(maxsize=1)
def _small_instances():
    """Connected graphs with <= 5 vertices, <= 7 edges, weights in {0,1,2}."""
    graphs = [named_graph(n) for n in NAMED]
    rng = random.Random(20240)
    while len(graphs) < 120:
        n = rng.randint(2, 5)
        m = rng.randint(n - 1, 7)
        graphs.append(random_connected_graph(rng, n, m, max_weight=2))
    return graphs


@lru_cache(maxsize=1)
def _pipeline_runs():
    """solve_kcpp over the small corpus for all k, with oracle weights."""
    runs = []
    for g in _small_instances():
        for k in (1, 2, 3):
            res = solve_kcpp(g, k)
            runs.append((g, k, res, oracle_kcpp(g, k)))
    return runs


@lru_cache(maxsize=1)
def _chain_inflated_instances():
    """Inflations of tiny cores, kept within the oracle gate of 8 edges."""
    rng = random.Random(77)
    out = []
    while len(out) < 200:
        n = rng.randint(2, 4)
        m = rng.randint(n - 1, 4)
        core = random_connected_graph(rng, n, m, max_weight=2)
        budget = 8 - len(core.edges)
        seg = {}
        for e in core.edges:
            extra = rng.randint(0, max(0, budget))
            budget -= extra
            seg[e.id] = [rng.randint(0, 2) for _ in range(1 + extra)]
        g = inflate_chains(core, seg)
        if len(g.edges) <= 8:
            out.append((g, rng.randint(1, 3)))
    return out


def test_criterion_1_cpp_exactness():
    rng = random.Random(1001)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, 8)
        g = random_connected_graph(rng, n, m, max_weight=2)
        assert solve_cpp(g).weight == cpp_enumeration_minimum(g)
        checked += 1
    _verdict(1, checked == 500, f"solve_cpp == {{1,2}}-vector enumeration on {checked} instances")


def test_criterion_2_kcpp_oracle_agreement():
    for name, k, expected in FIXED_VALUES:
        g = named_graph(name)
        assert oracle_kcpp(g, k) == expected, (name, k)
    mismatches = [
        (k, res.weight, want)
        for g, k, res, want in _pipeline_runs()
        if res.weight != want
    ]
    n = len(_pipeline_runs())
    _verdict(
        2,
        not mismatches,
        f"solve_kcpp == oracle_kcpp on {n} instance/k pairs plus 5 fixed values",
    )


def test_criterion_3_reduction_rule_safety():
    checked = 0
    for g, k in _chain_inflated_instances():
        want = oracle_kcpp(g, k)
        em = apply_reduction_rule(g, k)
        lifted = lift_solution(em, solve_kcpp_exact(em.kernel, k))
        verify_solution(g, k, lifted)
        assert lifted.total_weight == want, (g.edges, k)
        checked += 1
    _verdict(3, checked >= 200, f"oracle == reduce+exact+lift on {checked} chain-inflated instances")


def test_criterion_4_walk_constructor_at_cpp_weight():
    fired = 0
    for g, k, res, _want in _pipeline_runs():
        if res.method == "kernel":
            continue
        fired += 1
        assert res.weight == res.cpp_weight, (res.method, res.weight, res.cpp_weight)
        assert len(res.solution.walks) == k
        verify_solution(g, k, res.solution)
    _verdict(4, fired > 0, f"every fired shortcut returned k walks at the single-walk optimum ({fired} fires)")


def test_criterion_5_kernel_structural_bound():
    reduced = 0
    worst_ratio = 0.0
    corpora = [(g, k) for g, k, _res, _w in _pipeline_runs()]
    corpora += _chain_inflated_instances()
    for g, k in corpora:
        out = kernelize(g, k)
        if not isinstance(out, Reduced):
            continue
        reduced += 1
        kern = out.kernel
        rep = kernel_report(g, out)
        chains = find_chains(kern)
        for chain in chains:
            assert len(chain.internal) <= k, (g.edges, k, chain)
        if not chains:  # bare cycle
            active = len(kern.adjacency)
            assert active <= k + 2
        else:
            per_pair = Counter(tuple(sorted((c.u, c.v))) for c in chains if c.u != c.v)
            assert all(c < 2 * k for c in per_pair.values()), (g.edges, k)
            assert rep.max_parallel == max(per_pair.values(), default=0)
        if k >= 2:  # report-only, never a failure
            worst_ratio = max(worst_ratio, (rep.v1 + rep.v3plus) / (k * math.log2(k)))
    _verdict(
        5,
        reduced > 0,
        f"{reduced} reduced kernels respect chain <= k and < 2k parallels "
        f"(max (v1+v3plus)/(k log2 k) = {worst_ratio:.2f})",
    )


def test_criterion_6_cpp_lower_bound_invariant():
    for g, k, res, _want in _pipeline_runs():
        cpp_weight = solve_cpp(g).weight
        assert res.cpp_weight == cpp_weight
        assert res.weight >= cpp_weight, (g.edges, k)
        if res.method != "kernel":
            assert res.weight == cpp_weight
    _verdict(
        6,
        True,
        f"weight >= single-walk optimum on all {len(_pipeline_runs())} runs; equality whenever a shortcut fired",
    )


def test_criterion_7_directed_packing_equivalence():
    rng = random.Random(31337)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        arcs = rng.randint(1, 10)
        d = random_digraph(rng, n, arcs)
        rep = verify_packing_equivalence(d)
        assert rep.holds, (d.arcs, rep)
        checked += 1
    _verdict(7, checked == 100, f"r' == r + outdeg(x) on {checked} random digraphs")


def test_criterion_8_cycle_partition_sanity():
    bowtie = named_graph("bowtie")
    res = solve_kcpp(bowtie, 2, p=6)
    assert res.decision is True and res.weight == 6
    k4 = named_graph("k4")
    res4 = solve_kcpp(k4, 2, p=6)
    assert res4.decision is False
    assert oracle_kcpp(k4, 2) == res4.weight > 6
    _verdict(8, True, "bowtie k=2 partitions into triangles at weight 6; K4 k=2 cannot (optimum 8)")
