"""Directed gadget and arc-disjoint packing."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings

import kpostman.cycles
from kpostman.cycles import PackingSearch
from kpostman.digraph import (
    DiGraph,
    build_balanced_extension,
    max_arc_disjoint_cycles,
    parse_directed_instance,
    serialize_directed_instance,
    verify_packing_equivalence,
)
from kpostman.generators import random_digraph
from kpostman.graph import GraphError, ParseError, SearchBudgetExceeded

from conftest import all_directed_cycles, max_disjoint_from_list, record_texts, seeded_load


def test_single_arc_gadget():
    d = DiGraph.from_arcs(2, [(1, 2, 1)])
    res = build_balanced_extension(d)
    assert res.x == 3
    assert res.x_outdegree == 1
    assert len(res.path_midpoints) == 2
    assert res.d_prime.is_balanced()


def test_balanced_input_keeps_graph_and_omits_x():
    d = DiGraph.from_arcs(2, [(1, 2, 1), (2, 1, 1)])
    res = build_balanced_extension(d)
    assert res.x is None and res.x_outdegree == 0
    assert res.d_prime == d


def test_directed_path_gadget():
    d = DiGraph.from_arcs(3, [(1, 2, 1), (2, 3, 1)])
    res = build_balanced_extension(d)
    assert res.x_outdegree == 1
    rep = verify_packing_equivalence(d)
    assert (rep.r, rep.r_prime, rep.holds) == (0, 1, True)


def test_midpoints_have_in_and_out_degree_one():
    d = DiGraph.from_arcs(3, [(1, 2, 1), (1, 3, 1)])
    res = build_balanced_extension(d)
    for mid in res.path_midpoints:
        assert res.d_prime.outdegree(mid) == 1
        assert res.d_prime.indegree(mid) == 1


def test_vertex_without_arcs_has_degree_zero():
    # vertex 2 is declared but has no arc; vertex 3 only has an arc in
    d = DiGraph.from_arcs(3, [(1, 3, 1)])
    assert d.outdegree(2) == d.indegree(2) == 0
    assert d.outdegree(3) == 0 and d.indegree(3) == 1
    assert d.steps[3] == ()


def test_gadget_weight_bookkeeping():
    d = DiGraph.from_arcs(3, [(1, 2, 3), (2, 3, 4)])
    res = build_balanced_extension(d)
    added = len(res.d_prime.arcs) - len(d.arcs)
    assert sum(a.weight for a in res.d_prime.arcs) == sum(a.weight for a in d.arcs) + added


def test_packing_two_cycle():
    d = DiGraph.from_arcs(2, [(1, 2, 1), (2, 1, 1)])
    assert max_arc_disjoint_cycles(d) == 1


def test_packing_two_disjoint_two_cycles():
    d = DiGraph.from_arcs(4, [(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)])
    assert max_arc_disjoint_cycles(d) == 2


def test_packing_triangle_and_reverse():
    # all three antiparallel pairs are directed 2-cycles, pairwise disjoint
    d = DiGraph.from_arcs(
        3, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (2, 1, 1), (3, 2, 1), (1, 3, 1)]
    )
    assert max_arc_disjoint_cycles(d) == 3


def test_packing_past_16_arcs_matches_independent_cycle_enumeration():
    d = random_digraph(random.Random(0), 5, 17)
    ones = {a.id: 1 for a in d.arcs}
    assert max_arc_disjoint_cycles(d) == max_disjoint_from_list(all_directed_cycles(d), ones) == 3


def test_packing_budget_counts_the_cycle_listing(monkeypatch):
    # a ring of 10 layers of 3 vertices, every arc from one layer to the
    # next: no vertex is inner and no two arcs are parallel, and 3^8 cycles
    # of length 10 pass through each arc; the listing passes a budget of
    # 10000 while the memo holds fewer than 100 states
    monkeypatch.setattr(kpostman.cycles, "MAX_PACKING_STATES", 10_000)
    d = DiGraph.from_arcs(
        30, [(3 * i + a, 3 * ((i + 1) % 10) + b, 1) for i in range(10) for a in (1, 2, 3) for b in (1, 2, 3)]
    )
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded) as refused:
        max_arc_disjoint_cycles(d)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == "search budget exceeded: more than 10000 packing states"


def test_packing_matches_independent_cycle_enumeration():
    # the gadget of an 8-arc digraph has up to 8 + 2 * 16 arcs
    rng = random.Random(29)
    for _ in range(150):
        d = random_digraph(rng, rng.randint(2, 5), rng.randint(1, 8))
        for graph in (d, build_balanced_extension(d).d_prime):
            ones = {a.id: 1 for a in graph.arcs}
            nu = max_arc_disjoint_cycles(graph)
            assert nu == max_disjoint_from_list(all_directed_cycles(graph), ones), graph.arcs
            got, witness = PackingSearch(graph).run(ones, len(graph.arcs))
            assert got == nu == len(witness)
            arc = {a.id: a for a in graph.arcs}
            used = [aid for c in witness for aid in c.edge_ids()]
            assert len(used) == len(set(used))
            for c in witness:
                vs, es = zip(*c.steps)
                assert len(es) >= 2 and len(set(vs)) == len(vs) == len(es)
                for i, aid in enumerate(es):
                    assert arc[aid].tail == vs[i]
                    assert arc[aid].head == vs[(i + 1) % len(es)]


@pytest.mark.parametrize(
    "arcs",
    [
        [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)],
        [(1, 2), (2, 3), (3, 1), (1, 4), (4, 1), (4, 5), (5, 4)],
        [(1, 2), (2, 1), (1, 3), (3, 4), (4, 1), (3, 1), (4, 3)],
        [(1, 2), (2, 3), (1, 4), (4, 3), (3, 1), (3, 5), (5, 1)],
        [(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)],
        [(1, 2), (2, 3), (1, 4), (4, 3), (1, 3), (3, 1), (3, 1)],
    ],
    ids=[
        "inner-cycles",
        "chains-close-on-tail",
        "two-cycle-via-inner",
        "parallel-chains",
        "no-inner",
        "parallel-after-contraction",
    ],
)
def test_contracted_packing_matches_cycle_enumeration(arcs):
    d = DiGraph.from_arcs(max(map(max, arcs)), [(t, h, 1) for t, h in arcs])
    ones = {a.id: 1 for a in d.arcs}
    want = max_disjoint_from_list(all_directed_cycles(d), ones)
    assert max_arc_disjoint_cycles(d) == want == PackingSearch(d).run(ones, len(d.arcs) // 2)[0]


def test_contracted_packing_matches_uncontracted_search_on_gadget_load():
    # the benchmark's gadget load: d and d' of each spec, d' with every
    # midpoint an inner vertex
    for spec in seeded_load("gadget"):
        d = DiGraph.from_arcs(spec.n, spec.triples)
        for graph in (d, build_balanced_extension(d).d_prime):
            ones = {a.id: 1 for a in graph.arcs}
            want = PackingSearch(graph).run(ones, len(graph.arcs) // 2)[0]
            assert max_arc_disjoint_cycles(graph) == want, graph.arcs


@pytest.mark.parametrize("n", [*range(8, 13), 16, 32, 64, 256, 800])
def test_equivalence_on_out_stars(n, monkeypatch):
    # d' of an out-star has 3n arcs and n arc-disjoint 5-cycles through x;
    # the leaves are inner vertices too, so contracted it is n parallel arcs
    # x -> 1 and n back, folded into two slots of n copies: the search of d'
    # needs 2n + 2 states, the 800-arc star's 1602
    monkeypatch.setattr(kpostman.cycles, "MAX_PACKING_STATES", 2000)
    d = DiGraph.from_arcs(n + 1, [(1, v, 1) for v in range(2, n + 2)])
    rep = verify_packing_equivalence(d)
    assert (rep.r, rep.r_prime, rep.x_outdegree, rep.holds) == (0, n, n, True)
    assert rep.d_prime == build_balanced_extension(d).d_prime


def test_equivalence_on_ring_with_parallel_arcs():
    # a directed 10-ring with 4 parallel arcs per step: balanced, so d' is
    # d, and its 40 arcs fold into 10 slots of 4 copies (4^9 cycles through
    # each arc would be listed with a slot per arc)
    d = DiGraph.from_arcs(10, [(v, v % 10 + 1, 1) for v in range(1, 11) for _ in range(4)])
    rep = verify_packing_equivalence(d)
    assert (rep.r, rep.r_prime, rep.x_outdegree, rep.holds) == (4, 4, 0, True)


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        DiGraph.from_arcs(2, [(1, 1, 1)])


def test_equivalence_on_random_digraphs():
    rng = random.Random(13)
    for _ in range(60):
        d = random_digraph(rng, rng.randint(2, 6), rng.randint(1, 10))
        rep = verify_packing_equivalence(d)
        assert rep.holds, (d.arcs, rep)
        assert rep.r_prime == rep.r + rep.x_outdegree


def test_directed_instance_round_trip():
    d = random_digraph(random.Random(3), 4, 6)
    text = serialize_directed_instance(d, 2)
    again, k = parse_directed_instance(text)
    assert k == 2
    assert [(a.tail, a.head, a.weight) for a in again.arcs] == [
        (a.tail, a.head, a.weight) for a in d.arcs
    ]


def test_parse_directed_rejects_malformed():
    with pytest.raises(ParseError):
        parse_directed_instance("p dkcpp 2 1 1\na 1 1 1\n")
    with pytest.raises(ParseError):
        parse_directed_instance("p dkcpp 2 2 1\na 1 2 1\n")


def test_digraph_rejects_negative_vertex_count():
    with pytest.raises(GraphError):
        DiGraph(-1, ())


@pytest.mark.parametrize(
    "text",
    [
        "p dkcpp -1 0 1\n",  # n < 0
        "p dkcpp 2 -1 1\n",  # m < 0
        "p dkcpp 2 0 0\n",  # k < 1
        "\u0661",  # non-ASCII str
        "p dkcpp 2 1 1\na 1 2 \u0661\n",
        "p dkcpp 2 1 +1\na 1 2 1\n",  # sign other than '-'
        "p dkcpp 2 1 1\na 1 2 1_0\n",  # digit separator
    ],
)
def test_parse_directed_rejects_out_of_range_and_non_ascii(text):
    with pytest.raises(ParseError):
        parse_directed_instance(text)


@settings(max_examples=200, deadline=None)
@given(record_texts())
def test_parse_directed_fuzz_value_or_parse_error(text):
    try:
        d, k = parse_directed_instance(text)
    except ParseError:
        return
    assert parse_directed_instance(serialize_directed_instance(d, k)) == (d, k)
