"""Graph core: parsing, degree classes, bypass, verification."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpostman.cpp import Multiplicities
from kpostman.generators import cycle_graph
from kpostman.graph import (
    Edge,
    GraphError,
    Instance,
    MultiGraph,
    ParseError,
    Solution,
    VerificationError,
    Walk,
    _chains,
    bypass,
    degree_classes,
    is_connected,
    parse_instance,
    parse_solution,
    read_triples,
    serialize_instance,
    serialize_solution,
    verify_solution,
)

from conftest import named_graph, record_texts, reference_parse_solution, reference_read_triples

TRIANGLE_TEXT = "p kcpp 3 3 1\ne 1 2 1\ne 2 3 1\ne 3 1 1\n"


def test_parse_triangle():
    inst = parse_instance(TRIANGLE_TEXT)
    assert inst.graph.vertex_count == 3
    assert [e.id for e in inst.graph.edges] == [1, 2, 3]
    assert inst.k == 1 and inst.p is None


def test_parse_single_edge_with_k():
    inst = parse_instance("p kcpp 2 1 2\ne 1 2 1\n")
    assert inst.k == 2
    assert inst.graph.edges[0].weight == 1


def test_parse_budget_and_comments():
    inst = parse_instance("# instance\np kcpp 2 1 2 6\n# edge\ne 1 2 3\n")
    assert inst.p == 6


@pytest.mark.parametrize(
    "text",
    [
        "p kcpp 2 1 1\ne 1 1 1\n",  # loop
        "p kcpp 2 2 1\ne 1 2 1\n",  # m mismatch
        "p kcpp 2 1 1\nq 1 2 1\n",  # unknown tag
        "p kcpp 2 1 1\ne 1 3 1\n",  # vertex out of range
        "p kcpp 2 1 1\ne 1 2 -1\n",  # negative weight
        "e 1 2 1\n",  # edge before header
        "p kcpp 2 1 0\ne 1 2 1\n",  # k < 1
        "p wrong 2 1 1\ne 1 2 1\n",
        "p kcpp 2 1 +1\ne 1 2 1\n",  # sign other than '-'
        "p kcpp 2 1 1\ne 1 2 1_0\n",  # digit separator
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_overflow_guard():
    big = 2**61
    with pytest.raises(ParseError):
        parse_instance(f"p kcpp 2 2 3\ne 1 2 {big}\ne 1 2 {big}\n")


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    triples = []
    for _ in range(m):
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n).filter(lambda x: x != u))
        triples.append((u, v, draw(st.integers(0, 5))))
    k = draw(st.integers(1, 3))
    p = draw(st.one_of(st.none(), st.integers(0, 100)))
    return Instance(MultiGraph.from_edges(n, triples), k, p)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_parse_serialize_round_trip(inst):
    again = parse_instance(serialize_instance(inst))
    assert again.graph.vertex_count == inst.graph.vertex_count
    assert [(e.u, e.v, e.weight) for e in again.graph.edges] == [
        (e.u, e.v, e.weight) for e in inst.graph.edges
    ]
    assert (again.k, again.p) == (inst.k, inst.p)


def test_edge_scans_match_per_edge_references():
    # edges shuffled out of id order, with ids spread apart and several
    # edges tied on the minimum weight, which the lowest id breaks
    rng = random.Random(33)
    tied = 0
    for trial in range(200):
        m = rng.randint(1, 12)
        ids = rng.sample(range(1, 60), m)
        edges = [Edge(i, *rng.sample(range(1, 7), 2), rng.randint(0, 3)) for i in ids]
        g = MultiGraph(6, tuple(edges))
        weights = [e.weight for e in g.edges]
        low = min(weights)
        first = min((e for e in g.edges if e.weight == low), key=lambda e: e.id)
        assert g.total_weight() == sum(weights)
        assert g.max_edge_id() == max(ids)
        assert g.min_weight() == low
        assert g.min_weight_edge() == first
        tied += weights.count(low) > 1 and first is not g.edges[weights.index(low)]
    assert tied > 0
    empty = MultiGraph(3, ())
    assert empty.total_weight() == 0 and empty.max_edge_id() == 0
    for scan in (empty.min_weight, empty.min_weight_edge):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            scan()


def test_degree_classes_path():
    g = MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    dc = degree_classes(g)
    assert dc.v1 == {1, 4} and dc.v2 == {2, 3} and dc.v3plus == frozenset()


def test_degree_classes_triangle_and_star():
    dc = degree_classes(named_graph("triangle"))
    assert dc.v1 == frozenset() and dc.v2 == {1, 2, 3}
    dc = degree_classes(named_graph("star3"))
    assert dc.v1 == {2, 3, 4} and dc.v3plus == {1}


def test_degree_classes_ignores_isolated():
    g = MultiGraph.from_edges(3, [(1, 2, 1)])
    dc = degree_classes(g)
    assert 3 not in dc.v1 | dc.v2 | dc.v3plus


def test_bypass_path():
    g = MultiGraph.from_edges(3, [(1, 2, 2), (2, 3, 3)])
    res = bypass(g, 2)
    assert res.replaced == (1, 2)
    (e,) = res.graph.edges
    assert (e.u, e.v, e.weight) == (1, 3, 5)
    assert res.graph.degree(2) == 0
    assert res.graph.vertex_count == 3


def test_bypass_triangle_makes_parallel_pair():
    res = bypass(named_graph("triangle"), 2)
    weights = sorted(e.weight for e in res.graph.edges)
    assert weights == [1, 2]
    pairs = {frozenset((e.u, e.v)) for e in res.graph.edges}
    assert pairs == {frozenset((1, 3))}


def test_bypass_rejects_parallel_pair_vertex():
    g = named_graph("parallel-pair")
    with pytest.raises(GraphError):
        bypass(g, 1)


def test_bypass_rejects_wrong_degree():
    with pytest.raises(GraphError):
        bypass(named_graph("star3"), 1)


def test_vertex_without_edges_has_degree_zero():
    # vertex 3 is declared but has no edge, so adjacency has no entry for it
    g = MultiGraph.from_edges(4, [(1, 2, 1), (2, 4, 1), (4, 1, 1)])
    assert 3 not in g.adjacency
    assert g.degree(3) == 0
    assert Multiplicities.uniform(g, 2).degree(3) == 0
    with pytest.raises(GraphError, match="^bypass needs degree exactly 2, vertex 3 has degree 0$"):
        bypass(g, 3)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_bypass_invariants(inst):
    g = inst.graph
    candidates = [
        v
        for v in g.vertices()
        if g.degree(v) == 2
        and g.adjacency[v][0].other(v) != g.adjacency[v][1].other(v)
    ]
    for v in candidates:
        res = bypass(g, v)
        assert res.graph.total_weight() == g.total_weight()
        for u in g.vertices():
            if u == v:
                continue
            assert res.graph.degree(u) % 2 == g.degree(u) % 2
        a = g.adjacency[v][0].other(v)
        b = g.adjacency[v][1].other(v)
        assert res.graph.degree(a) == g.degree(a)
        assert res.graph.degree(b) == g.degree(b)


def test_is_connected():
    assert is_connected(named_graph("triangle"))
    two = MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    assert not is_connected(two)
    with_isolated = MultiGraph.from_edges(3, [(1, 2, 1)])
    assert is_connected(with_isolated)


def test_chains_cut_at_extra_vertices():
    ring = cycle_graph(6)
    assert [(c.vertices, c.ring) for c in _chains(ring.adjacency)] == [((1, 2, 3, 4, 5, 6, 1), True)]
    path = MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 2), (3, 4, 3)])
    assert [(c.vertices, c.weight) for c in _chains(path.adjacency)] == [((1, 2, 3, 4), 6)]


def _chain_soup(rng: random.Random) -> MultiGraph:
    """Rings (some of two parallel edges), bouquets of loop chains, bundles
    of parallel chains and random parts, with vertex labels shuffled."""
    triples: list[tuple[int, int, int]] = []
    n = 0

    def path(a: int, b: int, internal: int) -> None:
        nonlocal n
        verts = [a, *range(n + 1, n + internal + 1), b]
        n += internal
        triples.extend((x, y, rng.randint(0, 5)) for x, y in zip(verts, verts[1:]))

    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("ring", "bouquet", "bundle", "random"))
        if kind == "ring":
            n += 1
            path(n, n, rng.randint(1, 6))
        elif kind == "bouquet":
            n += 1
            center = n
            for _ in range(rng.randint(1, 3)):
                path(center, center, rng.randint(2, 4))
        elif kind == "bundle":
            n += 2
            a, b = n - 1, n
            for _ in range(rng.randint(2, 4)):
                path(a, b, rng.randint(0, 3))
        else:
            size = rng.randint(2, 6)
            for u in range(n + 2, n + size + 1):
                triples.append((rng.randint(n + 1, u - 1), u, rng.randint(0, 5)))
            for _ in range(rng.randint(0, 3)):
                u, v = rng.sample(range(n + 1, n + size + 1), 2)
                triples.append((u, v, rng.randint(0, 5)))
            n += size
    n += rng.randint(0, 2)  # isolated vertices
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return MultiGraph.from_edges(n, [(label[a - 1], label[b - 1], w) for a, b, w in triples])


def test_chains_are_well_formed_and_partition_the_edges():
    rng = random.Random(21)
    rings = loops = 0
    for _ in range(300):
        g = _chain_soup(rng)
        for c in g.chains:
            assert c.u == c.vertices[0] and c.v == c.vertices[-1]
            assert len(c.vertices) == len(c.edges) + 1
            for a, b, eid in zip(c.vertices, c.vertices[1:], c.edges):
                assert {a, b} == set(g.ends[eid])
            assert c.weight == sum(g.edge(eid).weight for eid in c.edges)
            if c.ring:
                assert c.u == c.v == min(c.vertices)
                rings += 1
            loops += c.u == c.v and not c.ring
        assert sorted(eid for c in g.chains for eid in c.edges) == sorted(g.edge_by_id)
    assert rings > 100 and loops > 100


def test_verify_triangle_tour():
    g = named_graph("triangle")
    walk = Walk(((1, 1), (2, 2), (3, 3)))
    assert verify_solution(g, 1, Solution((walk,), 3)) == 3


def test_verify_edge_used_twice():
    g = named_graph("single")
    walk = Walk(((1, 1), (2, 1)))
    assert verify_solution(g, 1, Solution((walk,), 2)) == 2


def test_verify_rejects_empty_walk():
    g = named_graph("triangle")
    walks = (Walk(((1, 1), (2, 2), (3, 3))), Walk(()))
    with pytest.raises(VerificationError, match="^walk 1 is empty$"):
        verify_solution(g, 2, Solution(walks, 3))


def test_verify_rejects_wrong_walk_count():
    g = named_graph("triangle")
    walk = Walk(((1, 1), (2, 2), (3, 3)))
    with pytest.raises(VerificationError, match="^expected 2 walks, got 1$"):
        verify_solution(g, 2, Solution((walk,), 3))


def test_verify_rejects_uncovered_edge():
    g = named_graph("path2")
    walk = Walk(((1, 1), (2, 1)))
    with pytest.raises(VerificationError, match=re.escape("uncovered edges: [2]")):
        verify_solution(g, 1, Solution((walk,), 2))


def test_verify_rejects_broken_adjacency():
    g = named_graph("path2")
    for walk, message in (
        # step 1 leaves vertex 3 along edge 2, but step 0 cannot reach 3 from 1 along edge 1
        (Walk(((1, 1), (3, 2))), "walk 0 step 0: edge 1 does not join 1 to 3"),
        (Walk(((1, 1), (2, 9))), "walk 0 step 1: no edge with id 9"),
    ):
        with pytest.raises(VerificationError, match=f"^{message}$"):
            verify_solution(g, 1, Solution((walk,), 2))


def test_verify_rejects_broken_last_step():
    # the last step arrives at step 0's vertex: edge 2 leads from 3 back to 2, not to 1
    g = named_graph("triangle")
    walks = (Walk(((1, 1), (2, 2), (3, 3))), Walk(((1, 1), (2, 2), (3, 2))))
    with pytest.raises(VerificationError, match="^walk 1 step 2: edge 2 does not join 3 to 1$"):
        verify_solution(g, 2, Solution(walks, 6))


def test_verify_rejects_weight_mismatch():
    g = named_graph("triangle")
    walk = Walk(((1, 1), (2, 2), (3, 3)))
    with pytest.raises(VerificationError, match="^stated weight 4 != recomputed 3$"):
        verify_solution(g, 1, Solution((walk,), 4))


def test_solution_round_trip():
    walk = Walk(((1, 1), (2, 2), (3, 3)))
    sol = Solution((walk,), 3)
    again = parse_solution(serialize_solution(sol))
    assert again == sol


def test_parse_solution_rejects_open_walk():
    with pytest.raises(ParseError):
        parse_solution("s 2 1\nw 1 1 1 2\n")


@pytest.mark.parametrize(
    "text",
    [
        "s 2 1\nw\n",  # walk record without a step count
        "s 2 1\nw 1 1 x 2\n",  # non-integer token in a walk
        "s two 1\nw 1 1 1 1\n",  # non-integer token in the header
        "s \u0665 1\nw 1 1 1 1\n",  # non-ASCII digit
        b"s 2 1\nw 1 1 1 1\xff\n",  # non-ASCII byte
        "s +2 1\nw 1 1 1 1\n",  # sign other than '-'
        "s 2 1\nw 1 1 1_0 1\n",  # digit separator
        "s 0 1\nw 0 1\n",  # walk without a step
        "s -3 1\nw 1 1 1 1\n",  # negative total
        "s 0 0\n",  # k < 1
        "s 9 1\ns 2 1\nw 1 1 1 1\n",  # duplicate header
    ],
)
def test_parse_solution_rejects_malformed_records(text):
    with pytest.raises(ParseError):
        parse_solution(text)


@pytest.mark.parametrize("text", ["\u0661", "p kcpp 2 1 1\ne 1 2 \u0661\n", b"p kcpp 2 1 1\xff\n"])
def test_parse_instance_rejects_non_ascii(text):
    with pytest.raises(ParseError):
        parse_instance(text)


@settings(max_examples=200, deadline=None)
@given(record_texts())
def test_parse_instance_fuzz_value_or_parse_error(text):
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


@settings(max_examples=200, deadline=None)
@given(record_texts())
def test_parse_solution_fuzz_value_or_parse_error(text):
    try:
        sol = parse_solution(text)
    except ParseError:
        return
    assert parse_solution(serialize_solution(sol)) == sol


def _outcome(read, *args):
    """The value read returns, or the message of the ParseError it raises."""
    try:
        return "value", read(*args)
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(record_texts())
@example("e 1 2 1\np kcpp 2 1 1\n")  # a plain record before the header
@example("p kcpp 3 2 1\ne 1 2 1\ne 2 3 1_0\n")  # '_' but no '+' in the text
@example("p kcpp 3 2 1\ne 1 2 +1\ne 2 3 1\n")
@example("p kcpp 3 2 1\n# a comment with + and _\ne 1 2 1\ne 3 3 1\n")
def test_read_triples_matches_reference(text):
    for layout in (("kcpp", "e", (3, 4)), ("dkcpp", "a", (3,))):
        assert _outcome(read_triples, text, *layout) == _outcome(reference_read_triples, text, *layout)


@settings(max_examples=300, deadline=None)
@given(record_texts())
@example("s 2 1\nw 1 1 1_0 1\n")
@example("# + \ns 2 1\nw 1 1 +1 1\n")
def test_parse_solution_matches_reference(text):
    assert _outcome(parse_solution, text) == _outcome(reference_parse_solution, text)
