"""Cycle search and packing, checked against explicit cycle enumeration."""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

import pytest

import kpostman.cycles
from kpostman import graph as graph_module
from kpostman.cpp import Multiplicities, solve_cpp
from kpostman.cycles import (
    PackingSearch,
    check_packing,
    cycle_rank_bound,
    greedy_cycle_packing,
    packing_upper_bound,
    shortest_cycle,
)
from kpostman.generators import inflate_chains, theta_graph, uniform_inflation
from kpostman.graph import (
    Chain,
    Edge,
    GraphError,
    MultiGraph,
    SearchBudgetExceeded,
    _chains,
    _CoreCut,
)

from conftest import (
    all_simple_cycles,
    bouquet,
    even_degrees,
    max_disjoint_from_list,
    min_cycle_key,
    named_graph,
    random_connected_graph,
    random_small_graphs,
    reference_core,
    reference_edge_greedy,
    reference_greedy_packing,
)


def test_shortest_cycle_prefers_duplicated_copy():
    g = named_graph("path2")
    m = Multiplicities(g, {1: 2, 2: 1})
    c = shortest_cycle(m)
    assert c is not None and c.edge_ids() == (1, 1)


def test_shortest_cycle_k4_girth():
    c = shortest_cycle(Multiplicities.uniform(named_graph("k4")))
    assert c is not None and len(c.edge_ids()) == 3


def test_shortest_cycle_tree_none():
    g = MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (2, 4, 1)])
    assert shortest_cycle(Multiplicities.uniform(g)) is None


def _decorated(core: MultiGraph, rng: random.Random) -> MultiGraph:
    """core with edges inflated into chains of random weights 0..3 (parallel
    edges become parallel chains) and a pendant tree hung on random vertices."""
    g = inflate_chains(
        core, {e.id: [rng.randint(0, 3) for _ in range(rng.randint(1, 3))] for e in core.edges}
    )
    triples = [(e.u, e.v, e.weight) for e in g.edges]
    n = g.vertex_count
    for _ in range(rng.randint(0, 3)):
        n += 1
        triples.append((rng.randint(1, n - 1), n, rng.randint(0, 3)))
    return MultiGraph.from_edges(n, triples)


def _girth_cases():
    rng = random.Random(17)
    for g in random_small_graphs(seed=31, trials=50, max_m=7):
        yield g, {e.id: rng.randint(1, 2) for e in g.edges}
    for core in random_small_graphs(seed=35, trials=60, max_n=4, max_m=6):
        g = _decorated(core, rng)
        yield g, {e.id: 1 for e in g.edges}
        yield g, {e.id: rng.randint(0, 1) for e in g.edges}
    for name in ("bowtie", "theta", "k4"):  # loop chains, parallel chains, anchors only
        g = _decorated(named_graph(name), rng)
        yield g, {e.id: 1 for e in g.edges}


def test_shortest_cycle_matches_enumerated_girth():
    for g, counts in _girth_cases():
        m = Multiplicities(g, counts)
        cycles = all_simple_cycles(g, counts)
        c = shortest_cycle(m)
        if not cycles:
            assert c is None
        else:
            assert c is not None
            check_packing(m, (c,))
            want = min((len(x), sum(g.edge(eid).weight for eid in x)) for x in cycles)
            assert (len(c.edge_ids()), c.weight(g)) == want, (g.edges, counts)


def test_shortest_cycle_matches_edge_removal_girth_on_larger_graphs():
    # many anchors and long chains, where a search stopped too early would
    # miss the minimum
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(3, 14)
        g = random_connected_graph(rng, n, rng.randint(n, 2 * n + 4), max_weight=rng.choice([0, 1, 3, 9]))
        if rng.random() < 0.6:
            g = inflate_chains(
                g, {e.id: [rng.randint(0, 3) for _ in range(rng.randint(1, 5))] for e in g.edges}
            )
        counts = {e.id: rng.choice((0, 1, 1, 1)) for e in g.edges}
        m = Multiplicities(g, counts)
        c = shortest_cycle(m)
        want = min_cycle_key(g, counts)
        if want is None:
            assert c is None
        else:
            assert c is not None
            check_packing(m, (c,))
            assert (len(c.edge_ids()), c.weight(g)) == want, (g.edges, counts)


def _grid(rows: int, cols: int) -> MultiGraph:
    """Unit-weight rows x cols grid, vertices numbered row by row."""
    triples = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                triples.append((v, v + 1, 1))
            if i + 1 < rows:
                triples.append((v, v + cols, 1))
    return MultiGraph.from_edges(rows * cols, triples)


# Which of several cycles tied on (hops, weight) comes back is part of the
# answer: the greedy's cycles decide whether the packing shortcut fires, and
# with it the method and the walks a solve prints.
@pytest.mark.parametrize(
    "g,vertices,edges",
    [
        (named_graph("k4"), (1, 3, 2), (2, 4, 1)),
        (theta_graph(3, 2), (1, 3, 2, 4), (1, 2, 4, 3)),
        (_grid(3, 3), (2, 1, 4, 5), (1, 2, 6, 4)),
        (uniform_inflation(named_graph("k4"), 2), (1, 6, 3, 8, 2, 5), (3, 4, 8, 7, 2, 1)),
    ],
    ids=["k4", "theta-3x2", "grid-3x3", "k4-inflated"],
)
def test_shortest_cycle_tie_breaks(g, vertices, edges):
    c = shortest_cycle(Multiplicities.uniform(g))
    assert tuple(zip(*c.steps)) == (vertices, edges)


def test_greedy_tie_breaks():
    def cycles(g):
        packing = greedy_cycle_packing(Multiplicities.uniform(g), 10)
        return [tuple(zip(*c.steps)) for c in packing]

    assert cycles(_grid(4, 4)) == [
        ((2, 1, 5, 6), (1, 2, 8, 4)),
        ((7, 8, 4, 3), (12, 7, 5, 6)),
        ((10, 11, 7, 6), (17, 13, 10, 11)),
        ((14, 10, 9, 13), (18, 15, 16, 22)),
        ((11, 12, 16, 15), (19, 21, 24, 20)),
    ]
    k5 = MultiGraph.from_edges(5, [(a, b, 1) for a in range(1, 6) for b in range(a + 1, 6)])
    assert cycles(k5) == [
        ((1, 3, 2), (2, 5, 1)),
        ((4, 5, 1), (10, 4, 3)),
        ((2, 4, 3, 5), (6, 8, 9, 7)),
    ]
    assert cycles(theta_graph(4, 2)) == [((1, 3, 2, 4), (1, 2, 4, 3)), ((1, 5, 2, 6), (5, 6, 8, 7))]


def test_greedy_star_all_two_cycles():
    m = Multiplicities(named_graph("star3"), {1: 2, 2: 2, 3: 2})
    packing = greedy_cycle_packing(m, 3)
    assert [len(c.edge_ids()) for c in packing] == [2, 2, 2]
    check_packing(m, packing)


def test_greedy_triangle_single_cycle():
    packing = greedy_cycle_packing(Multiplicities.uniform(named_graph("triangle")), 2)
    assert len(packing) == 1


def test_greedy_bowtie_two_triangles():
    m = Multiplicities.uniform(named_graph("bowtie"))
    packing = greedy_cycle_packing(m, 2)
    assert [len(c.edge_ids()) for c in packing] == [3, 3]
    check_packing(m, packing)


def _greedy_cases():
    """Seeded multigraphs with 0-3 copies per edge: parallel edges, chains,
    pendant trees, and edges listed out of id order with their ends swapped."""
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, 2 * n + 2)
        g = random_connected_graph(rng, n, m, max_weight=rng.choice([0, 2, 5]))
        if rng.random() < 0.4:
            g = _decorated(g, rng)
        if rng.random() < 0.3:
            edges = [Edge(e.id, e.v, e.u, e.weight) if rng.random() < 0.5 else e for e in g.edges]
            rng.shuffle(edges)
            g = MultiGraph(g.vertex_count, tuple(edges))
        yield Multiplicities(g, {e.id: rng.randint(0, 3) for e in g.edges})
    # k ends inside the 2-cycle sweep: 4 and 5 copies of edge 3 after a
    # parallel pair of the same weight and lower ids, and a triangle behind
    for copies in (4, 5):
        g = MultiGraph.from_edges(5, [(2, 3, 1), (2, 3, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)])
        yield Multiplicities(g, {1: 1, 2: 1, 3: copies, 4: 1, 5: 1, 6: 1})
    # the core peels away before k: two triangles joined by a path, a bowtie
    g = MultiGraph.from_edges(
        7, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 2), (4, 5, 2), (5, 6, 1), (6, 7, 1), (7, 5, 1)]
    )
    yield Multiplicities.uniform(g)
    yield Multiplicities.uniform(named_graph("bowtie"))


def test_greedy_matches_reference_loop():
    swept = short = 0
    for m in _greedy_cases():
        for k in range(1, m.copies() + 1):
            packing = greedy_cycle_packing(m, k)
            assert packing == reference_greedy_packing(m, k), (m.base.edges, m.counts, k)
            check_packing(m, packing)
            rest = m.without(Counter(eid for c in packing for eid in c.edge_ids()))
            if len(packing) == k and shortest_cycle(rest) is not None and len(shortest_cycle(rest)) == 2:
                swept += 1  # k was reached with 2-cycles still left
            if len(packing) < k and any(len(c) > 2 for c in packing):
                short += 1  # the core emptied after some longer cycles
    assert swept and short


def _shuffled_multigraph(rng: random.Random) -> tuple[MultiGraph, dict[int, int], int]:
    """A random multigraph with its edges shuffled, ids drawn out of order
    and vertices relabelled: parallel edges, some edges drawn out into
    chains, sometimes a ring of its own; counts 0-3 (some ids left out)
    and k from 1 to 8."""
    n = rng.randint(2, 9)
    drawn: list[tuple[int, int]] = []
    for _ in range(rng.randint(n, 2 * n + 3)):
        u, v = rng.sample(range(1, n + 1), 2)
        drawn += [(u, v)] * rng.choice((1,) * 8 + (2, 3))
    pairs: list[tuple[int, int]] = []
    top = n
    for u, v in drawn:
        inner = rng.choice((0, 0, 0, 0, 1, 2))
        path = [u, *range(top + 1, top + inner + 1), v]
        top += inner
        pairs += zip(path, path[1:])
    if rng.random() < 0.3:
        ring = list(range(top + 1, top + rng.randint(2, 5) + 1))
        top = ring[-1]
        pairs += zip(ring, ring[1:] + ring[:1])
    label = rng.sample(range(1, top + 1), top)
    rng.shuffle(pairs)
    ids = rng.sample(range(1, 3 * len(pairs) + 1), len(pairs))
    edges = []
    for eid, (u, v) in zip(ids, pairs):
        u, v = label[u - 1], label[v - 1]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append(Edge(eid, u, v, rng.randint(0, 3)))
    g = MultiGraph(top, tuple(edges))
    counts = {e.id: rng.choice((0,) + (1,) * 12 + (2, 3)) for e in edges if rng.random() < 0.97}
    return g, counts, rng.randint(1, 8)


def test_greedy_matches_the_edge_level_reference(monkeypatch):
    # the cut greedy reads off g.chains and updates in place must be the
    # edge-level 2-core's _chains cut before every girth search, chain for
    # chain, or the girth's tie-breaks change
    read: list[list[Chain]] = []
    girth = kpostman.cycles._girth

    def recorded(chains, keys):
        read.append(list(chains))
        return girth(chains, keys)

    monkeypatch.setattr(kpostman.cycles, "_girth", recorded)
    rng = random.Random(34)
    longer = joined = updated = 0
    for _ in range(5000):
        g, counts, k = _shuffled_multigraph(rng)
        m = Multiplicities(g, counts)
        cut: list[Chain] = []
        ref_cut: list[Chain] = []
        ref_read: list[list[Chain]] = []
        read.clear()
        packing = greedy_cycle_packing(m, k, cut)
        assert packing == reference_edge_greedy(m, k, ref_cut, ref_read), (g, counts, k)
        assert cut == ref_cut
        assert read == ref_read
        assert _CoreCut(g).chains == _chains(reference_core(g.edges))
        longer += sum(len(c) > 2 for c in packing)
        joined += any(c not in g.chains for c in cut)
        updated += max(len(read) - 1, 0)
    # cycles past the 2-cycles, first cuts that joined chains of g's cut,
    # and cuts updated in place after a cycle
    assert longer > 2000 and joined > 1000 and updated > 1500


def test_greedy_reads_the_cached_cut_and_cuts_nothing(monkeypatch):
    # 400 triangles on one center: greedy takes them all off g's own cut,
    # updated in place, and makes no cut of its own
    g = bouquet([1] * 400)
    g.chains  # the graph's one cut, cached before counting
    cuts = []
    real = graph_module._chains

    def counted(adj):
        cuts.append(adj)
        return real(adj)

    monkeypatch.setattr(graph_module, "_chains", counted)
    cut: list[Chain] = []
    packing = greedy_cycle_packing(Multiplicities.uniform(g), 400, cut)
    assert len(packing) == 400 and cut == list(g.chains)
    check_packing(Multiplicities.uniform(g), packing)
    assert cuts == []


@pytest.mark.parametrize(
    "find", [shortest_cycle, lambda m: greedy_cycle_packing(m, 2)], ids=["shortest", "greedy"]
)
def test_cycle_search_names_bad_counts(find):
    tri = named_graph("triangle")
    with pytest.raises(GraphError, match="no edge with id 9"):
        find(Multiplicities(tri, {1: 1, 2: 1, 3: 1, 9: 1}))
    with pytest.raises(GraphError, match="edge 1 has negative count -1"):
        find(Multiplicities(tri, {1: -1, 2: 1, 3: 1}))
    assert find(Multiplicities(tri, {1: 1, 2: 1, 3: 0})) in (None, ())


def _exact_packing(m: Multiplicities) -> tuple[int, tuple]:
    return PackingSearch(m.base).run(m.counts, m.copies() // 2)


def test_exact_known_values():
    tri = named_graph("triangle")
    assert _exact_packing(Multiplicities.uniform(tri))[0] == 1
    assert _exact_packing(Multiplicities(tri, {1: 3, 2: 1, 3: 1}))[0] == 2
    assert _exact_packing(Multiplicities.uniform(named_graph("k4")))[0] == 1


def test_exact_matches_independent_enumeration():
    rng = random.Random(55)
    for g in random_small_graphs(seed=32, trials=60, max_n=4, max_m=5):
        counts = {e.id: rng.randint(1, 2) for e in g.edges}
        m = Multiplicities(g, counts)
        nu, witness = _exact_packing(m)
        check_packing(m, witness)
        assert len(witness) == nu
        expected = max_disjoint_from_list(all_simple_cycles(g, counts), counts)
        assert nu == expected


def test_greedy_never_beats_exact_and_certifies():
    rng = random.Random(91)
    for g in random_small_graphs(seed=33, trials=50, max_n=5, max_m=6):
        counts = {e.id: rng.randint(1, 2) for e in g.edges}
        m = Multiplicities(g, counts)
        greedy = greedy_cycle_packing(m, 4)
        nu, _ = _exact_packing(m)
        assert len(greedy) <= nu
        if len(greedy) == 4:
            assert nu >= 4
        check_packing(m, greedy)


def test_greedy_two_cycles_lie_in_a_maximum_packing():
    # the kernel search packs only what is left after greedy's 2-cycles:
    # their count plus the maximum packing of the rest is the maximum
    rng = random.Random(92)
    for g in random_small_graphs(seed=35, trials=60, max_n=6, max_m=9):
        counts = {e.id: rng.randint(1, 3) for e in g.edges}
        m = Multiplicities(g, counts)
        greedy = greedy_cycle_packing(m, m.copies())
        pairs = [c for c in greedy if len(c) == 2]
        rest = m.without(Counter(eid for c in pairs for eid in c.edge_ids()))
        assert shortest_cycle(rest) is None or len(shortest_cycle(rest)) >= 3
        assert len(pairs) + _exact_packing(rest)[0] == _exact_packing(m)[0]


def test_cycle_rank_bounds_every_packing():
    # the packing shortcut and the kernel search skip what this bound rules
    # out, so no maximum packing of a connected multigraph may exceed it
    rng = random.Random(93)
    cases = []
    for g in random_small_graphs(seed=36, trials=60, max_n=6, max_m=9):
        cases.append((g, {e.id: rng.randint(1, 3) for e in g.edges}))
        cases.append((g, dict(solve_cpp(g).multiplicities.counts)))
    tight = 0
    for g, counts in cases:
        copies = sum(counts.values())
        vertices = sum(1 for es in g.adjacency.values() if es)
        nu = PackingSearch(g).run(counts, copies)[0]
        bound = cycle_rank_bound(copies, vertices)
        assert nu <= bound, (g.edges, counts)
        tight += nu == bound
    assert tight > 0


def _component_ranks(edges: list[Edge]) -> int:
    """Sum over the components of the graph on edges of m - n + 1, the
    components found by a plain search from every vertex."""
    adj: dict[int, list[int]] = {}
    for e in edges:
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    seen: set[int] = set()
    components = 0
    for v in adj:
        if v not in seen:
            components += 1
            stack = [v]
            seen.add(v)
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return len(edges) - len(adj) + components


def _disjoint_union(parts: list[MultiGraph]) -> MultiGraph:
    triples, n = [], 0
    for g in parts:
        triples += [(e.u + n, e.v + n, e.weight) for e in g.edges]
        n += g.vertex_count
    return MultiGraph.from_edges(n, triples)


def _simple(g: MultiGraph) -> MultiGraph:
    """g without the second and later edges between one pair of vertices."""
    pairs = {frozenset((e.u, e.v)): (e.u, e.v, e.weight) for e in g.edges[::-1]}
    return MultiGraph.from_edges(g.vertex_count, list(pairs.values())[::-1])


def _bound_cases():
    """(graph, counts of one copy or none per edge, floor) for the simple
    graphs the kernel search bounds: the rest of greedy's 2-cycle sweep over
    covers with one or two copies per edge, with greedy's count as floor;
    and disjoint unions of simple graphs, two triangles among them."""
    rng = random.Random(94)
    for g in random_small_graphs(seed=38, trials=80, max_n=6, max_m=9):
        counts = {e.id: rng.randint(1, 2) for e in g.edges}
        greedy = greedy_cycle_packing(Multiplicities(g, counts), sum(counts.values()))
        pairs = [c for c in greedy if len(c) == 2]
        for c in pairs:
            for eid in c.edge_ids():
                counts[eid] -= 1
        yield g, counts, len(greedy) - len(pairs)
    triangle = named_graph("triangle")
    yield _disjoint_union([triangle, triangle]), dict.fromkeys(range(1, 7), 1), 0
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(2, 3)):
            n = rng.randint(3, 5)
            parts.append(_simple(random_connected_graph(rng, n, rng.randint(n, 8))))
        g = _disjoint_union(parts)
        yield g, {e.id: rng.randint(0, 1) if rng.random() < 0.2 else 1 for e in g.edges}, 0


def test_packing_upper_bound_lies_between_the_maximum_and_the_cycle_ranks():
    # the kernel search skips the exhaustive packing search when greedy
    # meets this bound, so it may never fall below the maximum; summing the
    # ranks per component matters: two disjoint triangles have rank 1 as
    # one graph on 6 vertices, but hold 2 cycles
    strict = tight = 0
    for g, counts, floor in _bound_cases():
        edges = [e for e in g.edges if counts[e.id]]
        assert all(n <= 1 for n in counts.values()) and len({frozenset((e.u, e.v)) for e in edges}) == len(edges)
        nu = PackingSearch(g).run(counts, len(edges))[0]
        assert nu == max_disjoint_from_list(all_simple_cycles(g, counts), counts)
        cut = _CoreCut(g, {eid for eid, n in counts.items() if not n}).chains
        bound = packing_upper_bound(cut, 0)
        assert nu <= bound <= _component_ranks(edges), (g.edges, counts)
        # greedy's count never exceeds the maximum, so stopping at it
        # changes no bound
        assert packing_upper_bound(cut, floor) == bound
        strict += bound < _component_ranks(edges)
        tight += bound == nu
    assert strict >= 5 and tight >= 100


@pytest.mark.parametrize("paths", range(2, 9))
def test_packing_upper_bound_is_exact_on_bouquets_and_thetas(paths):
    # both have fractional packings within one half of the maximum; the
    # thetas' paths have unequal lengths, so no chain count alone decides
    rng = random.Random(paths)
    theta = theta_graph(paths, 1)
    uneven = inflate_chains(theta, {e.id: [1] * rng.randint(1, 4) for e in theta.edges})
    bowtie = named_graph("bowtie")  # two triangles on one vertex
    for g in (theta_graph(paths, 2), uneven, bouquet([1] * paths), _disjoint_union([bowtie] * paths)):
        nu = PackingSearch(g).run(dict.fromkeys(g.edge_by_id, 1), len(g.edges))[0]
        assert packing_upper_bound(_CoreCut(g).chains, 0) == nu


def test_removing_packing_preserves_even_degrees():
    for g in random_small_graphs(seed=34, trials=40):
        counts = {e.id: 2 for e in g.edges}
        m = Multiplicities(g, counts)
        assert even_degrees(m)
        packing = greedy_cycle_packing(m, 3)
        rest = m.without(Counter(eid for c in packing for eid in c.edge_ids()))
        assert even_degrees(rest)


def test_packing_respects_multiplicities():
    g = named_graph("triangle")
    m = Multiplicities.uniform(g)
    packing = greedy_cycle_packing(Multiplicities(g, {1: 2, 2: 2, 3: 2}), 3)
    with pytest.raises(GraphError):
        check_packing(m, packing)


def test_stop_at_caps_the_answer():
    g = named_graph("star3")
    m = Multiplicities(g, {1: 2, 2: 2, 3: 2})
    nu, witness = PackingSearch(g).run(m.counts, 2)
    assert nu == 2 and len(witness) == 2
    check_packing(m, witness)
    assert _exact_packing(m)[0] == 3


def test_reused_searcher_matches_enumeration_as_counts_widen():
    # one searcher per graph over count vectors whose largest count goes
    # 1, 2, 5 and back to 1: the field layout grows twice mid-sequence, and
    # no memo entry of an earlier layout may answer for a later one
    rng = random.Random(23)
    for core in random_small_graphs(seed=36, trials=30, max_n=4, max_m=5):
        e = rng.choice(core.edges)  # one more parallel edge
        g = MultiGraph.from_edges(
            core.vertex_count, [(f.u, f.v, f.weight) for f in core.edges] + [(e.u, e.v, e.weight)]
        )
        searcher = PackingSearch(g)
        for top in (1, 1, 2, 2, 5, 5, 1, 1):
            counts = {f.id: rng.randint(0, top) for f in g.edges}
            counts[rng.choice(g.edges).id] = top
            m = Multiplicities(g, counts)
            nu, witness = searcher.run(counts, m.copies() // 2)
            check_packing(m, witness)
            assert len(witness) == nu
            assert nu == max_disjoint_from_list(all_simple_cycles(g, counts), counts), (g.edges, counts)


def test_reused_searcher_never_reads_a_lower_bound_as_the_maximum():
    # target 1 leaves lower-bound memo entries (one cycle found, maybe more
    # there); the full search after it on the same searcher must not stop
    # at them, and target 2 after that is answered from exact entries
    rng = random.Random(24)
    for g in random_small_graphs(seed=37, trials=60, max_n=5, max_m=7):
        searcher = PackingSearch(g)
        counts = {e.id: rng.randint(0, 3) for e in g.edges}
        m = Multiplicities(g, counts)
        nu = max_disjoint_from_list(all_simple_cycles(g, counts), counts)
        for target in (1, m.copies() // 2, 2):
            got, witness = searcher.run(counts, target)
            check_packing(m, witness)
            assert got == len(witness) == min(nu, target), (g.edges, counts, target)


def test_packing_search_names_bad_counts():
    searcher = PackingSearch(named_graph("triangle"))
    with pytest.raises(GraphError, match="no edge with id 9"):
        searcher.run({1: 1, 2: 1, 9: 1}, 1)
    with pytest.raises(GraphError, match="edge 2 has negative count -1"):
        searcher.run({1: 1, 2: -1, 3: 1}, 1)
    assert searcher.run({1: 1, 2: 1, 3: 1}, 1)[0] == 1


def test_packing_budget_counts_the_cycle_listing(monkeypatch):
    # a 10-vertex ring with 4 parallel edges per step has 4^9 + 4 cycles
    # through its first edge; listing them alone passes a budget of 10000,
    # long before the memo holds a hundred entries
    monkeypatch.setattr(kpostman.cycles, "MAX_PACKING_STATES", 10_000)
    g = MultiGraph.from_edges(10, [(v, v % 10 + 1, 1) for v in range(1, 11) for _ in range(4)])
    searcher = PackingSearch(g)
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded) as refused:
        searcher.run(dict.fromkeys(g.edge_by_id, 1), 20)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == "search budget exceeded: more than 10000 packing states"
    assert len(searcher.memo) < 100


def test_packing_search_deeper_than_the_recursion_limit_is_refused():
    # the search drops one live slot per level, so a bouquet with more
    # edges than the recursion limit goes too deep: a typed refusal, not a
    # RecursionError, and the same searcher then answers 10 of its
    # triangles, which need only a shallow search
    g = bouquet([1] * (sys.getrecursionlimit() // 2))
    searcher = PackingSearch(g)
    with pytest.raises(SearchBudgetExceeded) as refused:
        searcher.run(dict.fromkeys(g.edge_by_id, 1), len(g.edges) // 3)
    assert str(refused.value) == "search budget exceeded: packing search deeper than the recursion limit"
    counts = dict.fromkeys(range(1, 31), 1)  # edges 3i+1..3i+3 are triangle i
    nu, witness = searcher.run(counts, 10)
    check_packing(Multiplicities(g, counts), witness)
    assert nu == len(witness) == 10


def test_empty_packing_for_tree():
    g = MultiGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    assert _exact_packing(Multiplicities.uniform(g))[0] == 0
    assert len(greedy_cycle_packing(Multiplicities.uniform(g), 2)) == 0


def test_cycle_packing_type_roundtrip():
    m = Multiplicities.uniform(named_graph("bowtie"))
    packing = greedy_cycle_packing(m, 2)
    assert isinstance(packing, tuple)
    assert sum(map(len, packing)) == 6
