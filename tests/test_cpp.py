"""Single-walk solver: joins, duplication, Euler tours."""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from kpostman._matching import min_weight_perfect_matching
from kpostman.cpp import (
    Multiplicities,
    _read_counts,
    euler_tour,
    min_weight_join,
    odd_vertices,
    solve_cpp,
)
from kpostman.generators import cycle_graph, inflate_chains
from kpostman.graph import GraphError, MultiGraph, Solution, verify_solution

from conftest import (
    bouquet,
    closed_walk,
    cpp_enumeration_minimum,
    edge_tour,
    even_degrees,
    join_enumeration_minimum,
    join_pairing_minimum,
    named_graph,
    odd_by_degree,
    random_connected_graph,
    random_small_graphs,
    shortest_distances,
)


def test_odd_vertices():
    assert odd_vertices(named_graph("triangle")) == frozenset()
    assert odd_vertices(named_graph("single")) == {1, 2}
    assert odd_vertices(named_graph("k4")) == {1, 2, 3, 4}


def test_odd_vertices_even_cardinality():
    for g in random_small_graphs(seed=3, trials=30):
        assert len(odd_vertices(g)) % 2 == 0


def test_join_triangle_empty():
    assert min_weight_join(named_graph("triangle"), frozenset()) == frozenset()


def test_join_single_edge():
    g = named_graph("single")
    assert min_weight_join(g, {1, 2}) == {1}


def test_join_k4_matches_brute_force():
    g = named_graph("k4")
    t = frozenset((1, 2, 3, 4))
    expected = join_enumeration_minimum(g, t)  # == 2, a perfect matching
    assert expected == 2
    join = min_weight_join(g, t)
    assert sum(g.edge(e).weight for e in join) == expected


def test_join_weight_equals_brute_force_on_random_graphs():
    for g in random_small_graphs(seed=11, trials=40, max_m=6):
        t = odd_by_degree(g)
        join = min_weight_join(g, t)
        got = sum(g.edge(e).weight for e in join)
        assert got == join_enumeration_minimum(g, t)


def test_join_parity_flips_exactly_t():
    for g in random_small_graphs(seed=12, trials=40):
        t = odd_by_degree(g)
        _assert_parity(g, min_weight_join(g, t), t)


def test_join_rejects_odd_t():
    with pytest.raises(GraphError):
        min_weight_join(named_graph("triangle"), {1})


def test_join_rejects_disconnected():
    g = MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(GraphError):
        min_weight_join(g, {1, 2})


@pytest.mark.parametrize("t,bad", [({0, 1}, 0), ({-1, 2}, -1), ({1, 99}, 99)])
def test_join_names_out_of_range_vertex(t, bad):
    g = MultiGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
        min_weight_join(g, t)


def test_join_with_terminals_inside_a_ring():
    g = cycle_graph(12)
    join = min_weight_join(g, {1, 5})
    assert sum(g.edge(e).weight for e in join) == 4 == join_enumeration_minimum(g, frozenset((1, 5)))
    _assert_parity(g, join, {1, 5})


def _assert_parity(g: MultiGraph, join: frozenset[int], t: set[int]) -> None:
    for v in g.vertices():
        flips = sum(1 for e in g.adjacency.get(v, ()) if e.id in join)
        assert (flips % 2 == 1) == (v in t), v


def _chain_inflated_graph(rng: random.Random) -> MultiGraph:
    """A ring, or a random multigraph whose edges become chains of 1-15
    segments, with pendant paths and loop chains hung on it; weights may
    be 0."""
    max_w = rng.choice((0, 1, 3, 20))
    if rng.random() < 0.1:
        n = rng.randint(3, 60)
        return cycle_graph(n, [rng.randint(0, max_w) for _ in range(n)])
    n = rng.randint(2, 10)
    base = random_connected_graph(rng, n, rng.randint(n - 1, 16), max_weight=max_w)
    segments = {
        e.id: [rng.randint(0, max_w) for _ in range(rng.randint(1, 15))] for e in base.edges
    }
    g = inflate_chains(base, segments)
    triples = [(e.u, e.v, e.weight) for e in g.edges]
    top = g.vertex_count
    for loop in range(rng.randint(0, 3)):  # a pendant path, then a loop chain, ...
        at = rng.randint(1, top)
        length = rng.randint(1, 10) + (loop % 2)
        path = [at] + list(range(top + 1, top + length + 1))
        top += length
        if loop % 2:
            path.append(at)
        triples += [(a, b, rng.randint(0, max_w)) for a, b in zip(path, path[1:])]
    return MultiGraph.from_edges(top, triples)


def test_join_weight_matches_pairing_oracle_on_chain_inflated_graphs():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        g = _chain_inflated_graph(rng)
        active = [v for v in g.vertices() if g.degree(v) > 0]
        odd = odd_by_degree(g)
        picked = frozenset(rng.sample(active, 2 * rng.randint(1, min(6, len(active) // 2))))
        for t in (odd, picked) if len(odd) <= 12 else (picked,):
            join = min_weight_join(g, t)
            assert sum(g.edge(e).weight for e in join) == join_pairing_minimum(g, t)
            _assert_parity(g, join, t)
            checked += 1
    assert checked > 500


# Every vertex a terminal.  On the first three graphs the matching shrinks
# an odd cycle of tight edges into a blossom, shrinks a blossom inside a
# blossom, and expands an inner blossom again; the last two have all-zero
# weights, and many optimal pairings of equal weight.
@pytest.mark.parametrize(
    "n,edges",
    [
        (4, [(2, 1, 1), (3, 1, 1), (4, 1, 1)]),
        (6, [(2, 1, 1), (3, 2, 1), (4, 3, 1), (5, 1, 1), (6, 1, 1)]),
        (6, [(2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 2, 1), (6, 2, 1), (6, 1, 1)]),
        (8, [(u, u % 8 + 1, 0) for u in range(1, 9)] + [(1, 5, 0), (3, 7, 0)]),
        (8, [(u, v, 1) for u in range(1, 9) for v in range(u + 1, 9)]),
    ],
    ids=["blossom", "nested-blossom", "expanded-blossom", "zero-weights", "tied-pairings"],
)
def test_join_on_blossom_forcing_metrics(n, edges):
    g = MultiGraph.from_edges(n, edges)
    t = frozenset(g.vertices())
    join = min_weight_join(g, t)
    expected = join_pairing_minimum(g, t)
    if len(edges) <= 10:
        assert expected == join_enumeration_minimum(g, t)
    assert sum(g.edge(e).weight for e in join) == expected
    _assert_parity(g, join, t)


def test_join_weight_matches_networkx_matching_above_the_old_cap():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    sizes = []
    for n in (30, 45, 60, 90, 120, 160, 200):
        g = random_connected_graph(rng, n, 3 * n // 2, max_weight=rng.choice((1, 5, 20)))
        t = odd_by_degree(g)
        dist = {s: shortest_distances(g, s) for s in t}
        complete = nx.Graph()
        complete.add_weighted_edges_from((a, b, dist[a][b]) for a, b in combinations(sorted(t), 2))
        expected = sum(dist[a][b] for a, b in nx.min_weight_matching(complete))
        join = min_weight_join(g, t)
        assert sum(g.edge(e).weight for e in join) == expected
        _assert_parity(g, join, t)
        sizes.append(len(t))
    assert min(sizes) > 16 and max(sizes) >= 90, sizes


def test_matching_is_a_minimum_perfect_matching_on_seeded_costs():
    # random costs from wide and narrow ranges (many ties) and all-equal
    # costs, against the minimum over all pairings by a DP over subsets
    rng = random.Random(29)
    for n in range(2, 13, 2):
        for high in (0, 1, 3, 1000):
            for _ in range(8):
                cost = [[0] * n for _ in range(n)]
                for i, j in combinations(range(n), 2):
                    cost[i][j] = cost[j][i] = rng.randint(0, high) + 7 * (high == 0)

                @cache
                def pairing(rest: frozenset[int]) -> int:
                    if not rest:
                        return 0
                    a = min(rest)
                    return min(cost[a][b] + pairing(rest - {a, b}) for b in rest - {a})

                mate = min_weight_perfect_matching(cost)
                assert all(mate[i] != i and mate[mate[i]] == i for i in range(n)), mate
                assert sum(cost[i][mate[i]] for i in range(n)) == 2 * pairing(frozenset(range(n)))


def test_join_names_terminals_without_a_path():
    # connected apart from the isolated terminals 4 and 5
    g = MultiGraph.from_edges(5, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(GraphError, match="no path between odd vertices 1 and 4"):
        min_weight_join(g, {1, 3, 4, 5})


@pytest.mark.parametrize(
    "name,expected",
    [("triangle", 3), ("k4", 8), ("star3", 6), ("single", 2), ("bowtie", 6)],
)
def test_solve_cpp_known_values(name, expected):
    g = named_graph(name)
    assert cpp_enumeration_minimum(g) == expected
    res = solve_cpp(g)
    assert res.weight == expected
    assert res.multiplicities.weight() == expected


def test_solve_cpp_triangle_join_empty():
    assert solve_cpp(named_graph("triangle")).join == frozenset()


def test_solve_cpp_star_doubles_everything():
    res = solve_cpp(named_graph("star3"))
    assert res.join == {1, 2, 3}


def test_solve_cpp_matches_enumeration():
    for g in random_small_graphs(seed=21, trials=60, max_n=6, max_m=8):
        assert solve_cpp(g).weight == cpp_enumeration_minimum(g)


def test_solve_cpp_duplicated_graph_is_eulerian():
    for g in random_small_graphs(seed=22, trials=30):
        m = solve_cpp(g).multiplicities
        assert even_degrees(m)
        walk = euler_tour(m, min(v for v in g.vertices() if g.degree(v) > 0))
        verify_solution(g, 1, Solution((walk,), m.weight()))


def test_solve_cpp_rejects_disconnected():
    g = MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(GraphError):
        solve_cpp(g)


def test_euler_tour_triangle():
    m = Multiplicities.uniform(named_graph("triangle"))
    walk = euler_tour(m, 1)
    assert len(walk) == 3
    assert walk.steps[0][0] == 1


def test_euler_tour_doubled_edge():
    m = Multiplicities(named_graph("single"), {1: 2})
    walk = euler_tour(m, 1)
    assert walk.steps == ((1, 1), (2, 1))


def test_euler_tour_bowtie_from_center():
    g = named_graph("bowtie")
    walk = euler_tour(Multiplicities.uniform(g), 3)
    assert len(walk) == 6
    verify_solution(g, 1, Solution((walk,), 6))


def test_euler_tour_deterministic_lowest_edge_first():
    g = named_graph("bowtie")
    w1 = euler_tour(Multiplicities.uniform(g), 3)
    w2 = euler_tour(Multiplicities.uniform(g), 3)
    assert w1 == w2
    # first departure from vertex 3 takes the lowest-id incident edge
    assert w1.steps[0][1] == min(e.id for e in g.adjacency[3])


def test_euler_tour_rejects_odd_degree():
    with pytest.raises(GraphError):
        euler_tour(Multiplicities.uniform(named_graph("single")), 1)


def test_euler_tour_rejects_disconnected_support():
    g = MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    m = Multiplicities(g, {1: 2, 2: 2})
    with pytest.raises(GraphError):
        euler_tour(m, 1)


def test_euler_tour_rejects_start_outside_component():
    g = named_graph("triangle")
    m = Multiplicities(g, {1: 2})
    with pytest.raises(GraphError):
        euler_tour(m, 3)


def test_euler_tour_names_out_of_range_start():
    with pytest.raises(GraphError, match="vertex 99 "):
        euler_tour(Multiplicities.uniform(named_graph("triangle")), 99)


@pytest.mark.parametrize(
    "name,counts,match",
    [
        ("path2", {1: 2, 2: -2}, "edge 2 has negative count -2"),
        ("triangle", {1: 1, 2: 1, 3: 1, 99: 2}, "no edge with id 99"),
    ],
    ids=["negative", "unknown"],
)
def test_euler_tour_names_bad_count(name, counts, match):
    with pytest.raises(GraphError, match=match):
        euler_tour(Multiplicities(named_graph(name), counts), 1)


THETA_WITH_DOUBLED_CHAIN = [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)]
DOUBLED_TRIANGLE_LOOP = [(e.u, e.v) for e in bouquet([1, 1]).edges]


@pytest.mark.parametrize(
    "edges,counts,start,steps,per_edge",
    [
        (
            THETA_WITH_DOUBLED_CHAIN,
            {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2},
            5,
            [(5, 5), (1, 1), (3, 2), (2, 4), (4, 3), (1, 5), (5, 6), (6, 7), (2, 7), (6, 6)],
            None,
        ),
        (
            [(1, 3), (3, 4), (4, 5), (5, 2), (1, 6), (6, 2), (1, 7), (7, 2)],
            {1: 2, 2: 2, 3: 0, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1},
            1,
            [(1, 1), (3, 2), (4, 2), (3, 1), (1, 5), (6, 6), (2, 4), (5, 4), (2, 8), (7, 7)],
            None,
        ),
        (
            [(v, v % 6 + 1) for v in range(1, 7)],
            dict.fromkeys(range(1, 7), 2),
            3,
            [(3, 2), (2, 1), (1, 1), (2, 2), (3, 3), (4, 4)]
            + [(5, 5), (6, 6), (1, 6), (6, 5), (5, 4), (4, 3)],
            None,
        ),
        (
            DOUBLED_TRIANGLE_LOOP,
            {1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1},
            1,
            [(1, 1), (2, 2), (3, 3), (1, 1), (2, 2), (3, 3), (1, 4), (4, 5), (5, 6)],
            [(1, 1), (2, 1), (1, 3), (3, 2), (2, 2), (3, 3), (1, 4), (4, 5), (5, 6)],
        ),
        (
            [(1, 2), (2, 3), (3, 4), (1, 5), (4, 1), (3, 5)],
            {1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1},
            1,
            [(1, 1), (2, 2), (3, 2), (2, 1), (1, 4), (5, 6), (3, 3), (4, 5)],
            [(1, 1), (2, 1), (1, 4), (5, 6), (3, 2), (2, 2), (3, 3), (4, 5)],
        ),
    ],
    ids=["start-inside-a-chain", "counts-2-2-0-2", "ring", "loop-chain", "doubled-chain"],
)
def test_euler_tour_crosses_runs_whole(edges, counts, start, steps, per_edge):
    # per_edge is the per-copy tour where it differs: it turns back inside
    # a doubled chain where the run tour crosses the chain whole
    g = MultiGraph.from_edges(max(map(max, edges)), [(u, v, 1) for u, v in edges])
    m = Multiplicities(g, counts)
    walk = euler_tour(m, start)
    assert list(walk.steps) == steps
    assert closed_walk(g, steps)
    assert Counter(walk.edge_ids()) == +Counter(counts)
    reference = edge_tour(g, _read_counts(m), dict.fromkeys(g.adjacency, 0), start)
    assert reference == (per_edge or steps)


@pytest.mark.parametrize(
    "edges,counts,match",
    [
        ([(1, 2)], {1: 1}, "vertex 1 has odd degree 1"),
        ([(1, 2), (2, 3)], {1: 2, 2: 1}, "vertex 2 has odd degree 3"),
        ([(v, v % 4 + 1) for v in range(1, 5)], {1: 1, 2: 2, 3: 1, 4: 1}, "vertex 2 has odd degree 3"),
        (THETA_WITH_DOUBLED_CHAIN, {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 2}, "vertex 5 has odd degree 3"),
    ],
    ids=["anchor", "path-interior", "ring-interior", "chain-interior"],
)
def test_euler_tour_names_the_lowest_odd_vertex(edges, counts, match):
    g = MultiGraph.from_edges(max(map(max, edges)), [(u, v, 1) for u, v in edges])
    with pytest.raises(GraphError, match=match):
        euler_tour(Multiplicities(g, counts), 1)


def test_euler_tour_long_cycle_runs_without_recursion():
    g = cycle_graph(20000)
    walk = euler_tour(Multiplicities.uniform(g), 1)
    assert [e for _, e in walk.steps] == list(range(1, 20001))
    verify_solution(g, 1, Solution((walk,), 20000))


def test_multiplicities_weight_ignores_nonpositive_counts_and_names_unknown_ids():
    g = MultiGraph.from_edges(3, [(1, 2, 2), (2, 3, 5), (3, 1, 7)])
    assert Multiplicities(g, {3: 3, 1: 2, 2: 1}).weight() == 21 + 4 + 5
    # a count <= 0 adds nothing, and its id is never looked up
    assert Multiplicities(g, {1: 2, 2: 0, 3: -1, 9: 0, 8: -2}).weight() == 4
    assert Multiplicities(g, {}).weight() == 0
    for counts in ({1: 1, 9: 1, 8: 2, 2: 1}, {1: 1, 2: 0, 9: 1, 8: 1}):
        with pytest.raises(GraphError, match="^no edge with id 9$"):
            Multiplicities(g, counts).weight()
    rng = random.Random(84)
    for g in random_small_graphs(84, 200, max_n=6, max_m=10, max_w=9):
        counts = {e.id: rng.randint(-1, 3) for e in g.edges if rng.random() < 0.9}
        want = sum(e.weight * counts[e.id] for e in g.edges if counts.get(e.id, 0) > 0)
        assert Multiplicities(g, counts).weight() == want
