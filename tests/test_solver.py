"""Walk splitting, the restricted exact search, the pipeline, and the oracle."""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kpostman.kernel
import kpostman.solve
import kpostman.walks
from kpostman import graph as graph_module
from kpostman.cpp import (
    Multiplicities,
    euler_tour,
    min_weight_join,
    odd_vertices,
    solve_cpp,
)
from kpostman.cycles import (
    PackingSearch,
    check_packing,
    greedy_cycle_packing,
)
from kpostman.digraph import parse_directed_instance, verify_packing_equivalence
from kpostman.generators import (
    cycle_graph,
    inflate_chains,
    named_graph,
    random_connected_graph,
    theta_graph,
    uniform_inflation,
)
from kpostman.graph import (
    Edge,
    GraphError,
    MultiGraph,
    SearchBudgetExceeded,
    Solution,
    Walk,
    is_connected,
    parse_instance,
    serialize_solution,
    verify_solution,
)
from kpostman.kernel import Reduced, kernelize, pendant_shortcut
from kpostman.solve import (
    MAX_SEARCH_SETS,
    oracle_kcpp,
    solve_kcpp,
    solve_kcpp_exact,
)
from kpostman.walks import split_into_k_walks

from conftest import (
    bfs_connected,
    bouquet,
    chain_union_minimum,
    closed_walk,
    even_degrees,
    odd_by_degree,
    random_small_graphs,
    reference_split,
    seeded_load,
)


def two_cycle(g, eid):
    e = g.edge(eid)
    return Walk(((e.u, eid), (e.v, eid)))


def test_split_triangle_all_doubled_into_three_walks():
    g = named_graph("triangle")
    m = Multiplicities(g, {1: 2, 2: 2, 3: 2})
    packing = tuple(two_cycle(g, i) for i in (1, 2, 3))
    sol = split_into_k_walks(m, packing)
    assert sol.total_weight == 6
    assert [len(w) for w in sol.walks] == [2, 2, 2]
    verify_solution(g, 3, sol)


def test_split_bowtie_two_triangles():
    g = named_graph("bowtie")
    m = Multiplicities.uniform(g)
    packing = greedy_cycle_packing(m, 2)
    sol = split_into_k_walks(m, packing)
    assert sol.total_weight == 6
    verify_solution(g, 2, sol)


def test_split_star_absorbs_leftover_pair():
    g = named_graph("star3")
    m = Multiplicities(g, {1: 2, 2: 2, 3: 2})
    packing = (two_cycle(g, 1), two_cycle(g, 2))
    sol = split_into_k_walks(m, packing)
    assert sorted(len(w) for w in sol.walks) == [2, 4]
    assert sol.total_weight == 6
    verify_solution(g, 2, sol)


def test_split_rejects_packing_not_in_m():
    g = named_graph("triangle")
    m = Multiplicities.uniform(g)
    packing = (two_cycle(g, 1),)
    with pytest.raises(GraphError):
        split_into_k_walks(m, packing)


def test_split_rejects_odd_degrees():
    g = named_graph("path2")
    m = Multiplicities(g, {1: 2, 2: 1})
    with pytest.raises(GraphError):
        split_into_k_walks(m, (two_cycle(g, 1),))


@pytest.fixture
def tour_starts(monkeypatch):
    """The start vertex of every walks._tour call, in call order."""
    starts = []
    tour = kpostman.walks._tour

    def counted(runs, start):
        starts.append(start)
        return tour(runs, start)

    monkeypatch.setattr(kpostman.walks, "_tour", counted)
    return starts


def split_steps(g, counts, cycles):
    sol = split_into_k_walks(Multiplicities(g, counts), cycles)
    verify_solution(g, len(cycles), sol)
    return [list(w.steps) for w in sol.walks]


def test_split_pins_two_components_in_one_cycle(tour_starts):
    # triangle 1-2-3 packed; a leftover triangle 3-4-5 and a doubled 1-6
    g = MultiGraph.from_edges(
        6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (1, 6, 1)]
    )
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2}
    assert split_steps(g, counts, [Walk(((1, 1), (2, 2), (3, 3)))]) == [
        [(1, 7), (6, 7), (1, 1), (2, 2), (3, 4), (4, 5), (5, 6), (3, 3)]
    ]
    assert tour_starts == [1, 2, 3]  # from vertex 2 too, as copies are left then


def test_split_pins_component_touching_two_cycles_goes_to_the_first(tour_starts):
    # triangles 1-2-3 and 4-5-6 joined by a doubled 3-4
    g = MultiGraph.from_edges(
        6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1), (3, 4, 1)]
    )
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2}
    a, b = Walk(((1, 1), (2, 2), (3, 3))), Walk(((4, 4), (5, 5), (6, 6)))
    assert split_steps(g, counts, [a, b]) == [
        [(1, 1), (2, 2), (3, 7), (4, 7), (3, 3)],
        [(4, 4), (5, 5), (6, 6)],
    ]
    assert split_steps(g, counts, [b, a]) == [
        [(4, 7), (3, 7), (4, 4), (5, 5), (6, 6)],
        [(1, 1), (2, 2), (3, 3)],
    ]
    # the later cycle starts no tour in either split: nothing is left by then
    assert tour_starts == [1, 2, 3, 4]


def test_split_pins_lowest_shared_vertex_not_first_in_cycle(tour_starts):
    # square 1-2-3-4 packed from vertex 3; a doubled diagonal 1-3 is left over
    g = MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1)])
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}
    assert split_steps(g, counts, [Walk(((3, 3), (4, 4), (1, 1), (2, 2)))]) == [
        [(3, 3), (4, 4), (1, 5), (3, 5), (1, 1), (2, 2)]
    ]
    assert tour_starts == [1]


def test_split_pins_runs_cut_at_packed_vertices_inside_a_chain(tour_starts):
    # anchors 1 and 2 joined by the doubled chain 1-3-4-5-2 and two plain
    # chains; a 2-cycle packed on the chain's third edge leaves it 2, 2, 0, 2
    g = MultiGraph.from_edges(
        7, [(1, 3, 1), (3, 4, 1), (4, 5, 1), (5, 2, 1), (1, 6, 1), (6, 2, 1), (1, 7, 1), (7, 2, 1)]
    )
    counts = {1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1}
    assert split_steps(g, counts, [Walk(((4, 3), (5, 3)))]) == [
        [(4, 2), (3, 1), (1, 5), (6, 6), (2, 4), (5, 4), (2, 8), (7, 7), (1, 1), (3, 2), (4, 3), (5, 3)]
    ]
    assert tour_starts == [4]


def checked_split(g, counts, cycles):
    """split_into_k_walks, its walks verified, its total equal to m's
    weight and the whole split equal to the reference split's."""
    m = Multiplicities(g, counts)
    sol = split_into_k_walks(m, cycles)
    assert verify_solution(g, len(cycles), sol) == sol.total_weight == m.weight()
    assert sol == reference_split(m, cycles)
    return sol


def test_split_crosses_runs_where_the_leftover_count_changes_inside_a_chain(tours):
    # anchors 1 and 2; the square 1-3-4-2-5 is packed, and the chain
    # 1-6-7-8-2 is left with counts 2, 4, 4, 2: runs 1-6, 6-7-8 and 8-2,
    # the middle one weighing its two edges
    g = MultiGraph.from_edges(8, [
        (1, 3, 2), (3, 4, 3), (4, 2, 5), (1, 5, 7), (5, 2, 11),
        (1, 6, 13), (6, 7, 17), (7, 8, 19), (8, 2, 23),
    ])  # fmt: skip
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4, 8: 4, 9: 2}
    sol = checked_split(g, counts, [Walk(((1, 1), (3, 2), (4, 3), (2, 5), (5, 4)))])
    assert sol.total_weight == 28 + 2 * 13 + 4 * (17 + 19) + 2 * 23
    [(steps, stood, weight)] = [t for t in tours if t.steps]
    assert steps[0][0] == 1 and set(stood) == {1, 6, 8, 2}  # 7 lies inside a run
    assert weight == sol.total_weight - 28


def test_split_starts_tours_inside_chains(tour_starts, tours):
    # anchors 5 and 6 joined by the chains 5-1-2-6 (three copies), 5-3-6
    # (one) and 5-4-6 (two); the packed cycle runs through both chains of
    # lesser labels, so its lowest vertex 1 lies inside a chain
    g = MultiGraph.from_edges(
        6, [(5, 1, 1), (1, 2, 2), (2, 6, 3), (5, 3, 4), (3, 6, 5), (5, 4, 6), (4, 6, 7)]
    )
    counts = {1: 3, 2: 3, 3: 3, 4: 1, 5: 1, 6: 2, 7: 2}
    sol = checked_split(g, counts, [Walk(((1, 2), (2, 3), (6, 5), (3, 4), (5, 1)))])
    assert tour_starts == [1]
    assert sol.walks[0].steps[0] == (1, 1)  # the tour comes before the cycle's first step
    assert set(tours[0].stood) == {1, 2, 5, 6}
    assert sol.total_weight == 15 + 2 * (1 + 2 + 3) + 2 * (6 + 7)


@pytest.mark.parametrize("b_first", [False, True])
def test_split_links_cycles_through_a_run_end_a_tour_reaches_midway(tours, b_first):
    # triangles 1-2-3 and 7-8-9 packed, linked only by the doubled chain
    # 3-4-5-8: the first cycle's tour crosses it whole and back, so it
    # stands on the other cycle's vertex mid-way and never on 4 or 5
    g = MultiGraph.from_edges(9, [
        (1, 2, 1), (2, 3, 1), (3, 1, 1), (7, 8, 2), (8, 9, 2), (9, 7, 2),
        (3, 4, 3), (4, 5, 4), (5, 8, 5),
    ])  # fmt: skip
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 2}
    a, b = Walk(((1, 1), (2, 2), (3, 3))), Walk(((7, 4), (8, 5), (9, 6)))
    sol = checked_split(g, counts, [b, a] if b_first else [a, b])
    assert sol.total_weight == 3 + 6 + 2 * 12
    [(steps, stood, weight)] = [t for t in tours if t.steps]
    assert stood == ([8, 3] if b_first else [3, 8]) and weight == 24


def test_split_refuses_a_leftover_that_touches_no_cycle():
    # the triangle 1-2-3 is packed; the triangle 4-5-6 and a doubled 7-8
    # are left over and reach no packed cycle
    g = MultiGraph.from_edges(
        8, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1), (7, 8, 1)]
    )
    m = Multiplicities(g, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2})
    packing = (Walk(((1, 1), (2, 2), (3, 3))),)
    for split in (split_into_k_walks, reference_split):
        with pytest.raises(GraphError, match="^multigraph must be connected$"):
            split(m, packing)


@pytest.mark.parametrize(
    "name,counts,match",
    [
        ("path2", {1: 2, 2: -2}, "edge 2 has negative count -2"),
        ("triangle", {1: 2, 2: 2, 3: 2, 99: 0}, "no edge with id 99"),
    ],
    ids=["negative", "unknown"],
)
def test_split_names_bad_count(name, counts, match):
    g = named_graph(name)
    with pytest.raises(GraphError, match=match):
        split_into_k_walks(Multiplicities(g, counts), (two_cycle(g, 1),))


def large_even_covers():
    """Even multigraphs of 200 to 5000 edge copies: single-walk covers of
    inflated K4s and doubled random graphs."""
    rng = random.Random(8)
    for length in (34, 90, 400):
        g = uniform_inflation(named_graph("k4"), length, rng.randint(1, 3))
        yield g, solve_cpp(g).multiplicities
    for n, m in ((60, 100), (300, 600), (1000, 2500)):
        g = random_connected_graph(rng, n, m, max_weight=4)
        yield g, Multiplicities.uniform(g, 2)


def test_tours_and_splits_above_the_oracle_gate():
    sizes = []
    for i, (g, m) in enumerate(large_even_covers()):
        sizes.append(m.copies())
        expected = Counter({eid: c for eid, c in m.counts.items() if c})
        tour = euler_tour(m, min(v for v in g.vertices() if g.degree(v)))
        verify_solution(g, 1, Solution((tour,), m.weight()))
        assert Counter(tour.edge_ids()) == expected
        packing = greedy_cycle_packing(m, i % 4 + 2)
        sol = split_into_k_walks(m, packing)
        verify_solution(g, len(packing), sol)
        assert sum((Counter(w.edge_ids()) for w in sol.walks), Counter()) == expected
        for walk, cyc in zip(sol.walks, packing):
            assert walk.steps[0][0] == cyc.steps[0][0]
            it = iter(walk.steps)
            assert all(step in it for step in cyc.steps)
    assert min(sizes) >= 200 and max(sizes) <= 5000


def star(leaves: int) -> MultiGraph:
    return MultiGraph.from_edges(leaves + 1, [(1, i, 1) for i in range(2, leaves + 2)])


def two_cycles(g) -> tuple[Walk, ...]:
    """A 2-cycle on every edge of g: all copies of g doubled."""
    return tuple(two_cycle(g, e.id) for e in g.edges)


def split_cases():
    """Covers and packings for the split: greedy packings of the large
    covers and of random small ones with extra pairs, the same cycles
    rotated and reordered, random counts that may leave odd or split
    covers, and all-2-cycle packings at large k, whole and partial."""
    rng = random.Random(28)
    for i, (g, m) in enumerate(large_even_covers()):
        for k in (1, i % 4 + 2, 40):
            yield m, greedy_cycle_packing(m, k)
    for g in random_small_graphs(seed=28, trials=200, max_n=8, max_m=14, max_w=3):
        counts = dict(solve_cpp(g).multiplicities.counts)
        for e in rng.sample(g.edges, rng.randint(0, len(g.edges))):
            counts[e.id] += 2
        m = Multiplicities(g, counts)
        cycles = list(greedy_cycle_packing(m, m.copies()))
        for k in {1, rng.randint(1, len(cycles)), len(cycles)}:
            yield m, tuple(cycles[:k])
        turned = []
        for c in cycles:
            r = rng.randrange(len(c))
            turned.append(Walk(c.steps[r:] + c.steps[:r]))
        rng.shuffle(turned)
        yield m, tuple(turned[: rng.randint(1, len(turned))])
        for options in ((0, 1, 2, 3), (0, 2)):
            m = Multiplicities(g, {e.id: rng.choice(options) for e in g.edges})
            packing = greedy_cycle_packing(m, rng.randint(1, 4))
            if packing:
                yield m, packing
    for g in (star(3), star(400), named_graph("k4")):
        yield Multiplicities.uniform(g, 2), two_cycles(g)
    for n, edges in ((20, 40), (300, 700)):
        g = random_connected_graph(rng, n, edges, max_weight=4)
        yield Multiplicities.uniform(g, 2), two_cycles(g)
        yield Multiplicities.uniform(g, 2), two_cycles(g)[::3]


def split_outcome(split, m, packing):
    try:
        return split(m, packing)
    except GraphError as exc:
        return str(exc)


def test_split_matches_the_reference_split():
    seen = Counter()
    for m, packing in split_cases():
        got = split_outcome(split_into_k_walks, m, packing)
        assert got == split_outcome(reference_split, m, packing), (m.base.edges, m.counts, packing)
        if isinstance(got, str):
            seen[got] += 1
        else:
            bare = tuple(packing)
            seen["toured" if got.walks != bare else "bare"] += 1
    assert len(seen) == 4, seen  # both refusals, and splits with and without tours


@pytest.mark.parametrize(
    "copies,cycles,message",
    [
        (2, [Walk(())], None),
        (2, [Walk(((1, 1),))], None),
        # stops an edge short: edge 2 leaves 2 for 3, not for 1
        (2, [Walk(((1, 1), (2, 2)))], "edge 2 does not join 2 and 1"),
        (2, [Walk(((1, 1), (2, 2), (3, 2), (2, 1)))], None),
        (2, [Walk(((1, 1), (2, 3), (3, 2)))], "edge 3 does not join 2 and 3"),
        (2, [Walk(((1, 3), (2, 1), (3, 2)))], "edge 3 does not join 1 and 2"),
        (2, [Walk(((1, 2), (2, 3), (3, 1)))], "edge 2 does not join 1 and 2"),
        (2, [Walk(((1, 1), (2, 9)))], "no edge with id 9"),
        (1, [Walk(((1, 1), (2, 1)))], "cycles use edge 1 more often than it has copies"),
        (
            2,
            [Walk(((1, 1), (2, 1))), Walk(((2, 1), (1, 1)))],
            "cycles use edge 1 more often than it has copies",
        ),
        (
            1,
            [Walk(((1, 1), (2, 2), (3, 3))), Walk(((3, 2), (2, 1), (1, 3)))],
            "cycles use edge 2 more often than it has copies",
        ),
    ],
    ids=[
        "empty",
        "one-edge",
        "vertex-count",
        "repeated-vertex",
        "edge-not-joining",
        "edges-meeting-the-first-end",
        "edges-meeting-the-second-end",
        "unknown-edge",
        "overdrawn-in-one-cycle",
        "overdrawn-by-two-2-cycles",
        "overdrawn-by-two-triangles",
    ],
)
def test_malformed_packings_are_refused(copies, cycles, message):
    # the doubled or plain triangle: even and connected, so only the
    # packing is at fault; check_packing names the first check that fails,
    # and a walk too short or with a repeated vertex is named whole (None)
    m = Multiplicities.uniform(named_graph("triangle"), copies)
    if len(cycles) > 1:
        for c in cycles:
            check_packing(m, (c,))  # each fits m alone
    with pytest.raises(GraphError) as refused:
        check_packing(m, cycles)
    shape = f"cycle must have >= 2 edges and as many distinct vertices, got {cycles[0]}"
    assert str(refused.value) == (message or shape)
    for split in (split_into_k_walks, reference_split):
        with pytest.raises(GraphError):
            split(m, cycles)


@pytest.mark.parametrize(
    "name,cover,cycles",
    [
        ("path2", {1: 2, 2: 1}, [(1, 2), (1, 1)]),
        ("triangle", {1: 2, 2: 1, 3: 2}, [(1, 2), (1, 1)]),
        ("k4", {1: 2, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2}, [(1, 2), (1, 1)]),
        ("k4", {1: 2, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2}, [(1, 2), (1, 1), (3, 4), (6, 6)]),
        ("k4", {1: 4, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2}, [(1, 2), (1, 1), (1, 2), (1, 1)]),
    ],
    ids=["odd-path", "odd-triangle", "split-leftover", "split-cycles", "split-doubled"],
)
def test_split_refuses_odd_and_split_covers(name, cover, cycles):
    g = named_graph(name)
    m = Multiplicities(g, cover)
    packing = tuple(Walk(tuple(zip(vs, es))) for vs, es in zip(cycles[::2], cycles[1::2]))
    check_packing(m, packing)
    for split in (split_into_k_walks, reference_split):
        with pytest.raises(GraphError, match="odd degree|must be connected"):
            split(m, packing)


@pytest.fixture
def tours(monkeypatch):
    """Every tour walks._tour returns, in call order."""
    out = []
    tour = kpostman.walks._tour

    def recorded(runs, start):
        out.append(tour(runs, start))
        return out[-1]

    monkeypatch.setattr(kpostman.walks, "_tour", recorded)
    return out


def seeded_splits():
    """(cover, packing) of every split that solve_kcpp makes on the seeded
    chains, joins and search benchmark loads of the default seed."""
    calls = []

    def recorded(m, packing):
        calls.append((m, packing))
        return split_into_k_walks(m, packing)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kpostman.kernel, "split_into_k_walks", recorded)
        mp.setattr(kpostman.solve, "split_into_k_walks", recorded)
        for workload in ("chains", "joins", "search"):
            for spec in seeded_load(workload):
                solve_kcpp(MultiGraph.from_edges(spec.n, spec.triples), spec.k)
    return calls


def test_run_tours_match_the_per_edge_tours(tours):
    # every run tour is a closed walk, the tours of one split spend each
    # leftover copy once, and each walk has the start vertex and the edge
    # multiset of the split that tours edge copy by edge copy; each tour
    # hands back the weight of its steps and, among the vertices it stood
    # on, every packed-cycle vertex it reached
    seen = Counter()
    for m, packing in [*split_cases(), *seeded_splits()]:
        tours.clear()
        got = split_outcome(split_into_k_walks, m, packing)
        want = split_outcome(partial(reference_split, per_edge=True), m, packing)
        if isinstance(got, str):
            assert got == want
            seen["refused"] += 1
            continue
        assert [(w.steps[0][0], Counter(w.edge_ids())) for w in got.walks] == [
            (w.steps[0][0], Counter(w.edge_ids())) for w in want.walks
        ], (m.base.edges, m.counts, packing)
        on_cycles = {v for c in packing for v, _ in c.steps}
        for tour, stood, weight in tours:
            assert closed_walk(m.base, tour)
            assert weight == sum(m.base.edge(eid).weight for _, eid in tour)
            reached = {v for v, _ in tour}
            assert reached & on_cycles <= set(stood) <= reached
        spent = sum((Counter(eid for _, eid in t.steps) for t in tours), Counter())
        left, packed = check_packing(m, packing)
        assert spent == +Counter(left)
        assert packed == sum(c.weight(m.base) for c in packing)
        seen["toured" if tours else "bare"] += 1
        seen["reordered"] += got.walks != want.walks
    assert min(seen.values()) > 0, seen  # refusals, splits with and without tours, new orders


@pytest.mark.parametrize("g", [star(3), named_graph("triangle"), named_graph("k4"), star(400)])
def test_split_tours_nothing_when_the_packing_spends_every_copy(g, tour_starts):
    sol = split_into_k_walks(Multiplicities.uniform(g, 2), two_cycles(g))
    verify_solution(g, len(g.edges), sol)
    assert tour_starts == []


@pytest.mark.parametrize(
    "name,k,expected",
    [("triangle", 2, 5), ("single", 2, 4), ("triangle", 1, 3), ("triangle", 3, 6)],
)
def test_exact_known_values(name, k, expected):
    g = named_graph(name)
    sol = solve_kcpp_exact(g, k)
    assert sol.total_weight == expected
    verify_solution(g, k, sol)
    assert oracle_kcpp(g, k) == expected


def test_exact_matches_oracle_everywhere_reachable():
    # the restriction to whole chains plus pairs on one minimum-weight edge
    # must not lose the optimum anywhere the raw enumeration can see
    for i, g in enumerate(random_small_graphs(seed=61, trials=50, max_n=4, max_m=6)):
        k = i % 3 + 1
        sol = solve_kcpp_exact(g, k)
        verify_solution(g, k, sol)
        assert sol.total_weight == oracle_kcpp(g, k)


def _chain_search_corpus():
    """Kernels of seeded random graphs with up to 14 chains, a quarter of
    them with zero-weight edges, then the shapes the cycle-space search
    treats apart: bouquets (loop chains only), rings, and thetas (parallel
    chains)."""
    rng = random.Random(83)
    corpus = []
    while len(corpus) < 120:
        n = rng.randint(6, 10)
        g = random_connected_graph(rng, n, rng.randint(n + 3, n + 9), max_weight=3)
        if len(corpus) % 4:
            g = MultiGraph.from_edges(n, [(e.u, e.v, e.weight + 1) for e in g.edges])
        k = rng.randint(3, 10)
        out = kernelize(g, k)
        if isinstance(out, Reduced) and len(out.kernel.chains) <= 14:
            corpus.append((out.kernel, k))
    for t in range(2, 13, 2):
        corpus.append((bouquet([rng.randint(1, 3) for _ in range(t)]), t + rng.randint(1, t)))
    for n in (3, 5, 8):
        corpus.append((cycle_graph(n, [rng.randint(1, 4) for _ in range(n)]), rng.randint(1, 4)))
    for paths, length in ((2, 3), (4, 2), (5, 1), (6, 2)):
        corpus.append((theta_graph(paths, length, rng.randint(1, 3)), rng.randint(2, 6)))
    return corpus


def test_exact_matches_the_chain_union_oracle():
    corpus = _chain_search_corpus()
    chains = [len(g.chains) for g, _ in corpus]
    assert max(chains) == 14 and sum(g.min_weight() == 0 for g, _ in corpus) >= 20
    for g, k in corpus:
        best = chain_union_minimum(g, k)
        # the same ids with the edges out of id order, so the cut's chain
        # order is not the first-edge order the reference sorts into
        for h in (g, MultiGraph(g.vertex_count, g.edges[::-1])):
            sol = solve_kcpp_exact(h, k)
            assert verify_solution(h, k, sol) == sol.total_weight == best


def _counted_searches(monkeypatch) -> tuple[list[int], list[bool]]:
    """Record greedy's simple-cycle count for each set whose packing greedy
    leaves short (the floor the kernel search gives packing_upper_bound),
    and, per PackingSearch.run that follows, whether it found more."""
    floors: list[int] = []
    improved: list[bool] = []
    bound, run = kpostman.solve.packing_upper_bound, PackingSearch.run

    def recorded_bound(chains, floor):
        floors.append(floor)
        return bound(chains, floor)

    def counted_run(self, counts, target):
        got, found = run(self, counts, target)
        improved.append(got > floors[-1])
        return got, found

    monkeypatch.setattr(kpostman.solve, "packing_upper_bound", recorded_bound)
    monkeypatch.setattr(PackingSearch, "run", counted_run)
    return floors, improved


def test_bound_keeps_the_search_where_it_beats_greedy(monkeypatch):
    # a search-style instance (a random base, its edges subdivided into
    # weighted chains): on one even set greedy packs 2 simple cycles and
    # the search 3, which the optimum needs; greedy's packings alone would
    # cost 56
    g = MultiGraph.from_edges(14, [
        (1, 7, 2), (7, 8, 5), (8, 9, 4), (9, 4, 5), (1, 10, 4), (10, 2, 1), (4, 11, 2),
        (11, 12, 5), (12, 13, 1), (13, 6, 3), (4, 5, 1), (1, 3, 2), (2, 5, 1), (6, 14, 3),
        (14, 5, 2), (6, 4, 2), (5, 6, 3),
    ])  # fmt: skip
    _, improved = _counted_searches(monkeypatch)
    sol = solve_kcpp_exact(g, 7)
    assert True in improved
    assert verify_solution(g, 7, sol) == sol.total_weight == chain_union_minimum(g, 7) == 54


def test_bound_leaves_the_search_only_where_it_beats_greedy(monkeypatch):
    # without the bound every set that greedy leaves short ran the search
    # (over 400 here); with it, only the sets where the search finds more
    floors, improved = _counted_searches(monkeypatch)
    for g, k in _chain_search_corpus():
        solve_kcpp_exact(g, k)
    assert len(floors) > 400
    assert 0 < len(improved) <= 10 and all(improved)


def test_exact_search_pays_its_pairs_off_the_counts_greedy_read(monkeypatch):
    # the triangle holds one cycle, so k = 3 pays two pairs on edge 1, the
    # lightest; they go on the final cover, not on the counts greedy read
    calls = []
    greedy = kpostman.solve.greedy_cycle_packing

    def recorded(m, k, cut):
        calls.append((m, dict(m.counts)))
        return greedy(m, k, cut)

    monkeypatch.setattr(kpostman.solve, "greedy_cycle_packing", recorded)
    g = MultiGraph.from_edges(3, [(1, 2, 1), (2, 3, 5), (3, 1, 5)])
    assert solve_kcpp_exact(g, 3).total_weight == 11 + 2 * 2
    assert calls and all(m.counts == read for m, read in calls), calls


def test_greedy_cut_holds_every_copy_its_two_cycles_leave(monkeypatch):
    # the kernel search packs greedy's cut, one copy per edge, in place of
    # the counts less greedy's 2-cycles: on every even set it visits, the
    # rest is even, so it is its own 2-core and has no edge with two copies
    calls = []
    greedy = kpostman.solve.greedy_cycle_packing

    def recorded(m, k, cut):
        packing = greedy(m, k, cut)
        calls.append((m.base, dict(m.counts), k, cut, packing))
        return packing

    monkeypatch.setattr(kpostman.solve, "greedy_cycle_packing", recorded)
    for g, k in _chain_search_corpus():
        solve_kcpp_exact(g, k)
    short = 0
    for g, counts, k, cut, packing in calls:
        if len(packing) == k:
            continue
        short += 1
        left = Counter(counts)
        left.subtract(eid for c in packing if len(c) == 2 for eid in c.edge_ids())
        on_cut = Counter(eid for c in cut for eid in c.edges)
        assert on_cut == +left and set(on_cut.values()) <= {1}, (g.edges, counts)
    assert short > 400


# (weights 1-4, seed, k) of random_connected_graph(n=16, m=24) whose kernels
# keep 17-24 chains; weights 0-4 draw a zero weight, so mu = 0 there
ABOVE_CHAIN_CAP = [
    (False, 0, 20),
    (False, 1, 12),
    (False, 2, 20),
    (False, 4, 20),
    (True, 0, 14),
    (True, 1, 14),
    (True, 2, 10),
]


@pytest.mark.parametrize("positive,seed,k", ABOVE_CHAIN_CAP)
def test_metamorphic_relations_above_the_old_chain_cap(positive, seed, k):
    g = random_connected_graph(random.Random(seed), 16, 24, max_weight=3 if positive else 4)
    if positive:
        g = MultiGraph.from_edges(16, [(e.u, e.v, e.weight + 1) for e in g.edges])
    out = kernelize(g, k)
    assert isinstance(out, Reduced) and 17 <= len(out.kernel.chains) <= 24
    cpp, mu = solve_cpp(g).weight, g.min_weight()
    assert (mu > 0) == positive
    res = _solved(g, k)
    assert res.method == "kernel"
    assert cpp <= res.weight <= cpp + 2 * mu * (k - 1)
    assert res.weight <= _solved(g, k + 1).weight <= res.weight + 2 * mu
    relabel = [0, *random.Random(seed).sample(range(1, 17), 16)]
    moved = MultiGraph.from_edges(16, [(relabel[e.u], relabel[e.v], e.weight) for e in g.edges[::-1]])
    assert _solved(moved, k).weight == res.weight
    scaled = MultiGraph.from_edges(16, [(e.u, e.v, 3 * e.weight) for e in g.edges])
    assert _solved(scaled, k).weight == 3 * res.weight


def test_bouquet_of_24_triangles():
    # 24 loop chains, so 2^24 even sets: three triangles doubled give the
    # 30 cycles, 72 + 9 = 81, and the search stops after about 300 sets
    g = bouquet([1] * 24)
    assert len(g.chains) == 24
    res = _solved(g, 30)
    assert (res.weight, res.method) == (81, "kernel")


def test_bouquet_of_25_triangles():
    # 25 loop chains: each doubled triangle adds 3 weight and 2 cycles, each
    # pair on e_min 2 weight and 1 cycle, so k = 30 takes two triangles and
    # a pair, 75 + 8 = 83, and k = 31 three triangles, 75 + 9 = 84
    g = bouquet([1] * 25)
    assert len(g.chains) == 25
    assert isinstance(kernelize(g, 30), Reduced)
    for k, weight in ((30, 83), (31, 84)):
        res = _solved(g, k)
        assert (res.weight, res.method) == (weight, "kernel")


def test_refuses_past_the_set_budget():
    # at k = 40 the optimum doubles 8 triangles, past every set of up to 7
    start = time.perf_counter()
    with pytest.raises(
        SearchBudgetExceeded, match=f"more than {MAX_SEARCH_SETS} even duplication sets$"
    ):
        solve_kcpp(bouquet([1] * 24), 40)
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "call",
    [
        lambda g: kernelize(g, 2),
        solve_cpp,
        lambda g: min_weight_join(g, {1, 2}),
        lambda g: solve_kcpp(g, 2),
    ],
    ids=["kernelize", "solve_cpp", "min_weight_join", "solve_kcpp"],
)
def test_entry_points_reject_disconnected(call):
    # the cut of each has open chains, rings or loop chains in separate parts
    shapes = [
        MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)]),
        # two disjoint triangles: two rings
        MultiGraph.from_edges(
            6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1)]
        ),
        # a ring plus a path
        MultiGraph.from_edges(6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1)]),
        # a bowtie (two loop chains on vertex 3) plus a separate edge
        MultiGraph.from_edges(
            7, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (6, 7, 1)]
        ),
    ]
    for g in shapes:
        with pytest.raises(GraphError, match="^graph must be connected$"):
            call(g)


def test_ring_with_isolated_vertices_solves():
    g = MultiGraph.from_edges(6, [(2, 4, 1), (4, 5, 2), (5, 2, 3)])
    cpp = solve_cpp(g)
    assert cpp.weight == 6 and cpp.join == frozenset()
    res = solve_kcpp(g, 2)
    verify_solution(g, 2, res.solution)
    assert res.weight == oracle_kcpp(g, 2) == 8


def _component_soup(rng: random.Random) -> MultiGraph:
    """Random graph of one or more parts: rings, bouquets of loop chains,
    paths, small random connected graphs and isolated vertices, with the
    vertex labels shuffled."""
    triples: list[tuple[int, int, int]] = []
    n = 0
    for _ in range(rng.choice([1, 1, 2, 3])):
        kind = rng.choice(["ring", "bouquet", "path", "random"])
        if kind == "ring":
            size = rng.randint(2, 6)
            ring = [*range(n + 1, n + size + 1), n + 1]
            triples += [(a, b, rng.randint(0, 4)) for a, b in zip(ring, ring[1:])]
            n += size
        elif kind == "bouquet":
            center, n = n + 1, n + 1
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, 3)
                cycle = [center, *range(n + 1, n + size + 1), center]
                triples += [(a, b, rng.randint(0, 4)) for a, b in zip(cycle, cycle[1:])]
                n += size
        elif kind == "path":
            size = rng.randint(2, 5)
            triples += [(n + i, n + i + 1, rng.randint(0, 4)) for i in range(1, size)]
            n += size
        else:
            size = rng.randint(2, 6)
            g = random_connected_graph(rng, size, size - 1 + rng.randint(0, 4), 4)
            triples += [(e.u + n, e.v + n, e.weight) for e in g.edges]
            n += g.vertex_count
    n += rng.randint(0, 2)  # isolated vertices
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return MultiGraph.from_edges(n, [(label[a - 1], label[b - 1], c) for a, b, c in triples])


def _soup_corpus() -> list[MultiGraph]:
    """300 seeded component soups."""
    rng = random.Random(20)
    return [_component_soup(rng) for _ in range(300)]


def test_solve_cpp_connectivity_and_join_agree_with_the_graph_checks():
    connected = 0
    for g in _soup_corpus():
        if not bfs_connected(g):
            with pytest.raises(GraphError, match="^graph must be connected$"):
                solve_cpp(g)
            continue
        connected += 1
        cpp = solve_cpp(g)
        join_weight = sum(g.edge(eid).weight for eid in cpp.join)
        reference = min_weight_join(g, odd_by_degree(g))
        assert join_weight == sum(g.edge(eid).weight for eid in reference)
        assert cpp.weight == g.total_weight() + join_weight
    assert 50 <= connected <= 250


def test_cut_based_checks_match_the_per_vertex_references():
    # the soups, the empty graph and a graph of isolated vertices only
    corpus = [*_soup_corpus(), MultiGraph(0, ()), MultiGraph(3, ())]
    for g in corpus:
        assert is_connected(g) == bfs_connected(g)
        assert odd_vertices(g) == odd_by_degree(g)
    assert 50 <= sum(map(bfs_connected, corpus)) <= 250


def test_kernel_path_reads_connectivity_and_parity_off_one_cut(monkeypatch):
    g = uniform_inflation(theta_graph(4, 2), 5)

    def refuse(*args):
        raise AssertionError("the solve path ran a per-vertex check")

    for name, module in list(sys.modules.items()):
        if name == "kpostman" or name.startswith("kpostman."):
            for attr, fn in (("is_connected", is_connected), ("odd_vertices", odd_vertices)):
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, refuse)
    cut = graph_module._chains
    cut_maps = []

    def counted(adj):
        cut_maps.append(adj)
        return cut(adj)

    monkeypatch.setattr(graph_module, "_chains", counted)
    res = solve_kcpp(g, 3)
    assert res.method == "kernel" and res.weight == 42
    verify_solution(g, 3, res.solution)
    assert sum(adj is g.adjacency for adj in cut_maps) == 1


def test_unchanged_kernel_is_cut_and_joined_once(monkeypatch):
    # no chain of g is longer than k, so g is its own kernel and the search
    # reads the cut and the CPP join that solve_cpp cached on it
    g = random_connected_graph(random.Random(1), 16, 24, 4)
    cut, join = graph_module._chains, graph_module._join_chains
    cut_maps, joined = [], []

    def counted_cut(adj):
        cut_maps.append(adj)
        return cut(adj)

    def counted_join(chains, terminals):
        joined.append(chains)
        return join(chains, terminals)

    monkeypatch.setattr(graph_module, "_chains", counted_cut)
    monkeypatch.setattr(graph_module, "_join_chains", counted_join)
    outcome = kernelize(g, 14)
    assert isinstance(outcome, Reduced) and outcome.kernel is g
    res = solve_kcpp(g, 14)
    assert res.method == "kernel"
    verify_solution(g, 14, res.solution)
    assert sum(adj is g.adjacency for adj in cut_maps) == 1
    assert len(joined) == 1 and joined[0] is g.chains


def test_cached_join_gives_the_fresh_graph_answer():
    # tie-prone weights: the search on a graph whose join solve_cpp cached
    # must agree, text and all, with the search on a fresh copy
    rng = random.Random(25)
    for g in random_small_graphs(25, 300, max_n=8, max_m=12, max_w=2):
        k = rng.randint(1, 5)
        solve_cpp(g)
        warm = solve_kcpp_exact(g, k)
        cold = solve_kcpp_exact(MultiGraph(g.vertex_count, g.edges), k)
        assert warm.total_weight == cold.total_weight
        assert serialize_solution(warm) == serialize_solution(cold)


def test_exact_rejects_disconnected():
    # the search checks no connectivity itself: odd vertices in two
    # components have no join, and Eulerian components no k walks
    g = MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(GraphError, match="^no path between odd vertices 1 and 3$"):
        solve_kcpp_exact(g, 1)
    triangles = MultiGraph.from_edges(
        6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1)]
    )
    for k in (1, 2):
        with pytest.raises(GraphError, match="^multigraph must be connected$"):
            solve_kcpp_exact(triangles, k)


def test_solve_decision_yes_bowtie():
    res = solve_kcpp(named_graph("bowtie"), 2, p=6)
    assert res.decision is True and res.weight == 6


def test_solve_decision_no_triangle():
    res = solve_kcpp(named_graph("triangle"), 2, p=4)
    assert res.decision is False and res.weight == 5


def test_solve_cycle_partition_reduction_instance():
    # unit-weight graph whose edges split into triangles: weight m at k = m/3
    res = solve_kcpp(named_graph("bowtie"), 2, p=6)
    assert res.decision is True and res.weight == 6
    res_k4 = solve_kcpp(named_graph("k4"), 2, p=6)
    assert res_k4.decision is False
    assert oracle_kcpp(named_graph("k4"), 2) == res_k4.weight > 6


def test_oracle_known_values():
    assert oracle_kcpp(named_graph("triangle"), 2) == 5
    assert oracle_kcpp(named_graph("single"), 1) == 2
    assert oracle_kcpp(named_graph("path2"), 1) == 4


def test_oracle_gates():
    big = MultiGraph.from_edges(5, [(1, 2, 1)] * 9)
    with pytest.raises(SearchBudgetExceeded, match=r"^search budget exceeded: 9 edges > 8$"):
        oracle_kcpp(big, 1)
    with pytest.raises(SearchBudgetExceeded, match=r"^search budget exceeded: k = 4 > 3$"):
        oracle_kcpp(named_graph("triangle"), 4)
    with pytest.raises(GraphError, match=r"^k must be >= 1, got 0$") as exc:
        oracle_kcpp(named_graph("triangle"), 0)
    assert not isinstance(exc.value, SearchBudgetExceeded)


def test_pipeline_matches_oracle_on_random_instances():
    for i, g in enumerate(random_small_graphs(seed=62, trials=40, max_n=5, max_m=7)):
        k = i % 3 + 1
        res = solve_kcpp(g, k)
        verify_solution(g, k, res.solution)
        assert res.weight == oracle_kcpp(g, k)


def test_optimum_monotone_in_k():
    for g in random_small_graphs(seed=63, trials=20, max_n=4, max_m=6):
        w1 = oracle_kcpp(g, 1)
        w2 = oracle_kcpp(g, 2)
        w3 = oracle_kcpp(g, 3)
        assert w1 <= w2 <= w3


def test_solution_weight_never_below_cpp():
    for i, g in enumerate(random_small_graphs(seed=64, trials=30)):
        k = i % 3 + 1
        res = solve_kcpp(g, k)
        assert res.weight >= res.cpp_weight == solve_cpp(g).weight
        if res.method != "kernel":
            assert res.weight == res.cpp_weight


def test_feasibility_characterization_even_plus_packing():
    # every vector with even degrees and k disjoint cycles splits into k walks
    rng = random.Random(5)
    for g in random_small_graphs(seed=65, trials=25, max_n=4, max_m=5):
        k = rng.randint(1, 3)
        searcher = PackingSearch(g)
        from itertools import product

        for picks in product((1, 2), repeat=len(g.edges)):
            counts = {e.id: c for e, c in zip(g.edges, picks)}
            m = Multiplicities(g, counts)
            if not even_degrees(m):
                continue
            got, cycles = searcher.run(counts, k)
            if got >= k:
                sol = split_into_k_walks(m, cycles[:k])
                verify_solution(g, k, sol)
                assert sol.total_weight == m.weight()


def test_zero_weight_graphs():
    g = MultiGraph.from_edges(3, [(1, 2, 0), (2, 3, 0), (3, 1, 0)])
    for k in (1, 2, 3):
        res = solve_kcpp(g, k)
        assert res.weight == 0 == oracle_kcpp(g, k)


def test_split_uses_every_copy_exactly_once():
    from collections import Counter

    for i, g in enumerate(random_small_graphs(seed=66, trials=25, max_n=4, max_m=5)):
        k = i % 2 + 1
        counts = {e.id: 2 for e in g.edges}
        m = Multiplicities(g, counts)
        packing = greedy_cycle_packing(m, k)
        if len(packing) < k:
            continue
        sol = split_into_k_walks(m, packing[:k])
        used: Counter = Counter()
        for w in sol.walks:
            used.update(eid for _, eid in w.steps)
        assert dict(used) == counts


def test_pipeline_is_deterministic():
    for g in random_small_graphs(seed=67, trials=10):
        for k in (1, 2):
            assert solve_kcpp(g, k).solution == solve_kcpp(g, k).solution


def test_k1_always_solved_by_a_shortcut():
    # any covering multigraph of a connected graph with an edge has a cycle,
    # so the packing shortcut can never miss at k=1
    from kpostman.kernel import Solved, kernelize

    for g in random_small_graphs(seed=68, trials=30):
        assert isinstance(kernelize(g, 1), Solved)


def test_multiplicities_cover_rejects_missing_edge():
    g = named_graph("triangle")
    with pytest.raises(GraphError):
        Multiplicities.cover(g, {1: 1, 2: 1})


def test_multiplicities_cover_names_the_first_uncovered_edge_in_base_order():
    g = MultiGraph(3, (Edge(7, 1, 2, 1), Edge(2, 2, 3, 1), Edge(5, 3, 1, 1)))
    for counts, first in (({7: 1}, 2), ({2: 1, 5: 0, 7: 1}, 5), ({2: 1, 5: 1, 7: 0}, 7)):
        with pytest.raises(GraphError, match=f"^edge {first} is not covered$"):
            Multiplicities.cover(g, counts)
    assert Multiplicities.cover(g, {2: 1, 5: 2, 7: 1}).weight() == 4
    assert Multiplicities.cover(MultiGraph(1, ()), {}).copies() == 0


def test_solve_rejects_edgeless_and_disconnected():
    with pytest.raises(GraphError):
        solve_kcpp(MultiGraph(1, ()), 1)
    with pytest.raises(GraphError):
        solve_kcpp(MultiGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)]), 1)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 5))
    triples = []
    for v in range(2, n + 1):
        triples.append((draw(st.integers(1, v - 1)), v, draw(st.integers(0, 2))))
    extra = draw(st.integers(0, 7 - len(triples)))
    for _ in range(extra):
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n).filter(lambda x: x != u))
        triples.append((u, v, draw(st.integers(0, 2))))
    return MultiGraph.from_edges(n, triples)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.integers(1, 3))
def test_pipeline_agrees_with_oracle_property(g, k):
    res = solve_kcpp(g, k)
    verify_solution(g, k, res.solution)
    assert res.weight == oracle_kcpp(g, k)


def test_large_inflated_instances():
    from kpostman.generators import cycle_graph, uniform_inflation

    g = uniform_inflation(named_graph("bowtie"), 50)  # 300 edges, Eulerian
    res = solve_kcpp(g, 2)
    assert res.weight == 300 == res.cpp_weight and res.method == "packing"
    verify_solution(g, 2, res.solution)

    c = cycle_graph(200)
    res = solve_kcpp(c, 3)  # reduces to a 5-cycle, solved exactly, lifted
    assert res.weight == 204
    verify_solution(c, 3, res.solution)


def test_long_cycle_solved_through_one_pass_reduction():
    from kpostman.generators import cycle_graph

    c = cycle_graph(1000)
    res = solve_kcpp(c, 3)
    assert res.weight == 1004 and res.method == "kernel"
    verify_solution(c, 3, res.solution)


@st.composite
def above_gate_graphs(draw):
    """A simple connected graph on 5-7 vertices with 9-14 edges of weight
    1-4, one of them subdivided into a chain of 2-6 segments.  Above the
    oracle's edge gate, with at most 14 chains."""
    n = draw(st.integers(5, 7))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    rest = [p for p in combinations(range(1, n + 1), 2) if p not in tree]
    m = draw(st.integers(9, min(14, len(tree) + len(rest))))
    extra = draw(st.lists(st.sampled_from(rest), min_size=m - n + 1, max_size=m - n + 1, unique=True))
    core = MultiGraph.from_edges(n, [(u, v, 1) for u, v in tree + extra])
    segments = {e.id: [draw(st.integers(1, 4))] for e in core.edges}
    segments[draw(st.integers(1, m))] = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    return inflate_chains(core, segments)


def _solved(g, k):
    res = solve_kcpp(g, k)
    assert verify_solution(g, k, res.solution) == res.weight
    return res


def test_metamorphic_relations_above_oracle_gate():
    methods = []

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(above_gate_graphs(), st.data())
    def check(g, data):
        assert len(g.chains) <= 24  # small kernels: the search answers them in milliseconds
        cover = solve_cpp(g)
        cpp, mu = cover.weight, g.min_weight()
        # k at or just above a greedy packing of the single-walk cover, where
        # the shortcuts give out and the exact kernel search answers
        greedy = len(greedy_cycle_packing(cover.multiplicities, cover.multiplicities.copies() // 2))
        k = data.draw(st.integers(min(max(2, greedy), 7), min(greedy + 2, 7)), label="k")
        res = _solved(g, k)
        methods.append(res.method)
        assert cpp <= res.weight <= cpp + 2 * mu * (k - 1)
        assert res.weight <= _solved(g, k + 1).weight <= res.weight + 2 * mu
        relabel = [0, *data.draw(st.permutations(range(1, g.vertex_count + 1)), label="relabel")]
        order = data.draw(st.permutations(g.edges), label="edge order")
        moved = MultiGraph.from_edges(
            g.vertex_count, [(relabel[e.u], relabel[e.v], e.weight) for e in order]
        )
        assert _solved(moved, k).weight == res.weight
        scale = data.draw(st.integers(2, 3), label="scale")
        scaled = MultiGraph.from_edges(
            g.vertex_count, [(e.u, e.v, scale * e.weight) for e in g.edges]
        )
        assert _solved(scaled, k).weight == scale * res.weight

    check()
    # the relations must also be checked where the exact kernel search answers
    assert 4 * methods.count("kernel") >= len(methods), methods


@st.composite
def many_odd_graphs(draw):
    """A random tree, or a ring, on 36-90 vertices plus n/4 to n/2 random
    extra edges, weights 0-5, with 17-60 odd vertices: above the 16
    terminals that once capped the join."""
    n = draw(st.integers(36, 90))
    weight = st.integers(0, 5)
    if draw(st.booleans()):
        base = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    else:
        base = [(v, v % n + 1) for v in range(1, n + 1)]
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    extra = draw(st.lists(pair, min_size=n // 4, max_size=n // 2))
    g = MultiGraph.from_edges(n, [(u, v, draw(weight)) for u, v in base + extra])
    assume(17 <= len(odd_vertices(g)) <= 60)
    return g


def _cpp_solved(g):
    cover = solve_cpp(g)
    walk = euler_tour(cover.multiplicities, g.edges[0].u)
    assert verify_solution(g, 1, Solution((walk,), cover.weight)) == cover.weight
    return cover.weight


def test_metamorphic_relations_above_the_old_terminal_cap():
    pendant_fired = []

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(many_odd_graphs(), st.integers(1, 5), st.data())
    def check(g, k, data):
        cpp = _cpp_solved(g)
        res = _solved(g, k)
        pendant_fired.append(pendant_shortcut(g, k) is not None)
        if pendant_fired[-1]:  # the join's 2-cycles hold the pendant edges
            assert res.method == "packing"
        assert res.cpp_weight == cpp <= res.weight <= cpp + 2 * g.min_weight() * (k - 1)
        relabel = [0, *data.draw(st.permutations(range(1, g.vertex_count + 1)), label="relabel")]
        order = data.draw(st.permutations(g.edges), label="edge order")
        moved = MultiGraph.from_edges(
            g.vertex_count, [(relabel[e.u], relabel[e.v], e.weight) for e in order]
        )
        assert _cpp_solved(moved) == cpp
        assert _solved(moved, k).weight == res.weight
        scale = data.draw(st.integers(2, 3), label="scale")
        scaled = MultiGraph.from_edges(
            g.vertex_count, [(e.u, e.v, scale * e.weight) for e in g.edges]
        )
        assert _cpp_solved(scaled) == scale * cpp
        assert _solved(scaled, k).weight == scale * res.weight

    check()
    assert len(set(pendant_fired)) == 2, pendant_fired


def _peak_bytes(call) -> int:
    """Peak traced allocation, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_follows_the_edges_not_the_header_n():
    # a unit triangle, and three arcs that the gadget must balance through
    # a new vertex x = n + 1, cost the same whatever n the header declares
    def calls(n: int) -> list:
        tri = f"p kcpp {n} 3 1\ne 1 2 1\ne 2 3 1\ne 3 1 1\n"
        arcs = f"p dkcpp {n} 3 1\na 1 2 1\na 2 3 1\na 1 3 1\n"
        return [
            lambda: solve_kcpp(parse_instance(tri).graph, 1),
            lambda: solve_kcpp(parse_instance(tri).graph, 2),
            lambda: euler_tour(solve_cpp(parse_instance(tri).graph).multiplicities, 1),
            lambda: kernelize(parse_instance(tri).graph, 2),
            lambda: verify_packing_equivalence(parse_directed_instance(arcs)[0]),
        ]

    for i, (small, large) in enumerate(zip(calls(3), calls(10**6))):
        peaks = _peak_bytes(small), _peak_bytes(large)
        assert abs(peaks[0] - peaks[1]) < 512 * 1024, (i, peaks)
