"""Shortest cycles, greedy edge-disjoint packing, and an exact packing search
that serves undirected and directed graphs alike.

Cycles live in a multigraph-with-counts: two copies of one edge form a
2-cycle, as do two parallel edges.  "Shortest" is by edge count, then by
total weight; ties on both are broken deterministically.  A cycle is a
graph.Walk on distinct vertices, a packing a plain tuple of them, and
check_packing takes any sequence of walks and checks that.

The greedy packing takes a shortest cycle again and again, in one pass:
taking a 2-cycle only spends copies, so the 2-cycles are one list sorted
once and swept in order.  What the sweep leaves is a simple graph.  Its
2-core's chain cut is read off the cut the base graph caches, and is
updated in place from the anchors of each cycle taken out
(graph._CoreCut); no edge is cut again.  shortest_cycle is the greedy's
first cycle.  The girth search runs the chain Dijkstra graph._settle that
the CPP join runs too.

Two upper bounds on the packing number answer whether a packing can grow:
cycle_rank_bound, from the copies and vertices alone, and
packing_upper_bound, over the chain cut of a 2-core with one copy per edge,
such as the cut greedy hands back of the rest of its 2-cycle sweep.  It
sums, per component (graph._components), the lesser of the cycle rank and
the length-function bound floor(total length / shortest cycle length)
under lengths tuned by a fixed number of multiplicative-weight rounds; its
shortest cycles come from the same girth search as the greedy's, keyed on
length first.  When greedy already meets it, greedy's packing is a maximum
one and the exhaustive PackingSearch has nothing to find.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import not_
from typing import Iterable, Mapping, Protocol, Sequence

from .cpp import Multiplicities, _read_counts
from .graph import (
    Chain,
    GraphError,
    MultiGraph,
    SearchBudgetExceeded,
    Walk,
    _CoreCut,
    _components,
    _settle,
)


def check_packing(m: Multiplicities, packing: Sequence[Walk]) -> tuple[dict[int, int], int]:
    """Raise unless the walks are simple cycles of pairwise disjoint edge
    copies within m: at least 2 steps on distinct vertices, each step's
    edge joining its vertex to the next step's, as in verify_solution.
    Return the copies of each base edge they leave and the walks' total
    weight: one pass checks each walk and takes its copies out, so an
    overdrawn copy raises when drawn."""
    left = _read_counts(m)
    by_id = m.base.edge_by_id
    weight = 0
    for c in packing:
        steps = c.steps
        if len(steps) < 2 or len({v for v, _ in steps}) != len(steps):
            raise GraphError(f"cycle must have >= 2 edges and as many distinct vertices, got {c}")
        for (a, eid), (b, _) in zip(steps, steps[1:] + steps[:1]):
            e = by_id.get(eid)
            if e is None:
                raise GraphError(f"no edge with id {eid}")
            if not (a == e.u and b == e.v or a == e.v and b == e.u):
                raise GraphError(f"edge {eid} does not join {a} and {b}")
            if not left[eid]:
                raise GraphError(f"cycles use edge {eid} more often than it has copies")
            left[eid] -= 1
            weight += e.weight
    return left, weight


def shortest_cycle(m: Multiplicities) -> Walk | None:
    """Minimum (edge count, weight) cycle of the multigraph, or None if
    acyclic: the first cycle the greedy packing takes."""
    cycles = greedy_cycle_packing(m, 1)
    return cycles[0] if cycles else None


def _girth(
    chains: Sequence[Chain], keys: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], int, list[int]] | None:
    """Least-key cycle of a 2-core cut into chains (see graph._chains), or
    None if there are no chains.  keys[i] is chain i's (first, second)
    key, the first positive, and a cycle's key is the sum over its chains,
    compared lexicographically.  The cycle comes as (key, start anchor,
    indices into chains in order round the cycle from start; see
    _chain_cycle).

    Loop chains and rings are cycles as they are, and every other cycle is
    found by one run of the chain Dijkstra graph._settle, which the CPP join
    shares, per anchor: as each anchor settles, a chain to an anchor settled
    before it that is not its own tree chain closes a cycle if the two hang
    from different root branches.  A run stops once it settles more than
    half the best cycle so far, which keeps the result exact.  The greedy
    keys chains on (hops, weight), packing_upper_bound on (length, hops).
    """
    best_key: tuple[float, float] = (math.inf, math.inf)
    best: tuple[int, list[int]] | None = None
    incident: dict[int, list[tuple[int, int, int, int]]] = {}
    for ci, (c, (a, b)) in enumerate(zip(chains, keys)):
        if c.u == c.v:
            if (a, b) < best_key:
                best_key, best = (a, b), (c.u, [ci])
        else:
            incident.setdefault(c.u, []).append((ci, c.v, a, b))
            incident.setdefault(c.v, []).append((ci, c.u, a, b))
    for root in sorted(incident):
        dist: dict[int, tuple[int, int]] = {}
        tree: dict[int, tuple[int, int] | None] = {}  # settled anchor -> its via
        branch = {root: -1}  # settled anchor -> index of the first chain on its tree path
        for x, (h, w), via in _settle(incident, root):
            if (2 * h, 2 * w) > best_key:
                break
            dist[x], tree[x] = (h, w), via
            if via is not None:
                branch[x] = via[0] if via[1] == root else branch[via[1]]
            for i, y, ch, cw in incident[x]:
                if y in dist and (via is None or i != via[0]) and branch[y] != branch[x]:
                    key = (h + ch + dist[y][0], w + cw + dist[y][1])
                    if key < best_key:
                        down: list[int] = []  # tree chains x -> root
                        up: list[int] = []  # tree chains y -> root
                        for v, path in ((x, down), (y, up)):
                            while tree[v] is not None:
                                ci, v = tree[v]
                                path.append(ci)
                        best_key, best = key, (root, [*down[::-1], i, *up])
    return None if best is None else (best_key, best[0], best[1])


def _chain_cycle(start: int, chains: Iterable[Chain]) -> Walk:
    """The cycle that runs from start through each chain in turn, entering
    each at the end where the one before it left off; the last must end at
    start."""
    verts: list[int] = []
    ids: list[int] = []
    for c in chains:
        if c.u == start:
            verts.extend(c.vertices[:-1])
            ids.extend(c.edges)
            start = c.v
        else:
            verts.extend(c.vertices[:0:-1])
            ids.extend(c.edges[::-1])
            start = c.u
    return Walk(tuple(zip(verts, ids)))


def greedy_cycle_packing(
    m: Multiplicities, k: int, cut: list[Chain] | None = None
) -> tuple[Walk, ...]:
    """Repeatedly extract a shortest cycle, up to k cycles or until acyclic,
    in one pass over the counts, reading the chain cut that m.base caches.

    The 2-cycles come first, from one sorted list: taking a 2-cycle only
    spends copies, so no 2-cycle appears that was not there at the start,
    and a candidate's (weight, ids) key never changes.  The repeated
    minimum is then the first candidate in sorted order that still fits,
    and the sweep takes each one as many times as it fits.  The candidates
    are every edge with two copies, found in one C-level pass over the
    counts, and every parallel pair with a copy of each, read off the cut
    (MultiGraph.parallel_pairs); a pair's cycle takes the vertices of its
    edge that comes first in base order.  What a full sweep leaves is a
    simple graph.  Its 2-core's chain cut is the base's cut less the chains
    with an edge spent, peeled and joined (graph._CoreCut); each shortest
    cycle is whole chains of that cut, which is then updated in place from
    the cycle's anchors only.  A list passed as `cut` receives the chain cut of the
    2-core of the edges with a copy left after the sweep, one copy each,
    taken before the first simple cycle, even when the 2-cycles alone reach
    k; packing_upper_bound of it bounds the cycles that can join the
    2-cycles.
    Raises on a count that names no edge of the base or is negative.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    left = _read_counts(m)
    by_id = m.base.edge_by_id
    twice = map(by_id.__getitem__, compress(left, map((2).__le__, left.values())))
    candidates = [(2 * e.weight, e.id, e.id, e) for e in twice]
    candidates += [
        (e.weight + f.weight, min(e.id, f.id), max(e.id, f.id), e)
        for e, f in m.base.parallel_pairs
        if left[e.id] and left[f.id]
    ]
    candidates.sort()  # (weight, ids) is unique per candidate
    cycles: list[Walk] = []
    for _, a, b, e in candidates:
        fits = left[a] // 2 if a == b else min(left[a], left[b])
        times = min(fits, k - len(cycles))
        if times > 0:
            cycles.extend([Walk(((e.u, a), (e.v, b)))] * times)
            left[a] -= times
            left[b] -= times
            if len(cycles) == k:
                break
    if len(cycles) == k and cut is None:
        return tuple(cycles)
    core = _CoreCut(m.base, set(compress(left, map(not_, left.values()))))
    if cut is not None:
        cut.extend(core.chains)
    while len(cycles) < k:
        found = _girth(core.chains, core.sizes)
        if found is None:
            break
        _, start, path = found
        cycles.append(_chain_cycle(start, [core.chains[i] for i in path]))
        if len(cycles) < k:
            core.drop(path)
    return tuple(cycles)


def cycle_rank_bound(copies: int, vertices: int) -> int:
    """Most edge-disjoint cycles a connected multigraph with `copies` edge
    copies on `vertices` vertices can hold: each cycle uses at least 2
    copies, and disjoint cycles are independent in the cycle space, whose
    dimension is copies - vertices + 1."""
    return min(copies // 2, copies - vertices + 1)


# multiplicative-weight rounds per component in packing_upper_bound.  On the
# kernel search's set evaluations of the seeded search workload (seeds 1 and
# 7), every bound that meets greedy's count does so within 10 rounds; the
# few that never do are the sets where the exhaustive search beats greedy
PACKING_BOUND_ROUNDS = 20


def packing_upper_bound(chains: Sequence[Chain], floor: int) -> int:
    """An upper bound on the most edge-disjoint cycles of the 2-core cut
    into `chains`, one copy per edge (such as the cut greedy_cycle_packing
    hands back of the rest of its 2-cycle sweep; parallel edges are fine,
    loops are not), in exact integer arithmetic.

    Weak LP duality: for any positive edge lengths, disjoint cycles each
    at least as long as the shortest one fit at most
    floor(total length / girth) times.  Each component of the chains gets
    the lesser of its cycle rank (chains - anchors + 1) and the best such
    quotient over PACKING_BOUND_ROUNDS rounds of multiplicative weights
    (Garg and Koenemann 1998): lengths start at one per edge, and each
    round multiplies the chains of the shortest cycle, found by _girth, by
    3 and every other chain by 2, which is a factor of 1 + 1/2 kept in
    integers.  The bound is the sum over the components.  Since no bound
    falls below the maximum, the rounds stop once the sum is at most
    `floor`, a count of disjoint cycles already found: it is then the
    maximum itself.
    """
    parts = _components(chains)
    bounds = [len(part) - len({v for c in part for v in (c.u, c.v)}) + 1 for part in parts]
    total = sum(bounds)
    for r, part in enumerate(parts):
        lengths = [len(c.edges) for c in part]
        for _ in range(PACKING_BOUND_ROUNDS):
            if total <= floor or bounds[r] <= 1:  # a component holds a cycle
                break
            (girth, _), _, path = _girth(part, [(n, len(c.edges)) for n, c in zip(lengths, part)])
            quotient = sum(lengths) // girth
            if quotient < bounds[r]:
                total -= bounds[r] - quotient
                bounds[r] = quotient
            on = set(path)
            lengths = [3 * n if i in on else 2 * n for i, n in enumerate(lengths)]
    return total


class SteppedGraph(Protocol):
    """A graph as PackingSearch reads it: `ends` gives an edge id's two ends
    and `steps` the (edge id, next vertex) pairs leaving a vertex.  A
    MultiGraph steps each edge both ways, a DiGraph each arc tail to head."""

    ends: Mapping[int, tuple[int, int]]
    steps: Mapping[int, tuple[tuple[int, int], ...]]


RawCycle = tuple[tuple[int, ...], tuple[int, ...]]  # (vertices, slots)
Packed = tuple[int, tuple[RawCycle, ...]]  # (cycles found, the cycles)

MAX_PACKING_STATES = 1_000_000  # per searcher: memo entries, listing calls, listed cycles


class PackingSearch:
    """Exhaustive branch over cycles through the lowest remaining edge copy,
    for edge-disjoint cycles and arc-disjoint directed cycles alike.

    Edges get slots in ascending id order.  The residual state is one
    integer with a bit field per slot and a guard bit above each field, so
    taking a cycle is one subtraction and the cycle fits exactly when that
    clears no guard bit.  The search branches on the lowest live slot i,
    so every slot below i is empty: the cycles through i are enumerated
    once, over slots >= i, and each state only filters that list.

    Each node takes the drop branch first: all c copies of slot i go, and
    the rest packs d cycles.  Every copy of slot i lies in at most one
    cycle, so the node's maximum is at most d + c, and each take branch is
    asked for at most d + c - 1 more cycles; with c = 1 the first take
    branch that finds d more ends the node.  With a target ("find at least
    this many") a search may stop once it has that many, which is all a
    feasibility test needs; `run` returns at most the target.

    The memo is keyed by the state alone and kept across count vectors over
    the same base graph.  Each entry holds the best packing found and
    whether it is exact (it stayed below the target it was searched for,
    so it is the maximum) or only a lower bound (it reached that target).
    A lower bound answers only targets it reaches.  A count too wide for
    the fields rebuilds the layout and drops the memo and the cycle lists.
    Past MAX_PACKING_STATES memo entries, depth-first listing calls and
    listed cycles together, a searcher raises SearchBudgetExceeded, so a
    wide cover is refused while its cycles are still being listed.
    """

    def __init__(self, base: SteppedGraph):
        self.ids = sorted(base.ends)
        self.slot = slot = {eid: i for i, eid in enumerate(self.ids)}
        self.ends = [base.ends[eid] for eid in self.ids]
        self.steps = {v: tuple((slot[eid], w) for eid, w in out) for v, out in base.steps.items()}
        self.memo: dict[int, tuple[int, tuple[RawCycle, ...], bool]] = {}
        self._through: dict[int, list[tuple[int, int, RawCycle]]] = {}
        self.listed = 0  # depth-first calls and cycles behind the lists in _through
        self._layout(1)

    def _layout(self, width: int) -> None:
        """Fields of `width` bits.  The cycle deltas depend on the layout,
        so the lists go; a wider layout's top guard bit lies above every
        state of a narrower one, so no old memo key can be hit again, and
        the memo goes too."""
        self.width = width
        self.stride = stride = width + 1
        ones = ((1 << stride * len(self.ids)) - 1) // ((1 << stride) - 1)  # a 1 per field
        self.guards = ones << width
        self.values = self.guards - ones
        self.memo.clear()
        self._through.clear()
        self.listed = 0

    def run(self, counts: Mapping[int, int], target: int) -> tuple[int, tuple[Walk, ...]]:
        """Up to `target` disjoint cycles within the edge copies in `counts`
        (edge id -> copies; ids left out have none), and how many.  Raises
        SearchBudgetExceeded past MAX_PACKING_STATES states or the recursion limit."""
        for eid, n in counts.items():
            if eid not in self.slot:
                raise GraphError(f"no edge with id {eid}")
            if n < 0:
                raise GraphError(f"edge {eid} has negative count {n}")
        width = max(counts.values(), default=0).bit_length()
        if width > self.width:
            self._layout(width)
        state = self.guards
        for eid, n in counts.items():
            state += n << (self.slot[eid] * self.stride)
        try:
            found = self._search(state, sum(counts.values()), target)[1][: max(target, 0)]
        except RecursionError:  # memo, lists and `listed` change only on completion
            raise SearchBudgetExceeded(
                "search budget exceeded: packing search deeper than the recursion limit"
            ) from None
        ids = self.ids.__getitem__
        return len(found), tuple(Walk(tuple(zip(verts, map(ids, slots)))) for verts, slots in found)

    def _cycles_through(self, i: int) -> list[tuple[int, int, RawCycle]]:
        """List, once per layout, each simple cycle through one copy of slot
        i over slots >= i, depth first, as (delta, length, cycle).  Empty
        slots are walked too, so the list spans the base graph (the searcher
        suits counts that cover most of it); each call and cycle is a state."""
        cycles: list[tuple[int, int, RawCycle]] = []
        u, v = self.ends[i]
        steps, stride = self.steps, self.stride
        room = start = MAX_PACKING_STATES - len(self.memo) - self.listed

        def dfs(cur: int, verts: tuple[int, ...], slots: tuple[int, ...]) -> None:
            nonlocal room
            room -= 1
            if room < 0:
                raise SearchBudgetExceeded(
                    f"search budget exceeded: more than {MAX_PACKING_STATES} packing states"
                )
            for s, nxt in steps[cur]:
                if s < i:
                    continue
                if nxt == u:
                    room -= 1
                    cyc = (i,) + slots + (s,)
                    delta = sum(1 << (t * stride) for t in cyc)
                    cycles.append((delta, len(cyc), ((u,) + verts, cyc)))
                elif nxt != v and nxt not in verts:
                    dfs(nxt, verts + (nxt,), slots + (s,))

        try:
            dfs(v, (v,), ())
        finally:
            del dfs  # see _search
        self.listed += start - room
        self._through[i] = cycles
        return cycles

    def _search(self, state: int, copies: int, target: int) -> Packed:
        # the recursion reads the layout from locals: it runs once per memo
        # entry and dominates the directed packing checks
        memo, through, cycles_through = self.memo, self._through, self._cycles_through
        guards, values, stride = self.guards, self.values, self.stride
        full = (1 << self.width) - 1
        limit = MAX_PACKING_STATES - self.listed  # memo entries left after the listing

        def search(state: int, copies: int, target: int) -> Packed:
            """At least min(maximum, target) disjoint cycles in state."""
            nonlocal limit
            if 2 * target > copies:
                target = copies // 2  # every cycle eats >= 2 copies
            if target <= 0:
                return 0, ()
            hit = memo.get(state)
            if hit is not None and (hit[2] or hit[0] >= target):
                return hit[0], hit[1]
            live = state & values
            i = ((live & -live).bit_length() - 1) // stride
            lo = i * stride
            field = state & (full << lo)
            c = field >> lo
            best = search(state - field, copies - c, target)
            # below the target the drop branch is exact, and each copy of
            # slot i lies in at most one cycle
            bound = min(target, best[0] + c)
            if best[0] < bound:
                cycles = through.get(i)
                if cycles is None:
                    cycles = cycles_through(i)
                    limit = MAX_PACKING_STATES - self.listed
                for delta, length, cyc in cycles:
                    rest = state - delta
                    if rest & guards != guards:
                        continue  # a slot has fewer copies left than the cycle uses
                    got, more = search(rest, copies - length, bound - 1)
                    if 1 + got > best[0]:
                        best = (1 + got, (cyc,) + more)
                        if best[0] >= bound:
                            break
            memo[state] = (best[0], best[1], best[0] < target)
            if len(memo) > limit:
                raise SearchBudgetExceeded(
                    f"search budget exceeded: more than {MAX_PACKING_STATES} packing states"
                )
            return best

        try:
            return search(state, copies, target)
        finally:
            # a recursive closure holds itself, and through the memo and self
            # it would keep every dead searcher alive until a full collection,
            # so peak memory would hinge on when that happens to run
            del search
