"""Directed multigraphs, the balancing-vertex gadget, and arc-disjoint
cycle packing through the shared packing search.

The packing search runs on the digraph with its arcs on no cycle dropped
and its chains contracted.  An arc lies on a cycle exactly when its ends
share a strong component, so one strong-component pass drops the rest
first, which empties an acyclic digraph.  Then each maximal directed path
through inner vertices (one arc in, one arc out, such as the gadget's
midpoints) becomes one arc, the directed form of the undirected chain
reduction.  Contracted arcs with the same tail and head share one slot of
the search, with a copy per arc.  The gadget check contracts d' alone, its
gadget arcs marked, and one searcher with one state budget answers the
packing numbers of d and of d'."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .cycles import PackingSearch
from .graph import GraphError, read_triples, write_triples


class Arc(NamedTuple):
    id: int
    tail: int
    head: int
    weight: int


@dataclass(frozen=True)
class DiGraph:
    """Directed multigraph; parallel arcs and directed 2-cycles allowed.

    Ends lie in 1..vertex_count, but per-vertex maps such as steps hold
    only the vertices that have an arc, so no cost grows with
    vertex_count."""

    vertex_count: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise GraphError("vertex count must be nonnegative")
        seen: set[int] = set()
        for a in self.arcs:
            if not (1 <= a.tail <= self.vertex_count and 1 <= a.head <= self.vertex_count):
                raise GraphError(f"arc {a.id}: vertex out of range")
            if a.tail == a.head:
                raise GraphError(f"arc {a.id}: self-loop at {a.tail}")
            if a.weight < 0:
                raise GraphError(f"arc {a.id}: negative weight")
            if a.id in seen:
                raise GraphError(f"duplicate arc id {a.id}")
            seen.add(a.id)

    @classmethod
    def from_arcs(cls, vertex_count: int, triples: Iterable[tuple[int, int, int]]) -> "DiGraph":
        arcs = tuple(Arc(i, t, h, w) for i, (t, h, w) in enumerate(triples, start=1))
        return cls(vertex_count, arcs)

    @cached_property
    def steps(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """(arc id, head) pairs leaving each vertex that has an arc, in arc
        order; a vertex that only has arcs in leaves none."""
        out: dict[int, list[tuple[int, int]]] = {v: [] for a in self.arcs for v in (a.tail, a.head)}
        for a in self.arcs:
            out[a.tail].append((a.id, a.head))
        return {v: tuple(s) for v, s in out.items()}

    @cached_property
    def ends(self) -> dict[int, tuple[int, int]]:
        """(tail, head) per arc id."""
        return {a.id: (a.tail, a.head) for a in self.arcs}

    @cached_property
    def indegrees(self) -> dict[int, int]:
        """Number of arcs entering each vertex that has an arc."""
        into = dict.fromkeys(self.steps, 0)
        for a in self.arcs:
            into[a.head] += 1
        return into

    def outdegree(self, v: int) -> int:
        return len(self.steps.get(v, ()))

    def indegree(self, v: int) -> int:
        return self.indegrees.get(v, 0)

    def is_balanced(self) -> bool:
        return all(self.outdegree(v) == self.indegree(v) for v in self.steps)


@dataclass(frozen=True)
class GadgetResult:
    d_prime: DiGraph
    x: int | None
    x_outdegree: int


@dataclass(frozen=True)
class EquivalenceReport:
    r: int
    r_prime: int
    x_outdegree: int
    holds: bool
    d_prime: DiGraph


def build_balanced_extension(d: DiGraph) -> GadgetResult:
    """Balance every vertex by routing its surplus through a new vertex x via
    fresh two-arc paths of unit-weight arcs.  Already balanced inputs are
    returned untouched with no x at all, which keeps a connected input
    connected."""
    surplus = {v: d.outdegree(v) - d.indegree(v) for v in d.steps}
    if all(s == 0 for s in surplus.values()):
        return GadgetResult(d, None, 0)
    x = d.vertex_count + 1
    next_vertex = x + 1
    next_arc = max((a.id for a in d.arcs), default=0) + 1
    arcs = list(d.arcs)
    x_out = 0
    for v in sorted(surplus):
        s = surplus[v]
        for _ in range(abs(s)):
            mid = next_vertex
            next_vertex += 1
            if s > 0:
                arcs.append(Arc(next_arc, x, mid, 1))
                arcs.append(Arc(next_arc + 1, mid, v, 1))
                x_out += 1
            else:
                arcs.append(Arc(next_arc, v, mid, 1))
                arcs.append(Arc(next_arc + 1, mid, x, 1))
            next_arc += 2
    d_prime = DiGraph(next_vertex - 1, tuple(arcs))
    assert d_prime.is_balanced()
    return GadgetResult(d_prime, x, x_out)


class _Contracted(NamedTuple):
    """A digraph with its arcs on no cycle dropped, its chains contracted
    and its parallel arcs folded, as PackingSearch reads it: one slot per
    tail, head and kind, keyed by its rank in the search, the count of its
    copies going to the search, and the cycles that meet no other cycle
    counted apart.  A slot's kind says whether it holds an arc above the routine's
    `last` id (a gadget arc); `counts` and `free` cover every slot, `plain`
    and `plain_free` those without gadget arcs.  Built by hand, not as a
    DiGraph: the arc checks and cached maps of a DiGraph cost a gadget
    check about a tenth of its time."""

    ends: dict[int, tuple[int, int]]
    steps: dict[int, tuple[tuple[int, int], ...]]
    counts: dict[int, int]
    free: int
    plain: dict[int, int]
    plain_free: int


def _strong(
    steps: dict[int, tuple[tuple[int, int], ...]], into: dict[int, int]
) -> tuple[dict[int, tuple[tuple[int, int], ...]], dict[int, int]]:
    """steps and indegrees of the arcs that lie on a cycle: those whose
    ends share a strong component, found by one iterative pass of Tarjan's
    algorithm (1972).  A vertex left without an arc goes, so an acyclic
    digraph is left empty.  Every weak component of a balanced digraph is
    strong, so a balanced one is returned as it is, with no pass."""
    if all(len(s) == into[v] for v, s in steps.items()):
        return steps, into
    index: dict[int, int] = {}  # DFS order
    low: dict[int, int] = {}
    comp: dict[int, int] = {}  # vertex -> its component's root
    stack: list[int] = []  # visited vertices not yet in a component
    for root in steps:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(steps[root]))]
        while work:
            v, it = work[-1]
            for _, head in it:
                if head not in index:
                    index[head] = low[head] = len(index)
                    stack.append(head)
                    work.append((head, iter(steps[head])))
                    break
                if head not in comp:  # on the stack
                    low[v] = min(low[v], index[head])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while (w := stack.pop()) != v:
                        comp[w] = v
                    comp[v] = v
    kept = {v: tuple(st for st in s if comp[st[1]] == comp[v]) for v, s in steps.items()}
    steps = {v: s for v, s in kept.items() if s}
    into = dict.fromkeys(steps, 0)
    for s in steps.values():
        for _, head in s:
            into[head] += 1
    return steps, into


def _contract(d: DiGraph, last: int, x: int | None) -> _Contracted:
    """d less its arcs on no cycle (_strong), contracted for the packing
    search, the arcs with ids above `last` counted as gadget arcs; see
    max_arc_disjoint_cycles.  A contracted arc that holds a gadget arc folds
    only with arcs of its kind.  The slots are keyed by their rank in the
    search: the gadget slots into the gadget vertex x first, then the other
    gadget slots, then the rest, each group the fewest copies first.  Gadget
    slots first make the search of d a part of the search of d'; the rest
    of the order is a heuristic that kept every random digraph of 5 to 8
    vertices and 24 to 36 arcs that two separate searches of d and d'
    answered inside the state budget, which the gadget slots in arc id
    order did not."""
    steps, into = _strong(d.steps, d.indegrees)
    inner = {v for v, out in steps.items() if len(out) == 1 and into[v] == 1}
    free = [0, 0]  # per kind: without, with a gadget arc
    copies: dict[int, int] = {}  # per slot, keyed by its first arc's id
    gadget: set[int] = set()
    ends: dict[int, tuple[int, int]] = {}
    contracted: dict[int, tuple[tuple[int, int], ...]] = {}
    # the outer vertices are listed first, since the walks empty `inner`
    for v in [v for v in steps if v not in inner]:
        out = []
        slots: tuple[dict[int, int], dict[int, int]] = ({}, {})  # head -> slot, per kind
        for aid, head in steps[v]:
            kind = aid > last  # the path holds a gadget arc
            while head in inner:
                inner.remove(head)
                a, head = steps[head][0]
                kind |= a > last
            if head == v:
                free[kind] += 1
            elif head in slots[kind]:
                copies[slots[kind][head]] += 1
            else:
                slots[kind][head] = aid
                copies[aid] = 1
                ends[aid] = (v, head)
                out.append((aid, head))
                if kind:
                    gadget.add(aid)
        contracted[v] = tuple(out)
    # no path from an outer vertex reached what is left: cycles of inner vertices
    while inner:
        v = head = inner.pop()
        kind = steps[v][0][0] > last
        while (head := steps[head][0][1]) != v:
            inner.remove(head)
            kind |= steps[head][0][0] > last
        free[kind] += 1
    ranked = sorted(copies, key=lambda k: (k not in gadget, ends[k][1] != x, copies[k], k))
    key = {k: i for i, k in enumerate(ranked)}
    return _Contracted(
        {key[k]: ends[k] for k in ranked},
        {v: tuple((key[k], h) for k, h in out) for v, out in contracted.items()},
        {key[k]: copies[k] for k in ranked},
        sum(free),
        {key[k]: copies[k] for k in ranked if k not in gadget},
        free[0],
    )


def max_arc_disjoint_cycles(d: DiGraph) -> int:
    """Exact maximum number of pairwise arc-disjoint directed cycles.

    An arc whose ends lie in different strong components lies on no
    cycle: such arcs are dropped before anything else, which leaves an
    acyclic digraph empty.  An inner vertex has exactly one arc in and one
    arc out, so a directed cycle through either of its arcs passes the
    vertex and uses both.  A cycle therefore takes all or none of the arcs
    of each maximal path through inner vertices, and contracting every
    such path into one arc maps the directed cycles of d one to one onto
    those of the contracted digraph, arc-disjoint packings onto
    arc-disjoint packings.  A path that closes
    on its own tail, and a cycle of inner vertices only, is a cycle that no
    other cycle meets: each counts once, outside the search.  The rest is
    the packing search, with the contracted arcs from one tail to one head
    folded into one slot that holds a copy per arc.  A simple cycle leaves
    each vertex once, so it uses at most one arc of such a group, and the
    arc-disjoint packings are exactly the packings within these copies.
    The search raises SearchBudgetExceeded past its state budget,
    cycles.MAX_PACKING_STATES, counted on the folded digraph.
    verify_packing_equivalence runs the same contraction on d', where it
    also marks the gadget arcs."""
    c = _contract(d, max((a.id for a in d.arcs), default=0), None)
    return c.free + PackingSearch(c).run(c.counts, sum(c.counts.values()) // 2)[0]


def verify_packing_equivalence(d: DiGraph) -> EquivalenceReport:
    """Check that balancing adds exactly x's outdegree to the packing number.

    Every cycle of d is a cycle of d' that uses no gadget arc, so one
    searcher over d', contracted as by max_arc_disjoint_cycles with the
    gadget arcs marked, answers both numbers within one state budget,
    cycles.MAX_PACKING_STATES.  A contracted arc that holds a gadget arc
    folds only with its kind, so the slots without gadget arcs are d's
    cycles' slots, and each midpoint is an inner vertex: each two-arc path
    through x is one arc, and the paths between x and one vertex v, one per
    unit of v's imbalance, fold into one slot.  The search over all slots
    gives r'.  The gadget slots come first and the search drops a slot
    before it takes any cycle through it, so that search has already
    searched the gadget-free slots on their own, and the run for r over
    them only reads its memo.  A balanced d is d', searched once.  d' is
    balanced, so every arc of it lies on a cycle and none is dropped.  The
    report carries the uncontracted d' for the caller to write out."""
    gadget = build_balanced_extension(d)
    c = _contract(gadget.d_prime, max((a.id for a in d.arcs), default=0), gadget.x)
    searcher = PackingSearch(c)
    r_prime = c.free + searcher.run(c.counts, sum(c.counts.values()) // 2)[0]
    if gadget.x is None:
        r = r_prime
    else:
        r = c.plain_free + searcher.run(c.plain, sum(c.plain.values()) // 2)[0]
    holds = r_prime == r + gadget.x_outdegree
    return EquivalenceReport(r, r_prime, gadget.x_outdegree, holds, gadget.d_prime)


def parse_directed_instance(text: str | bytes) -> tuple[DiGraph, int]:
    """Directed instance format: ``p dkcpp <n> <m> <k>`` then ``a`` records."""
    (n, _m, k), triples = read_triples(text, "dkcpp", "a", (3,))
    return DiGraph.from_arcs(n, triples), k


def serialize_directed_instance(d: DiGraph, k: int) -> str:
    header = (d.vertex_count, len(d.arcs), k)
    return write_triples("dkcpp", "a", header, ((a.tail, a.head, a.weight) for a in d.arcs))
