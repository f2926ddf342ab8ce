"""Directed multigraphs, the balancing-vertex gadget, and arc-disjoint
cycle packing through the shared packing search.

The packing search runs on the digraph with its chains contracted: each
maximal directed path through inner vertices (one arc in, one arc out,
such as the gadget's midpoints) becomes one arc, the directed form of the
undirected chain reduction.  Contracted arcs with the same tail and head
share one slot of the search, with a copy per arc."""

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
    path_midpoints: frozenset[int]


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
        return GadgetResult(d, None, 0, frozenset())
    x = d.vertex_count + 1
    next_vertex = x + 1
    next_arc = max((a.id for a in d.arcs), default=0) + 1
    arcs = list(d.arcs)
    midpoints: list[int] = []
    x_out = 0
    for v in sorted(surplus):
        s = surplus[v]
        for _ in range(abs(s)):
            mid = next_vertex
            next_vertex += 1
            midpoints.append(mid)
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
    return GadgetResult(d_prime, x, x_out, frozenset(midpoints))


class _Contracted(NamedTuple):
    """A digraph with its chains contracted and its parallel arcs folded,
    as PackingSearch reads it: one arc per (tail, head) pair, the count of
    its copies going to the search.  Built by hand, not as a DiGraph: the
    arc checks and cached maps of a DiGraph cost a gadget check about a
    tenth of its time."""

    ends: dict[int, tuple[int, int]]
    steps: dict[int, tuple[tuple[int, int], ...]]


def max_arc_disjoint_cycles(d: DiGraph) -> int:
    """Exact maximum number of pairwise arc-disjoint directed cycles.

    An inner vertex has exactly one arc in and one arc out, so a directed
    cycle through either of its arcs passes the vertex and uses both.  A
    cycle therefore takes all or none of the arcs of each maximal path
    through inner vertices, and contracting every such path into one arc
    (keeping the id of its first arc) maps the directed cycles of d one to
    one onto those of the contracted digraph, arc-disjoint packings onto
    arc-disjoint packings.  A path that closes on its own tail, and a cycle
    of inner vertices only, is a cycle that no other cycle meets: each
    counts once, outside the search.  The rest is the packing search, with
    the contracted arcs from one tail to one head folded into one slot (the
    first arc's id) that holds a copy per arc.  A simple cycle leaves each
    vertex once, so it uses at most one arc of such a group, and the
    arc-disjoint packings are exactly the packings within these copies.
    The search raises SearchBudgetExceeded past its state budget,
    cycles.MAX_PACKING_STATES, counted on the folded digraph.  A digraph
    without inner vertices or parallel arcs is searched as it is."""
    steps, into = d.steps, d.indegrees
    inner = {v for v, out in steps.items() if len(out) == 1 and into[v] == 1}
    cycles = 0
    ends: dict[int, tuple[int, int]] = {}
    counts: dict[int, int] = {}
    contracted: dict[int, tuple[tuple[int, int], ...]] = {}
    # the outer vertices are listed first, since the walks empty `inner`
    for v in [v for v in steps if v not in inner]:
        out = []
        slot: dict[int, int] = {}  # head -> id of the first contracted arc to reach it
        for aid, head in steps[v]:
            while head in inner:
                inner.remove(head)
                head = steps[head][0][1]
            if head == v:
                cycles += 1
            elif head in slot:
                counts[slot[head]] += 1
            else:
                slot[head] = aid
                counts[aid] = 1
                ends[aid] = (v, head)
                out.append((aid, head))
        contracted[v] = tuple(out)
    # no path from an outer vertex reached what is left: cycles of inner vertices
    while inner:
        cycles += 1
        v = head = inner.pop()
        while (head := steps[head][0][1]) != v:
            inner.remove(head)
    searcher = PackingSearch(_Contracted(ends, contracted))
    return cycles + searcher.run(counts, sum(counts.values()) // 2)[0]


def verify_packing_equivalence(d: DiGraph) -> EquivalenceReport:
    """Check that balancing adds exactly x's outdegree to the packing number.

    d and d' are packed alike by max_arc_disjoint_cycles, each within the
    packing search's state budget.  Every midpoint of d' is an inner
    vertex, so the search of d' runs with each two-arc path through x
    contracted to one arc, and the paths between x and one vertex v, one
    per unit of v's imbalance, folded into one slot.  The report carries
    the uncontracted d' for the caller to write out."""
    gadget = build_balanced_extension(d)
    r = max_arc_disjoint_cycles(d)
    r_prime = max_arc_disjoint_cycles(gadget.d_prime)
    holds = r_prime == r + gadget.x_outdegree
    return EquivalenceReport(r, r_prime, gadget.x_outdegree, holds, gadget.d_prime)


def parse_directed_instance(text: str | bytes) -> tuple[DiGraph, int]:
    """Directed instance format: ``p dkcpp <n> <m> <k>`` then ``a`` records."""
    (n, _m, k), triples = read_triples(text, "dkcpp", "a", (3,))
    return DiGraph.from_arcs(n, triples), k


def serialize_directed_instance(d: DiGraph, k: int) -> str:
    header = (d.vertex_count, len(d.arcs), k)
    return write_triples("dkcpp", "a", header, ((a.tail, a.head, a.weight) for a in d.arcs))
