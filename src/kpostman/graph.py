"""Weighted undirected multigraphs with stable edge identities.

Vertices are 1-based integers, edge ids are 1-based and never reused within
one graph value.  Graphs are immutable; every operation returns a new value.
A graph's vertices are the endpoints of its edges, the keys of its
adjacency: the header's n only bounds their labels.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import AbstractSet, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._matching import min_weight_perfect_matching

MAX_TOTAL_WEIGHT = 2**63 - 1


class GraphError(ValueError):
    """Invalid graph construction or violated operation precondition."""


class ParseError(GraphError):
    """Malformed instance or solution text."""


class VerificationError(GraphError):
    """A claimed solution fails verification."""


class SearchBudgetExceeded(GraphError):
    """An exponential search met one of its caps; the message names it."""


class Edge(NamedTuple):
    id: int
    u: int
    v: int
    weight: int

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex} is not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph; parallel edges allowed, self-loops rejected.

    Endpoints lie in 1..vertex_count, but per-vertex maps such as adjacency
    hold only the vertices that have an edge, so no cost grows with
    vertex_count."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise GraphError("vertex count must be nonnegative")
        n = self.vertex_count
        seen: set[int] = set()
        for eid, u, v, w in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge {eid}: vertex out of range 1..{n}")
            if u == v:
                raise GraphError(f"edge {eid}: loop edge {u}-{v} not allowed")
            if w < 0:
                raise GraphError(f"edge {eid}: negative weight {w}")
            if eid in seen:
                raise GraphError(f"duplicate edge id {eid}")
            seen.add(eid)

    @classmethod
    def from_edges(cls, vertex_count: int, triples: Iterable[tuple[int, int, int]]) -> "MultiGraph":
        """Build a graph assigning edge ids 1..m in iteration order."""
        # tuple.__new__ skips Edge's Python-level __new__; __post_init__
        # still checks every edge
        new = tuple.__new__
        edges = tuple([new(Edge, (i, u, v, w)) for i, (u, v, w) in enumerate(triples, start=1)])
        return cls(vertex_count, edges)

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def adjacency(self) -> dict[int, tuple[Edge, ...]]:
        """Incident edges per vertex that has an edge, in the order of edges."""
        adj: dict[int, list[Edge]] = defaultdict(list)
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return {v: tuple(es) for v, es in adj.items()}

    @cached_property
    def steps(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """(edge id, next vertex) pairs leaving each vertex, in adjacency order."""
        return {v: tuple((e.id, e.other(v)) for e in es) for v, es in self.adjacency.items()}

    @cached_property
    def chains(self) -> tuple[Chain, ...]:
        """The cut into chains at the anchors (see _chains), made once per
        graph; connectivity, the odd vertices, the CPP join and the
        reduction all read it."""
        return tuple(_chains(self.adjacency))

    @cached_property
    def chain_join(self) -> frozenset[int]:
        """Indices into chains of a minimum join over the odd anchors (see
        _join_chains), made once per graph; solve_cpp and the kernel search
        both read it.  Raises if two odd vertices have no path."""
        chains = self.chains
        return frozenset(_join_chains(chains, _odd_anchors(chains)))

    @cached_property
    def parallel_pairs(self) -> tuple[tuple[Edge, Edge], ...]:
        """Every pair of parallel edges, the earlier in base order first,
        read off the chain cut: two parallel edges are two single-edge open
        chains on the same anchors, a 2-edge loop chain or a 2-edge ring,
        and the cut lists each group and each such chain's edges in base
        order (see _CoreCut for the cut's order)."""
        groups: dict[tuple[int, int], list[int]] = {}
        pairs: list[tuple[int, ...]] = []
        for c in self.chains:
            if len(c.edges) == 1:
                groups.setdefault((c.u, c.v), []).append(c.edges[0])
            elif len(c.edges) == 2 and c.u == c.v:
                pairs.append(c.edges)
        for ids in groups.values():
            pairs.extend(combinations(ids, 2))
        by_id = self.edge_by_id
        return tuple((by_id[a], by_id[b]) for a, b in pairs)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Index in edges per edge id."""
        return dict(zip(map(itemgetter(0), self.edges), range(len(self.edges))))

    @cached_property
    def ends(self) -> dict[int, tuple[int, int]]:
        """(u, v) per edge id."""
        return {e.id: (e.u, e.v) for e in self.edges}

    def edge(self, edge_id: int) -> Edge:
        try:
            return self.edge_by_id[edge_id]
        except KeyError:
            raise GraphError(f"no edge with id {edge_id}") from None

    def degree(self, vertex: int) -> int:
        return len(self.adjacency.get(vertex, ()))

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def total_weight(self) -> int:
        return sum(map(itemgetter(3), self.edges))

    def max_edge_id(self) -> int:
        return max(map(itemgetter(0), self.edges), default=0)

    def min_weight(self) -> int:
        """Smallest edge weight; graphs queried here always carry an edge."""
        if not self.edges:
            raise GraphError("graph has no edges")
        return min(map(itemgetter(3), self.edges))

    def min_weight_edge(self) -> Edge:
        """Lowest-id edge attaining the minimum weight (deterministic choice)."""
        if not self.edges:
            raise GraphError("graph has no edges")
        return min(self.edges, key=itemgetter(3, 0))


@dataclass(frozen=True)
class Instance:
    graph: MultiGraph
    k: int
    p: int | None = None


@dataclass(frozen=True)
class DegreeClasses:
    """Partition of the non-isolated vertices by degree 1 / 2 / >= 3."""

    v1: frozenset[int]
    v2: frozenset[int]
    v3plus: frozenset[int]


@dataclass(frozen=True)
class Walk:
    """Closed walk: cyclic (vertex, edge_id) steps; step i leaves its vertex
    along its edge and arrives at step i+1's vertex.  A packed cycle is a
    walk on distinct vertices, which cycles.check_packing checks."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.steps)

    def weight(self, g: MultiGraph) -> int:
        return sum(g.edge(e).weight for _, e in self.steps)


@dataclass(frozen=True)
class Solution:
    walks: tuple[Walk, ...]
    total_weight: int


class BypassResult(NamedTuple):
    graph: MultiGraph
    new_edge_id: int
    replaced: tuple[int, int]


class Chain(NamedTuple):
    """Maximal path whose internal vertices all have degree 2.

    edges[i] joins vertices[i] to vertices[i+1], from anchor u to anchor v;
    u == v for a loop chain closed on one anchor.  A ring is a whole
    component of degree-2 vertices: it has no anchor and runs from its
    lowest vertex back to it.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    weight: int
    ring: bool
    u: int  # vertices[0]
    v: int  # vertices[-1]

    @property
    def internal(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


def _chains(adj: Mapping[int, Collection[Edge]]) -> list[Chain]:
    """Cut the graph given by its incidence map (the incident edges of each
    vertex, in base edge order) into chains at its anchors, the vertices of
    degree other than 2, plus one ring per component without an anchor; a
    vertex without edges is skipped.  Linear in the size of the graph.
    MultiGraph.chains caches the cut, so every reader of one graph shares
    it."""
    used: set[int] = set()
    chains: list[Chain] = []

    def follow(a: int, start: Edge, ring: bool) -> None:
        eid, x, y, weight = start
        verts, ids = [a], [eid]
        cur = x + y - a  # the other end
        while cur != a:
            es = adj[cur]
            if len(es) != 2:
                break
            verts.append(cur)
            e1, e2 = es
            eid, x, y, w = e2 if e1[0] == eid else e1
            ids.append(eid)
            weight += w
            cur = x + y - cur
        verts.append(cur)
        used.update(ids)
        chains.append(Chain(tuple(verts), tuple(ids), weight, ring, a, cur))

    twos: list[int] = []
    degrees = 0
    for a in sorted(adj):
        es = adj[a]
        degrees += len(es)
        if len(es) == 2:
            twos.append(a)
            continue
        for start in es:
            if start[0] not in used:
                follow(a, start, False)
    if 2 * len(used) < degrees:  # edges are left over: they form rings
        for a in twos:
            for start in adj[a]:
                if start[0] not in used:
                    follow(a, start, True)
    return chains


class _CoreCut:
    """The chain cut of the 2-core of a graph's edges less `zero`, read off
    the graph's cached cut and kept live as whole chains are taken out.

    It equals _chains of that 2-core's incidence map in base edge order,
    chain for chain.  That cut lists the open and loop chains by (start
    anchor, base position of the start edge): an open chain runs from its
    lower anchor, a loop chain from whichever of its end edges comes first
    in g.edges.  The rings follow by lowest vertex, each run from that
    vertex along the ring edge there that comes first.  `keys` holds one
    integer per chain in that order (the position counts in g.edges, not
    the edge id), so a chain joined later is put in its place by bisection.

    Every anchor of the core is an anchor of g.  So the core keeps the
    chains of g's cut that hold no edge of `zero` and are not peeled away:
    an anchor left with one chain end loses that chain, and one left with
    two is no anchor any more, and the chains through it join into one.
    Taking chains out (drop) repeats this from their anchors only.
    """

    def __init__(self, g: MultiGraph, zero: AbstractSet[int] = frozenset()) -> None:
        self.pos, self.stride = g.positions, len(g.edges) + 1
        self.rings = (g.vertex_count + 1) * self.stride  # keys from here on are rings
        chains = [c for c in g.chains if zero.isdisjoint(c.edges)] if zero else list(g.chains)
        self.chains = chains
        self.keys = keys = [self._key(c.u, c.edges[0], c.ring) for c in chains]
        self.sizes = [(len(c.edges), c.weight) for c in chains]  # (edges, weight) per chain
        # anchor -> the key of each chain end there, so a loop chain's twice
        self.at: defaultdict[int, list[int]] = defaultdict(list)
        at = self.at
        for key, c in zip(keys, chains):
            if not c.ring:
                at[c.u].append(key)
                at[c.v].append(key)
        self._settle([a for a, ends in at.items() if len(ends) < 3])

    def _key(self, start: int, first_edge: int, ring: bool) -> int:
        return self.rings + start if ring else start * self.stride + self.pos[first_edge]

    def drop(self, indices: Iterable[int]) -> None:
        """Take the chains at these indices of `chains` out of the core."""
        at = self.at
        stack: list[int] = []
        for key in [self.keys[i] for i in indices]:
            c = self._remove(key)
            if not c.ring:
                at[c.u].remove(key)
                at[c.v].remove(key)
                stack += (c.u, c.v)
        self._settle(stack)

    def _remove(self, key: int) -> Chain:
        i = bisect_left(self.keys, key)
        del self.keys[i], self.sizes[i]
        return self.chains.pop(i)

    def _settle(self, stack: list[int]) -> None:
        """Peel from the anchors on stack, then join at those left with two
        chain ends."""
        at = self.at
        twos: list[int] = []
        while stack:
            a = stack.pop()
            ends = at.get(a)
            if ends is None:
                continue
            if len(ends) == 2:
                twos.append(a)
            elif len(ends) == 1:
                del at[a]
                key = ends[0]
                c = self._remove(key)
                b = c.v if c.u == a else c.u
                at[b].remove(key)
                stack.append(b)
            elif not ends:
                del at[a]
        for a in twos:
            if len(at.get(a, ())) == 2:
                self._join(a)

    def _join(self, a: int) -> None:
        """Join the chains through anchor a, which has two chain ends, and
        on through every anchor with two, into one chain or ring."""
        at = self.at
        first, second = at.pop(a)
        end, last, verts, ids, weight = self._run(a, first)
        ring = end == a
        if ring:  # start at the lowest vertex
            i = verts.index(min(verts))
            verts = verts[i:-1] + verts[: i + 1]
            ids = ids[i:] + ids[:i]
        else:  # run the other way too, and join the two
            back_end, back_last, back, back_ids, back_weight = self._run(a, second)
            verts = back[::-1] + verts[1:]
            ids = back_ids[::-1] + ids
            weight += back_weight
        # an open chain runs from its lower anchor, a loop chain or a ring
        # from the earlier of its end edges
        u, v = verts[0], verts[-1]
        if u > v or u == v and self.pos[ids[-1]] < self.pos[ids[0]]:
            verts.reverse()
            ids.reverse()
            u, v = v, u
        key = self._key(u, ids[0], ring)
        if not ring:  # the joined chain takes the place of the last chain run at each end
            for x, old in ((end, last), (back_end, back_last)):
                ends = at[x]
                ends[ends.index(old)] = key
        i = bisect_left(self.keys, key)
        self.keys.insert(i, key)
        self.sizes.insert(i, (len(ids), weight))
        self.chains.insert(i, Chain(tuple(verts), tuple(ids), weight, ring, u, v))

    def _run(self, a: int, key: int) -> tuple[int, int, list[int], list[int], int]:
        """Walk from anchor a along chain `key` and on through every anchor
        with two chain ends, taking the chains walked and those anchors
        out; return the anchor it stops at (a again round a ring), the key
        of the last chain walked, which that anchor still lists, and the
        vertices from a, the edge ids and the weight walked."""
        at = self.at
        verts, ids, weight, x = [a], [], 0, a
        while True:
            c = self._remove(key)
            if c.u == x:
                verts += c.vertices[1:]
                ids += c.edges
                x = c.v
            else:
                verts += c.vertices[-2::-1]
                ids += c.edges[::-1]
                x = c.u
            weight += c.weight
            if x == a:
                return x, key, verts, ids, weight
            ends = at[x]
            if len(ends) != 2:
                return x, key, verts, ids, weight
            del at[x]
            key = ends[1] if ends[0] == key else ends[0]


def _find(root: dict[int, int], x: int) -> int:
    """Representative of x in the union-find forest `root`, halving the
    path on the way; an x not yet in root becomes a root of its own."""
    while root.setdefault(x, x) != x:
        root[x] = x = root[root[x]]
    return x


def _components(chains: Sequence[Chain]) -> list[list[Chain]]:
    """Each component's chains, in the order of their first chains: a
    union-find over the chain ends, where a ring, whose ends are its lowest
    vertex, is a component of its own."""
    root: dict[int, int] = {}
    for c in chains:
        a, b = _find(root, c.u), _find(root, c.v)
        if a != b:
            root[a] = b
    parts: dict[int, list[Chain]] = {}
    for c in chains:
        parts.setdefault(_find(root, c.u), []).append(c)
    return list(parts.values())


def _settle(
    incident: Mapping[int, Iterable[tuple[int, int, int, int]]], source: int
) -> Iterator[tuple[int, tuple[int, int], tuple[int, int] | None]]:
    """Dijkstra over a chain graph from source.  incident lists (chain
    index, other end, first key, second key) per anchor, and a path's key
    is the pair of its chains' key sums, compared lexicographically; paths
    that tie go by heap order.  Yields (anchor, key, via) in settle order,
    via being the (chain index, previous anchor) the anchor was reached
    over, None at the source; the caller stops iterating once it has what
    it needs.  The CPP join keys chains on (weight, hops), the girth on
    (hops, weight)."""
    dist = {source: (0, 0)}
    via: dict[int, tuple[int, int]] = {}
    settled: set[int] = set()
    heap = [(0, 0, source)]
    while heap:
        a, b, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        yield x, (a, b), via.get(x)
        for ci, y, ca, cb in incident[x]:
            if y in settled:
                continue
            cand = (a + ca, b + cb)
            old = dist.get(y)
            if old is None or cand < old:
                dist[y] = cand
                via[y] = (ci, x)
                heapq.heappush(heap, (*cand, y))


def _odd_anchors(chains: Iterable[Chain]) -> list[int]:
    """The odd vertices, ascending, of a graph cut into chains at (at
    least) its anchors: every odd vertex is an anchor, and it is odd iff an
    odd number of open chains end at it (a loop chain ends there twice, a
    ring nowhere)."""
    odd: set[int] = set()
    for c in chains:
        if c.u != c.v:
            odd ^= {c.u, c.v}
    return sorted(odd)


def _join_chains(chains: Sequence[Chain], terminals: list[int]) -> set[int]:
    """Indices into chains of a minimum join over the sorted, distinct
    terminals, which must all be anchors of the cut.

    A shortest path between anchors enters a chain only to traverse all of
    it, so the search runs over whole chains; loop chains and rings never
    lie on a shortest path and are skipped.  The join is the symmetric
    difference of the chains on the matched paths.  Raises if two
    terminals have no path between them.
    """
    if not terminals:
        return set()
    incident: dict[int, list[tuple[int, int, int, int]]] = {v: [] for v in terminals}
    for ci, c in enumerate(chains):
        if c.u != c.v:
            incident.setdefault(c.u, []).append((ci, c.v, c.weight, len(c.edges)))
            incident.setdefault(c.v, []).append((ci, c.u, c.weight, len(c.edges)))
    n = len(terminals)
    dist = [[0] * n for _ in range(n)]
    trees: list[dict[int, tuple[int, int] | None]] = []
    for i, s in enumerate(terminals[:-1]):
        left = {t: j for j, t in enumerate(terminals[i + 1 :], start=i + 1)}
        tree: dict[int, tuple[int, int] | None] = {}
        for x, (w, _), via in _settle(incident, s):
            tree[x] = via
            j = left.pop(x, None)
            if j is not None:
                dist[i][j] = dist[j][i] = w
                if not left:
                    break
        if left:
            raise GraphError(f"no path between odd vertices {s} and {min(left)}")
        trees.append(tree)
    join: set[int] = set()
    for i, j in enumerate(min_weight_perfect_matching(dist)):
        if i < j:
            tree, y = trees[i], terminals[j]
            while (via := tree[y]) is not None:
                ci, y = via
                join ^= {ci}
    return join


def degree_classes(g: MultiGraph) -> DegreeClasses:
    v1, v2, v3 = [], [], []
    for v, es in g.adjacency.items():
        d = len(es)
        if d == 1:
            v1.append(v)
        elif d == 2:
            v2.append(v)
        else:
            v3.append(v)
    return DegreeClasses(frozenset(v1), frozenset(v2), frozenset(v3))


def bypass(g: MultiGraph, vertex: int) -> BypassResult:
    """Replace a degree-2 vertex's two edges by one edge with summed weight.

    The bypassed vertex stays in the graph as an isolated index so that
    expansion maps remain stable.  The replaced pair is reported in traversal
    order: first the edge incident to the new edge's u endpoint.
    """
    inc = g.adjacency.get(vertex, ())
    if len(inc) != 2:
        raise GraphError(f"bypass needs degree exactly 2, vertex {vertex} has degree {len(inc)}")
    e1, e2 = inc
    a, b = e1.other(vertex), e2.other(vertex)
    if a == b:
        raise GraphError(f"bypassing {vertex} would create a loop at {a}")
    new_id = g.max_edge_id() + 1
    new_edge = Edge(new_id, a, b, e1.weight + e2.weight)
    edges = tuple(e for e in g.edges if e.id not in (e1.id, e2.id)) + (new_edge,)
    return BypassResult(MultiGraph(g.vertex_count, edges), new_id, (e1.id, e2.id))


def is_connected(g: MultiGraph) -> bool:
    """True iff all vertices of degree >= 1 lie in one component."""
    return len(_components(g.chains)) <= 1


def verify_solution(g: MultiGraph, k: int, s: Solution) -> int:
    """Check all solution invariants against g; return the recomputed weight.

    Raises VerificationError on: wrong walk count, empty walk, unknown edge,
    broken walk adjacency, open walk, uncovered edge, weight mismatch.
    """
    if len(s.walks) != k:
        raise VerificationError(f"expected {k} walks, got {len(s.walks)}")
    edge_by_id = g.edge_by_id
    covered: set[int] = set()
    weight = 0
    for wi, walk in enumerate(s.walks):
        steps = walk.steps
        if not steps:
            raise VerificationError(f"walk {wi} is empty")
        # step i arrives at the vertex of step i + 1, the last step at step 0's
        for i, ((v, eid), (nxt, _)) in enumerate(zip(steps, steps[1:] + steps[:1])):
            e = edge_by_id.get(eid)
            if e is None:
                raise VerificationError(f"walk {wi} step {i}: no edge with id {eid}")
            if not (v == e.u and nxt == e.v or v == e.v and nxt == e.u):
                raise VerificationError(
                    f"walk {wi} step {i}: edge {eid} does not join {v} to {nxt}"
                )
            covered.add(eid)
            weight += e.weight
    missing = set(edge_by_id) - covered
    if missing:
        raise VerificationError(f"uncovered edges: {sorted(missing)}")
    if weight != s.total_weight:
        raise VerificationError(f"stated weight {s.total_weight} != recomputed {weight}")
    return weight


def ascii_text(text: str | bytes) -> str:
    """Record text as str; raises ParseError unless it is all ASCII."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError(f"text is not ASCII: non-ASCII character at position {bad}")
    return text


def _record(
    lineno: int, raw: str, tok: list[str], tags: tuple[str, ...], fmt: str | None, signs: bool
) -> tuple[str, list[int]] | None:
    """(tag, integer fields) of line `lineno`, the ASCII text `raw` split
    into tok; None for a blank line or one whose first token starts with
    ``#``.

    This is the one per-line check of every record reader, so each of its
    messages is written once.  A ``p`` header must name `fmt` as its first
    field, which is dropped.  Unknown tags and fields other than
    ``-?[0-9]+`` raise ParseError.  `signs` says whether the whole text
    holds a ``+`` or ``_``; only then is the line scanned for them.
    """
    if not tok or tok[0].startswith("#"):
        return None
    tag, fields = tok[0], tok[1:]
    if tag not in tags:
        raise ParseError(f"line {lineno}: unknown record tag {tag!r}")
    if tag == "p":
        if fields[:1] != [fmt]:
            raise ParseError(f"line {lineno}: malformed header {raw.strip()!r}")
        fields = fields[1:]
    # on ASCII tokens int() takes -?[0-9]+ and also a '+' sign and '_' separators
    if signs and ("+" in raw or "_" in raw):
        raise ParseError(f"line {lineno}: '+' or '_' in {raw.strip()!r}")
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer field in {raw.strip()!r}") from None
    return tag, values


def _records(
    text: str | bytes, tags: tuple[str, ...], fmt: str | None = None
) -> Iterator[tuple[int, str, list[int]]]:
    """Yield (line number, tag, integer fields) for each record line.

    The text must be ASCII.  Each line goes through _record, which skips
    blank and comment lines and raises ParseError on the rest of the
    per-line faults.
    """
    text = ascii_text(text)
    signs = "+" in text or "_" in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        rec = _record(lineno, raw, raw.split(), tags, fmt, signs)
        if rec is not None:
            yield lineno, *rec


def read_triples(
    text: str | bytes, fmt: str, tag: str, header_sizes: tuple[int, ...]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Read the shared graph format: one header ``p <fmt> <n> <m> <k> ...``
    with a value count in header_sizes, then exactly m records
    ``<tag> <a> <b> <w>`` with a != b in 1..n and w >= 0.

    n and m must be nonnegative, k at least 1 and any further header value
    nonnegative.  Returns the header values and the (a, b, w) triples.

    A plain record after the header, four tokens in a text without ``+``
    or ``_``, is converted and checked here.  Every other line, and a
    plain record with a non-integer field, goes to the per-line check
    _record that the solution reader shares, so each message and the line
    it names are those of reading every line through _record.
    """
    text = ascii_text(text)
    signs = "+" in text or "_" in text
    tags = ("p", tag)
    header: list[int] | None = None
    n = 0
    triples: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if header is not None and not signs and len(tok) == 4 and tok[0] == tag:
            try:
                a, b, w = int(tok[1]), int(tok[2]), int(tok[3])
            except ValueError:
                _record(lineno, raw, tok, tags, fmt, signs)  # raises: a field is no integer
                raise
        else:
            rec = _record(lineno, raw, tok, tags, fmt, signs)
            if rec is None:
                continue
            t, values = rec
            if t == "p":
                if header is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                if len(values) not in header_sizes:
                    raise ParseError(f"line {lineno}: malformed header")
                if values[2] < 1 or any(x < 0 for x in values):
                    raise ParseError(f"line {lineno}: header values out of range")
                header, n = values, values[0]
                continue
            if header is None:
                raise ParseError(f"line {lineno}: record before header")
            if len(values) != 3:
                raise ParseError(f"line {lineno}: malformed record, expected 3 fields")
            a, b, w = values
        if a == b:
            raise ParseError(f"line {lineno}: loop {a}-{b}")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(f"line {lineno}: vertex index out of range")
        triples.append((a, b, w))
    if header is None:
        raise ParseError("missing header")
    if len(triples) != header[1]:
        raise ParseError(f"header declares m={header[1]} but found {len(triples)} records")
    return header, triples


def write_triples(
    fmt: str, tag: str, header: Iterable[int], triples: Iterable[tuple[int, int, int]]
) -> str:
    """Write the shared graph format that read_triples reads: the header
    ``p <fmt> ...`` then one ``<tag> <a> <b> <w>`` line per triple."""
    lines = [" ".join(["p", fmt, *map(str, header)])]
    lines.extend(f"{tag} {a} {b} {w}" for a, b, w in triples)
    return "\n".join(lines) + "\n"


def parse_instance(text: str | bytes) -> Instance:
    """Parse the line-oriented instance format.

    Header ``p kcpp <n> <m> <k>`` with an optional fifth token ``<p>``;
    exactly m edge records ``e <u> <v> <w>``; ``#`` starts a comment line.
    """
    header, triples = read_triples(text, "kcpp", "e", (3, 4))
    n, _, k = header[:3]
    p = header[3] if len(header) == 4 else None
    return checked_instance(MultiGraph.from_edges(n, triples), k, p)


def checked_instance(g: MultiGraph, k: int, p: int | None = None) -> Instance:
    """Instance(g, k, p) once k >= 1, p >= 0 and 2k+2 traversals of every
    edge fit in a 64-bit total; raises ParseError otherwise."""
    if k < 1:
        raise ParseError(f"k must be >= 1, got {k}")
    if p is not None and p < 0:
        raise ParseError(f"budget p must be >= 0, got {p}")
    max_w = max((e.weight for e in g.edges), default=0)
    if len(g.edges) * max_w * (2 * k + 2) > MAX_TOTAL_WEIGHT:
        raise ParseError("instance weights may overflow 64-bit totals")
    return Instance(g, k, p)


def serialize_instance(inst: Instance) -> str:
    g = inst.graph
    header = [g.vertex_count, len(g.edges), inst.k] + ([] if inst.p is None else [inst.p])
    return write_triples("kcpp", "e", header, ((e.u, e.v, e.weight) for e in g.edges))


def serialize_solution(s: Solution) -> str:
    """Solution format: ``s <total_weight> <k>`` then one ``w`` line per walk."""
    lines = [f"s {s.total_weight} {len(s.walks)}"]
    for walk in s.walks:
        steps = walk.steps
        body = " ".join([f"{v} {e}" for v, e in steps])
        lines.append(f"w {len(steps)} {body} {steps[0][0]}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str | bytes) -> Solution:
    """Parse the solution format written by serialize_solution."""
    total: int | None = None
    k: int | None = None
    walks: list[Walk] = []
    for lineno, tag, numbers in _records(text, ("s", "w")):
        if tag == "s":
            if total is not None:
                raise ParseError(f"line {lineno}: duplicate solution header")
            if len(numbers) != 2:
                raise ParseError(f"line {lineno}: malformed solution header")
            total, k = numbers
            if total < 0 or k < 1:
                raise ParseError(f"line {lineno}: solution header values out of range")
        else:
            if total is None:
                raise ParseError(f"line {lineno}: walk before solution header")
            if not numbers:
                raise ParseError(f"line {lineno}: walk record without a step count")
            count, body = numbers[0], numbers[1:]
            if count < 1 or len(body) != 2 * count + 1:
                raise ParseError(f"line {lineno}: walk needs >= 1 step and 2*count+1 tokens")
            if body[0] != body[-1]:
                raise ParseError(f"line {lineno}: walk does not close on its start vertex")
            pairs = iter(body)  # zip takes (v, e) pairs and leaves the closing vertex
            walks.append(Walk(tuple(zip(pairs, pairs))))
    if total is None or k is None:
        raise ParseError("missing solution header")
    if len(walks) != k:
        raise ParseError(f"solution header declares {k} walks, found {len(walks)}")
    return Solution(tuple(walks), total)
