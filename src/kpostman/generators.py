"""Instance generators for demos and test harnesses.  Fixed seed, fixed bytes."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .digraph import DiGraph
from .graph import GraphError, MultiGraph

NAMED_BASES = (
    "single",
    "parallel-pair",
    "path2",
    "triangle",
    "star3",
    "theta",
    "bowtie",
    "k4",
)


def named_graph(name: str, weight: int = 1) -> MultiGraph:
    """Small named unit-weight graphs used throughout the test harnesses."""
    w = weight
    if name == "single":
        return MultiGraph.from_edges(2, [(1, 2, w)])
    if name == "parallel-pair":
        return MultiGraph.from_edges(2, [(1, 2, w), (1, 2, w)])
    if name == "path2":
        return MultiGraph.from_edges(3, [(1, 2, w), (2, 3, w)])
    if name == "triangle":
        return MultiGraph.from_edges(3, [(1, 2, w), (2, 3, w), (3, 1, w)])
    if name == "star3":
        return MultiGraph.from_edges(4, [(1, 2, w), (1, 3, w), (1, 4, w)])
    if name == "theta":
        return MultiGraph.from_edges(
            5, [(1, 3, w), (3, 2, w), (1, 4, w), (4, 2, w), (1, 5, w), (5, 2, w)]
        )
    if name == "bowtie":
        return MultiGraph.from_edges(
            5, [(1, 2, w), (2, 3, w), (1, 3, w), (3, 4, w), (4, 5, w), (3, 5, w)]
        )
    if name == "k4":
        return MultiGraph.from_edges(
            4, [(1, 2, w), (1, 3, w), (1, 4, w), (2, 3, w), (2, 4, w), (3, 4, w)]
        )
    raise GraphError(f"unknown base graph {name!r}; choose from {', '.join(NAMED_BASES)}")


def cycle_graph(n: int, weights: Sequence[int] | None = None) -> MultiGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    ws = list(weights) if weights is not None else [1] * n
    if len(ws) != n:
        raise GraphError("need one weight per cycle edge")
    return MultiGraph.from_edges(n, [(i, i % n + 1, ws[i - 1]) for i in range(1, n + 1)])


def theta_graph(paths: int, length: int, weight: int = 1) -> MultiGraph:
    """Two hub vertices joined by `paths` internally disjoint paths."""
    if paths < 2 or length < 1:
        raise GraphError("theta needs >= 2 paths of length >= 1")
    triples = []
    n = 2
    for _ in range(paths):
        prev = 1
        for step in range(length - 1):
            n += 1
            triples.append((prev, n, weight))
            prev = n
        triples.append((prev, 2, weight))
    return MultiGraph.from_edges(n, triples)


def inflate_chains(g: MultiGraph, segments: Mapping[int, Sequence[int]]) -> MultiGraph:
    """Subdivide each edge into a chain; segments[eid] lists the chain's
    segment weights (a single segment keeps the edge as is)."""
    triples: list[tuple[int, int, int]] = []
    n = g.vertex_count
    for e in g.edges:
        ws = list(segments.get(e.id, [e.weight]))
        if not ws:
            raise GraphError(f"edge {e.id}: empty segment list")
        prev = e.u
        for w in ws[:-1]:
            n += 1
            triples.append((prev, n, w))
            prev = n
        triples.append((prev, e.v, ws[-1]))
    return MultiGraph.from_edges(n, triples)


def uniform_inflation(g: MultiGraph, chain_length: int, segment_weight: int = 1) -> MultiGraph:
    if chain_length < 1:
        raise GraphError("chain length must be >= 1")
    return inflate_chains(g, {e.id: [segment_weight] * chain_length for e in g.edges})


def random_connected_graph(
    rng: random.Random, n: int, m: int, max_weight: int = 2
) -> MultiGraph:
    """Random spanning tree plus random extra edges; parallels allowed."""
    if n < 2 or m < n - 1:
        raise GraphError("need n >= 2 and m >= n-1 for a connected graph")
    if max_weight < 0:
        raise GraphError(f"max weight must be >= 0, got {max_weight}")
    triples = []
    order = list(range(2, n + 1))
    rng.shuffle(order)
    attached = [1]
    for v in order:
        triples.append((rng.choice(attached), v, rng.randint(0, max_weight)))
        attached.append(v)
    while len(triples) < m:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u == v:
            continue
        triples.append((u, v, rng.randint(0, max_weight)))
    return MultiGraph.from_edges(n, triples)


def random_digraph(rng: random.Random, n: int, arcs: int, max_weight: int = 1) -> DiGraph:
    if arcs < 0:
        raise GraphError(f"arc count must be >= 0, got {arcs}")
    if arcs > 0 and n < 2:
        raise GraphError("need n >= 2 to draw arcs without loops")
    if max_weight < 0:
        raise GraphError(f"max weight must be >= 0, got {max_weight}")
    triples = []
    while len(triples) < arcs:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t == h:
            continue
        triples.append((t, h, rng.randint(0, max_weight) if max_weight else 0))
    return DiGraph.from_arcs(n, triples)
