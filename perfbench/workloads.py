"""Seeded instance generators for the benchmark's four workloads.

The generators draw from ``random.Random`` and build plain edge and arc
lists; they do not use ``kpostman.generators``, so a change to the library
cannot change the load.  ``instance_text`` renders one instance in the
library's line format; the digest of those texts pins the load.

Solve time depends mostly on a few size parameters (vertex count, chain
length, k, arc count).  Drawing them independently per instance makes the
quantiles of a run move a lot from seed to seed, so the kind and k of an
instance are fixed by its slot in the list, and the other size parameters
follow a randomly shifted low-discrepancy sequence: every seed covers each
range evenly, and the seed still decides every value and all structure.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# instances per workload; a pass over them takes a few seconds on one core
COUNTS = {"chains": 120, "joins": 160, "search": 1200, "gadget": 600}
DEFAULT_SEED = 1

# harness copies of the small named bases, as (vertex count, edge list)
NAMED_BASES = {
    "bowtie": (5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]),
    "theta": (5, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)]),
    "triangle": (3, [(1, 2), (2, 3), (3, 1)]),
    "parallel-pair": (2, [(1, 2), (1, 2)]),
}
CHAIN_BASES = tuple(NAMED_BASES)

# the library refuses a join over more terminals than this (cpp.MAX_ODD_VERTICES)
TERMINAL_CAP = 16
# the exact kernel search refuses more chains than this (solve.MAX_SEARCH_CHAINS)
SEARCH_CHAIN_CAP = 16
# the gadget adds two arcs per unit of imbalance and the packing search is
# exponential in arcs: past this one instance can take seconds (sum over
# vertices of |outdegree - indegree|)
GADGET_MAX_IMBALANCE = 8

# additive-recurrence steps for up to three jointly even coordinates
_STEPS = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)


@dataclass(frozen=True)
class Spec:
    """One undirected instance (k >= 1) or one digraph (k is None)."""

    kind: str
    n: int
    triples: tuple[tuple[int, int, int], ...]
    k: int | None


class _Even:
    """Slot-indexed values spread evenly over a range, from a seeded start."""

    def __init__(self, rng: random.Random):
        self.starts = [rng.random() for _ in _STEPS]

    def pick(self, dim: int, i: int, lo: int, hi: int) -> int:
        frac = (self.starts[dim] + i * _STEPS[dim]) % 1.0
        return lo + int(frac * (hi - lo + 1))


def instance_text(spec: Spec) -> str:
    """Line format of the library's instance files; ``a`` records for arcs."""
    if spec.k is None:
        head = f"p dkcpp {spec.n} {len(spec.triples)} 1"
        tag = "a"
    else:
        head = f"p kcpp {spec.n} {len(spec.triples)} {spec.k}"
        tag = "e"
    return "\n".join([head] + [f"{tag} {u} {v} {w}" for u, v, w in spec.triples]) + "\n"


def load_digest(specs: list[Spec]) -> str:
    h = hashlib.sha256()
    for spec in specs:
        h.update(instance_text(spec).encode("ascii"))
    return h.hexdigest()


def _random_base(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree on 1..n plus `extra` random non-loop edges."""
    order = list(range(2, n + 1))
    rng.shuffle(order)
    attached = [1]
    edges = []
    for v in order:
        edges.append((rng.choice(attached), v))
        attached.append(v)
    while len(edges) < n - 1 + extra:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.append((u, v))
    return edges


def _inflate(
    rng: random.Random,
    n: int,
    edges: list[tuple[int, int]],
    segments: tuple[int, int],
    weights: tuple[int, int],
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Subdivide every edge into a chain of randomly many weighted segments."""
    triples = []
    for u, v in edges:
        prev = u
        for _ in range(rng.randint(*segments) - 1):
            n += 1
            triples.append((prev, n, rng.randint(*weights)))
            prev = n
        triples.append((prev, v, rng.randint(*weights)))
    return n, tuple(triples)


def _around(length: int, lo: int, hi: int) -> tuple[int, int]:
    """Per-edge segment range within 5 of a per-instance length."""
    return max(lo, length - 5), min(hi, length + 5)


def _degrees(n: int, edges: list[tuple[int, int]]) -> list[int]:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _imbalance(n: int, arcs: list[tuple[int, int, int]]) -> int:
    """Sum over vertices of |outdegree - indegree|."""
    surplus = [0] * (n + 1)
    for t, h, _ in arcs:
        surplus[t] += 1
        surplus[h] -= 1
    return sum(abs(s) for s in surplus)


def _chains(rng: random.Random, even: _Even, i: int) -> Spec:
    # blocks of 20 slots: 8 weighted bare cycles, then 3 of each named base
    # with every edge inflated into a chain; k = 2..6 steps once per block
    k = 2 + (i // 20) % 5
    if i % 20 < 8:
        n = even.pick(0, i, 60, 240)
        triples = tuple((v, v % n + 1, rng.randint(1, 9)) for v in range(1, n + 1))
        return Spec("cycle", n, triples, k)
    name = CHAIN_BASES[i % len(CHAIN_BASES)]
    n, edges = NAMED_BASES[name]
    length = even.pick(1, i, 10, 60)
    n, triples = _inflate(rng, n, edges, _around(length, 10, 60), (1, 9))
    return Spec(name, n, triples, k)


def _joins(rng: random.Random, even: _Even, i: int) -> Spec:
    # one slot in 16 exceeds the terminal cap; k = 2..5 steps every 16 slots
    k = 2 + (i // 16) % 4
    if i % 16 == 15:
        while True:
            n = rng.randint(26, 32)
            edges = _random_base(rng, n, rng.randint(4, 10))
            if sum(d % 2 for d in _degrees(n, edges)) > TERMINAL_CAP:
                break
        kind = "over-cap"
    else:
        n = even.pick(0, i, 10, 16)
        edges = _random_base(rng, n, even.pick(1, i, 4, 10))
        kind = "base"
    length = even.pick(2, i, 10, 60)
    n, triples = _inflate(rng, n, edges, _around(length, 10, 60), (1, 20))
    return Spec(kind, n, triples, k)


def _search(rng: random.Random, even: _Even, i: int) -> Spec:
    if i % 20 == 19:
        # k exceeds half the edge copies of any single-walk cover, so no
        # shortcut can fire, and the kernel keeps more than 16 chains: the
        # library refuses every one of these at its chain cap
        while True:
            edges = _random_base(rng, 16, 24 - 15)
            # every degree-2 vertex joins two edges into one chain
            if len(edges) - _degrees(16, edges).count(2) > SEARCH_CHAIN_CAP:
                break
        triples = tuple((u, v, rng.randint(0, 4)) for u, v in edges)
        return Spec("over-cap", 16, triples, 25)
    # k = 3..10 steps every 20 slots; bases of at most 12 edges keep one
    # kernel search within about a tenth of a second
    k = 3 + (i // 20) % 8
    n = even.pick(0, i, 6, 8)
    edges = _random_base(rng, n, even.pick(1, i, 3, 5))
    n, triples = _inflate(rng, n, edges, (1, 4), (1, 5))
    return Spec("base", n, triples, k)


def _walk(rng: random.Random, n: int, start: int, end: int, length: int) -> list[tuple[int, int, int]]:
    """Weighted arcs of a random walk with `length` steps from start to end."""
    arcs = []
    cur = start
    for step in range(length):
        nxt = end
        if step < length - 1:
            nxt = rng.randint(1, n)
            while nxt == cur or (step == length - 2 and nxt == end):
                nxt = rng.randint(1, n)
        arcs.append((cur, nxt, rng.randint(0, 3)))
        cur = nxt
    return arcs


def _gadget(rng: random.Random, even: _Even, i: int) -> Spec:
    # the gadget's size, and so the search time, follows the arc count and
    # the imbalance (sum of |outdegree - indegree|), so both are spread
    # evenly: the digraph is j open walks from sources to disjoint sinks,
    # which gives imbalance exactly 2j, plus closed walks of 2 arcs or more
    n, m = even.pick(0, i, 4, 7), even.pick(1, i, 6, 10)
    j = even.pick(2, i, 0, GADGET_MAX_IMBALANCE // 2)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    half = rng.randint(1, n - 1)
    lengths = [1] * j
    spare = m - j
    closed = []
    while spare >= 2 and (j == 0 or rng.random() < 0.6):
        length = rng.randint(2, spare)
        if spare - length == 1 and j == 0:
            length = spare
        closed.append(length)
        spare -= length
    for _ in range(spare):
        lengths[rng.randrange(j)] += 1
    arcs = []
    for length in lengths:
        arcs += _walk(rng, n, rng.choice(order[:half]), rng.choice(order[half:]), length)
    for length in closed:
        start = rng.randint(1, n)
        arcs += _walk(rng, n, start, start, length)
    return Spec("digraph", n, tuple(arcs), None)


_MAKERS = {"chains": _chains, "joins": _joins, "search": _search, "gadget": _gadget}
WORKLOADS = tuple(_MAKERS)


def generate(workload: str, seed: int, count: int | None = None) -> list[Spec]:
    """The workload's instance list for one seed; same seed, same list."""
    rng = random.Random(f"{workload}/{seed}")
    even = _Even(rng)
    make = _MAKERS[workload]
    return [make(rng, even, i) for i in range(COUNTS[workload] if count is None else count)]
