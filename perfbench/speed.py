"""Machine speed, from a fixed reference computation run between operations.

The benchmark runs on shared machines whose speed drifts by half or more
over minutes: the same work takes 1.6 times as long for a while, set-up
included.  ``Speed`` times a small fixed pure-Python computation (Dijkstra
from ten sources on a seeded 400-vertex graph: heaps, dicts and tuples,
like the library's own inner loops) every ``EVERY_S`` seconds of a run, and
scales a time measured near a reference sample to what it would be on a
machine where the reference takes ``NOMINAL_S``.  The reference is part of
the benchmark, never of the library, so a change to the library cannot
move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

# median reference time on a 2-vCPU x86 VM, Python 3.11; any fixed value
# works, it only sets the scale of the scaled times
NOMINAL_S = 0.0105
# seconds between reference samples; one sample takes about 4% of that
EVERY_S = 0.25
# reference samples on each side of a measurement that its scale factor uses
WINDOW = 2


def _reference_graph(n: int = 400, degree: int = 3) -> list[list[tuple[int, int]]]:
    rng = random.Random("speed-reference")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(n):
        for _ in range(degree):
            u, w = rng.randrange(n), rng.randint(1, 9)
            adj[v].append((u, w))
            adj[u].append((v, w))
    return adj


_GRAPH = _reference_graph()


def reference() -> float:
    """Run the reference computation once; return its wall seconds."""
    t0 = time.perf_counter()
    for src in range(0, len(_GRAPH), 40):
        dist = {src: 0}
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, w in _GRAPH[v]:
                nd = d + w
                if nd < dist.get(u, nd + 1):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
    return time.perf_counter() - t0


class Speed:
    """Reference samples taken along a run, and scale factors from them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Take a reference sample if one is due; return the index of the
        latest sample, which the caller files with its next measurement."""
        if not self.samples or time.perf_counter() >= self._due:
            self.samples.append(reference())
            self._due = time.perf_counter() + EVERY_S
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """NOMINAL_S over the median reference time around sample `mark`."""
        lo = max(0, mark - WINDOW)
        return NOMINAL_S / statistics.median(self.samples[lo : mark + WINDOW + 1])

    def scaled(self, seconds: float, mark: int) -> float:
        return seconds * self.factor(mark)
