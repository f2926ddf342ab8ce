"""Minimum-weight perfect matching on a complete graph.

Edmonds' weighted blossom algorithm in its O(n^3) primal-dual form (as
surveyed by Galil, "Efficient algorithms for finding maximum matching in
graphs", 1986), run over an n x n cost matrix.

Nodes 0..n-1 are the vertices; ids n..n + n//2 - 1 hold the blossoms
(a laminar family whose members have at least three children has at most
n//2 of them).  Costs are scaled by 4, so the start duals (half of each
vertex's cheapest edge) are even integers; all exposed vertices then keep
one parity, every slack between two outer vertices is even, and every
dual step is an integer.  Vertex duals are unrestricted, as the matching
is perfect; blossom duals stay nonnegative.  The slack of an edge between
two different top-level nodes is c[u][v] - y[u] - y[v]: a blossom's dual
enters only the edges inside it.
"""

from __future__ import annotations

OUTER, INNER, FREE = 0, 1, -1


def min_weight_perfect_matching(cost: list[list[int]]) -> list[int]:
    """The partner of each vertex in a minimum-weight perfect matching of
    the complete graph with the given symmetric integer costs (an even
    number of vertices)."""
    n = len(cost)
    if n % 2:
        raise ValueError(f"no perfect matching on {n} vertices")
    nodes = n + n // 2
    c = [[4 * w for w in row] for row in cost]
    y = [0] * nodes  # doubled dual of a vertex, or of a blossom
    mate = [-1] * nodes  # the vertex matched to the node's base
    # greedy start from feasible duals (each half its cheapest edge): raise
    # each dual until an edge is tight, and match across it
    for u in range(n):
        y[u] = min(w for v, w in enumerate(c[u]) if v != u) // 2
    for u in range(n):
        if mate[u] >= 0:
            continue
        cu = c[u]
        y[u] = min(cu[v] - y[v] for v in range(n) if v != u)
        for v in range(n):
            if v != u and mate[v] < 0 and cu[v] == y[u] + y[v]:
                mate[u], mate[v] = v, u
                break
    if -1 not in mate[:n]:
        # feasible duals and every matched edge tight: already optimal
        return mate[:n]

    top = list(range(n)) + [-1] * (n // 2)  # outermost blossom, -1 if the id is unused
    up = [-1] * nodes  # the blossom directly containing the node
    kids: list[list[int]] = [[] for _ in range(nodes)]  # blossom cycle, base first
    # end[x][z]: the end in x of the least-slack edge between nodes x and z;
    # both ends of a blossom shift their duals together, so it stays least
    end = [[x] * nodes for x in range(nodes)]
    label = [FREE] * nodes
    parent = [-1] * nodes  # inner node: the outer vertex it was reached from
    best = [-1] * nodes  # outer vertex with the least-slack edge into the node
    seen = [0] * nodes
    spare = list(range(nodes - 1, n - 1, -1))
    queue: list[int] = []
    stamp = 0

    def gap(u: int, x: int) -> int:
        """Slack of the least-slack edge from vertex u into node x."""
        w = end[x][u]
        return c[u][w] - y[u] - y[w]

    def push(x: int) -> None:
        stack = [x]
        while stack:
            z = stack.pop()
            if z < n:
                queue.append(z)
            else:
                stack.extend(kids[z])

    def set_top(x: int, b: int) -> None:
        stack = [x]
        while stack:
            z = stack.pop()
            top[z] = b
            if z >= n:
                stack.extend(kids[z])

    def child_of(b: int, w: int) -> int:
        while up[w] != b:
            w = up[w]
        return w

    def set_best(x: int) -> None:
        best[x] = -1
        for u in range(n):
            t = top[u]
            if t != x and label[t] == OUTER and (best[x] < 0 or gap(u, x) < gap(best[x], x)):
                best[x] = u

    def even_side(b: int, xr: int) -> int:
        """Position of child xr after orienting b's cycle so that the path
        from the base to xr along increasing positions has even length."""
        cyc = kids[b]
        i = cyc.index(xr)
        if i % 2:
            cyc[1:] = cyc[:0:-1]
            return len(cyc) - i
        return i

    def set_match(x: int, z: int) -> None:
        """Match node x across its least-slack edge to node z, rematching
        the inside of x so that its base is the end of that edge."""
        mate[x] = end[z][x]
        if x >= n:
            xr = child_of(x, end[x][z])
            i = even_side(x, xr)
            cyc = kids[x]
            for j in range(i):
                set_match(cyc[j], cyc[j ^ 1])
            set_match(xr, z)
            kids[x] = cyc[i:] + cyc[:i]

    def augment(x: int, z: int) -> None:
        while True:
            nxt = top[mate[x]] if mate[x] >= 0 else -1
            set_match(x, z)
            if nxt < 0:
                return
            x = top[parent[nxt]]
            set_match(nxt, x)
            z = nxt

    def common_outer(x: int, z: int) -> int:
        """The outer node where the tree paths from x and z meet, or -1
        when they lie in different trees."""
        nonlocal stamp
        stamp += 1
        while x >= 0 or z >= 0:
            if x >= 0:
                if seen[x] == stamp:
                    return x
                seen[x] = stamp
                x = top[parent[top[mate[x]]]] if mate[x] >= 0 else -1
            x, z = z, x
        return -1

    def climb(x: int, base: int) -> list[int]:
        """Tree path from outer node x up to base, exclusive, as (outer,
        inner) pairs; the inner nodes turn outer and are queued."""
        path = []
        while x != base:
            inner = top[mate[x]]
            path += (x, inner)
            push(inner)
            x = top[parent[inner]]
        return path

    def add_blossom(x: int, base: int, z: int) -> None:
        """Shrink the odd cycle closed by the tight edge between outer
        nodes x and z, whose tree paths meet at base."""
        b = spare.pop()
        y[b] = 0
        label[b] = OUTER
        mate[b] = mate[base]
        cyc = [base, *reversed(climb(x, base)), *climb(z, base)]
        kids[b] = cyc
        for k in cyc:
            up[k] = b
        set_top(b, b)
        eb = end[b]
        for w in range(nodes):
            if top[w] == b or top[w] < 0:
                continue
            ew = end[w]
            pick, low = -1, 0
            for k in cyc:
                s = end[k][w]
                t = ew[k]
                slack = c[s][t] - y[s] - y[t]
                if pick < 0 or slack < low:
                    pick, low = k, slack
            eb[w] = end[pick][w]
            ew[b] = ew[pick]
        set_best(b)

    def expand(b: int) -> None:
        """Dissolve the inner blossom b, whose dual has reached 0, into
        the part of its cycle on the tree path and free children."""
        xr = child_of(b, end[b][parent[b]])
        for k in kids[b]:
            up[k] = -1
            set_top(k, k)
        i = even_side(b, xr)
        cyc = kids[b]
        for j in range(0, i, 2):
            inner, outer = cyc[j], cyc[j + 1]
            parent[inner] = end[outer][inner]
            label[inner], label[outer] = INNER, OUTER
            best[inner] = -1
            set_best(outer)
            push(outer)
        label[xr] = INNER
        parent[xr] = parent[b]
        for k in cyc[i + 1 :]:
            label[k] = FREE
            set_best(k)
        top[b] = -1
        spare.append(b)

    def tight(eu: int, ev: int) -> bool:
        """Act on the tight edge from outer vertex eu to vertex ev: grow
        the tree, shrink a blossom, or augment (returns True)."""
        x, z = top[eu], top[ev]
        if label[z] == FREE:
            parent[z] = eu
            label[z] = INNER
            nz = top[mate[z]]
            best[z] = best[nz] = -1
            label[nz] = OUTER
            push(nz)
        elif label[z] == OUTER:
            base = common_outer(x, z)
            if base < 0:
                augment(x, z)
                augment(z, x)
                return True
            add_blossom(x, base, z)
        return False

    def stage() -> bool:
        """Grow alternating trees from every exposed node until one path
        augments; False when the matching is already perfect."""
        for x in range(nodes):
            label[x] = FREE
            best[x] = -1
        queue.clear()
        for x in range(nodes):
            if top[x] == x and mate[x] < 0:
                parent[x] = -1
                label[x] = OUTER
                push(x)
        if not queue:
            return False
        while True:
            while queue:
                u = queue.pop()
                tu = top[u]
                cu, yu = c[u], y[u]
                for v in range(n):
                    tv = top[v]
                    if tv == tu:
                        continue
                    slack = cu[v] - yu - y[v]
                    if slack == 0:
                        if tight(u, v):
                            return True
                        tu = top[u]
                    else:
                        # the least slack over v in tv is tv's edge from u
                        b = best[tv]
                        if b < 0 or slack < gap(b, tv):
                            best[tv] = u
            step = -1
            for x in range(nodes):
                if top[x] != x:
                    continue
                if label[x] == INNER:
                    if x >= n and (step < 0 or y[x] // 2 < step):
                        step = y[x] // 2
                elif best[x] >= 0:
                    s = gap(best[x], x)
                    if label[x] == OUTER:
                        s //= 2
                    if step < 0 or s < step:
                        step = s
            if step < 0:
                raise RuntimeError("blossom matching found no dual step")
            for u in range(n):
                lab = label[top[u]]
                if lab == OUTER:
                    y[u] += step
                elif lab == INNER:
                    y[u] -= step
            for b in range(n, nodes):
                if top[b] == b:
                    if label[b] == OUTER:
                        y[b] += 2 * step
                    elif label[b] == INNER:
                        y[b] -= 2 * step
            for x in range(nodes):
                u = best[x]
                if top[x] == x and u >= 0 and top[u] != x and gap(u, x) == 0:
                    if tight(u, end[x][u]):
                        return True
            for b in range(n, nodes):
                if top[b] == b and label[b] == INNER and y[b] == 0:
                    expand(b)

    while stage():
        pass
    del set_match  # the recursive closure holds itself and every table above
    return mate[:n]
