"""Scan kernels over bitset adjacency rows.

These are the hot inner loops of the package: the (t,k) scan for the
lexicographically first k-subset that is a clique in no color, the
induced-C4 scan and maximal-clique enumeration.  Rows are Python ints used
as bitsets; every kernel has a deterministic output order.
"""

from __future__ import annotations

BACKEND = "pure"


def first_tk_violation(n, k, color_adj):
    """Lexicographically first k-subset that is a clique in no color.

    color_adj is a list (one entry per color) of adjacency bitmask rows.
    Returns the violating subset as an increasing tuple, or None.

    The scan walks increasing k-tuples depth first on an explicit stack, so
    its depth is not bounded by the interpreter's recursion limit.  For every
    color still alive it keeps the bitmask of vertices adjacent (in that
    color) to all chosen vertices.  Once no color is alive every extension
    violates, so the lexicographically first completion is emitted
    immediately.  At the last level a vertex completes a violation exactly
    when it lies in no alive color's common mask, so the lowest such vertex
    from the level's first candidate on is read off one OR of those masks.

    Below the last level, a node whose remaining candidates are the pool
    {v, ..., n-1} is skipped when some alive color is a clique on the pool
    and its common mask holds the whole pool: the chosen vertices are a
    clique in that color and joined in it to every pool vertex, so every
    completion is a clique in that color.  ``start[c]`` is the least s such
    that {s, ..., n-1} is a clique in color c (one backward pass per color),
    so a color qualifies only when ``start[c] <= v``, and nodes with v below
    every ``start`` skip the test (at k <= 2 the pass is skipped and no
    node is tested).  Skipped subtrees hold no violation, so the visit
    order and the witness are those of the unpruned scan; on a passing
    input the scan no longer walks every (k-1)-prefix.
    """
    if k > n:
        return None
    full = (1 << n) - 1
    start = []
    lo = n
    # at k <= 2 the only level above the last is the root's, where a skip
    # can only end the scan early: the O(t*n) pass would cost what it saves
    if k > 2:
        for rows in color_adj:
            s = n
            pool = 0
            while s and rows[s - 1] & pool == pool:
                s -= 1
                pool |= 1 << s
            start.append(s)
        lo = min(start, default=n)
    alive = list(range(len(color_adj)))
    common = [full] * len(alive)
    chosen = []
    # saved (alive, common, next candidate) of each shallower level
    stack = []
    v = 0
    while True:
        depth = len(chosen)
        if depth == k - 1:
            reach = 0
            for cm in common:
                reach |= cm
            free = full & ~reach >> v << v
            if free:
                return tuple(chosen) + ((free & -free).bit_length() - 1,)
        elif v < n - (k - depth - 1) and not (
            v >= lo
            and any(
                start[ci] <= v and cm >> v == full >> v
                for ci, cm in zip(alive, common)
            )
        ):
            new_alive = []
            new_common = []
            for ci, cm in zip(alive, common):
                if cm >> v & 1:
                    new_alive.append(ci)
                    new_common.append(cm & color_adj[ci][v])
            if not new_alive:
                return tuple(chosen) + tuple(range(v, v + k - depth))
            stack.append((alive, common, v + 1))
            chosen.append(v)
            alive, common = new_alive, new_common
            v += 1
            continue
        if not stack:
            return None
        alive, common, v = stack.pop()
        chosen.pop()


def find_induced_c4(n, adj):
    """Lexicographically first 4-subset inducing a 4-cycle, or None.

    Any three vertices of an induced C4 span exactly two edges, so for
    a < b < c the fourth vertex d > c is fixed by one mask:

    - a-b not an edge: c and d are common neighbors of a and b, and
      d is not adjacent to c, so d is in ``ra & rb & ~rc``;
    - a-b an edge and c adjacent to a (path b-a-c): d is in
      ``rb & rc & ~ra``;
    - a-b an edge and c adjacent to b (path a-b-c): d is in
      ``ra & rc & ~rb``.

    Triples are walked in lexicographic order and d is the lowest bit
    above c, so the first hit is the lexicographically first witness.
    """
    for a in range(n - 3):
        ra = adj[a]
        for b in range(a + 1, n - 2):
            rb = adj[b]
            ab = ra >> b & 1
            cands = ((ra ^ rb) if ab else (ra & rb)) >> (b + 1)
            c = b
            while cands:
                step = (cands & -cands).bit_length()
                c += step
                cands >>= step
                rc = adj[c]
                if not ab:
                    fourth = ra & rb & ~rc
                elif ra >> c & 1:
                    fourth = rb & rc & ~ra
                else:
                    fourth = ra & rc & ~rb
                fourth >>= c + 1
                if fourth:
                    return (a, b, c, c + (fourth & -fourth).bit_length())
    return None


def maximal_cliques(n, adj, within=-1):
    """All maximal cliques as bitmasks (pivoted Bron-Kerbosch) of the
    subgraph induced on the mask ``within`` (default: all n vertices).

    Pivot is the vertex of P|X with the most candidates in P, ties to the
    smallest index; candidates are expanded in increasing order, so the
    output order is deterministic.
    """
    p = (1 << n) - 1 & within
    if not p:
        return []
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        best_u = -1
        best_c = -1
        m = pux
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            c = (p & adj[u]).bit_count()
            if c > best_c:
                best_c = c
                best_u = u
        cand = p & ~adj[best_u]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low

    expand(0, p, 0)
    return out
