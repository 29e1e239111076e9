"""Pure-Python scan kernels over bitset adjacency rows.

These are the hot inner loops of the package: exhaustive k-subset scans,
the quartic induced-C4 scan and maximal-clique enumeration.  The compiled
module strongcover._speedups implements the same functions with identical
semantics and identical deterministic output order.
"""

from __future__ import annotations

BACKEND = "pure"


def first_tk_violation(n, k, color_adj):
    """Lexicographically first k-subset that is a clique in no color.

    color_adj is a list (one entry per color) of adjacency bitmask rows.
    Returns the violating subset as an increasing tuple, or None.

    The scan walks increasing k-tuples depth first, keeping for every color
    still alive the bitmask of vertices adjacent (in that color) to all
    chosen vertices.  Once no color is alive every extension violates, so
    the lexicographically first completion can be emitted immediately.  At
    the last level a vertex completes a violation exactly when it lies in
    no alive color's common mask, so the lowest such vertex from ``start``
    on is read off one OR of those masks.
    """
    t = len(color_adj)
    full = (1 << n) - 1
    # stack entry: (next candidate, depth, alive color ids, their common masks)
    init_alive = list(range(t))
    init_common = [full] * t

    def descend(start, chosen, alive, common):
        depth = len(chosen)
        if depth == k - 1:
            reach = 0
            for cm in common:
                reach |= cm
            free = full & ~reach >> start << start
            if free:
                return tuple(chosen) + ((free & -free).bit_length() - 1,)
            return None
        for v in range(start, n - (k - depth - 1)):
            new_alive = []
            new_common = []
            for ci, cm in zip(alive, common):
                if cm >> v & 1:
                    new_alive.append(ci)
                    new_common.append(cm & color_adj[ci][v])
            chosen.append(v)
            if not new_alive:
                tail = range(v + 1, v + 1 + (k - depth - 1))
                found = tuple(chosen) + tuple(tail)
                chosen.pop()
                return found
            if depth + 1 < k:
                found = descend(v + 1, chosen, new_alive, new_common)
                if found is not None:
                    chosen.pop()
                    return found
            chosen.pop()
        return None

    if k > n:
        return None
    return descend(0, [], init_alive, init_common)


def find_induced_c4(n, adj):
    """Lexicographically first 4-subset inducing a 4-cycle, or None.

    Plain quartic scan; triples with edge count != 2 are skipped since any
    three vertices of an induced C4 span exactly two edges.
    """
    for a in range(n - 3):
        ra = adj[a]
        for b in range(a + 1, n - 2):
            eab = ra >> b & 1
            rb = adj[b]
            for c in range(b + 1, n - 1):
                eac = ra >> c & 1
                ebc = rb >> c & 1
                if eab + eac + ebc != 2:
                    continue
                rc = adj[c]
                for d in range(c + 1, n):
                    ead = ra >> d & 1
                    ebd = rb >> d & 1
                    ecd = rc >> d & 1
                    if ead + ebd + ecd != 2:
                        continue
                    # four edges total; a C4 is exactly "all degrees two"
                    if (
                        eab + eac + ead == 2
                        and eab + ebc + ebd == 2
                        and eac + ebc + ecd == 2
                    ):
                        return (a, b, c, d)
    return None


def maximal_cliques(n, adj):
    """All maximal cliques as bitmasks (pivoted Bron-Kerbosch).

    Pivot is the vertex of P|X with the most candidates in P, ties to the
    smallest index; candidates are expanded in increasing order, so the
    output order is deterministic and matches the compiled twin.
    """
    if n == 0:
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

    expand(0, (1 << n) - 1, 0)
    return out
