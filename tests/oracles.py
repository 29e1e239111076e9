"""Brute-force reference implementations used only by the tests.

Everything here is a direct transcription of a definition: enumerate all
subsets, check the property, return the first or best hit.  None of the
package's algorithm modules are imported, so agreement between these
oracles and the library is meaningful evidence.  Sizes are expected to be
tiny (n <= 10 or so).
"""

from itertools import combinations


def edge_set(n, adj):
    return {(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1}


def is_clique(adj, vertices):
    return all(adj[u] >> v & 1 for u, v in combinations(sorted(vertices), 2))


def all_cliques(n, adj):
    """Every clique as an increasing vertex tuple, the empty one included."""
    out = []
    for r in range(n + 1):
        for vs in combinations(range(n), r):
            if is_clique(adj, vs):
                out.append(vs)
    return out


def maximal_cliques(n, adj):
    """Maximal cliques, checked against the definition vertex by vertex."""
    out = []
    for vs in all_cliques(n, adj):
        if not vs:
            continue
        extendable = any(
            w not in vs and all(adj[w] >> v & 1 for v in vs) for w in range(n)
        )
        if not extendable:
            out.append(vs)
    return sorted(out)


def max_clique(n, adj):
    """Lexicographically least clique of maximum size."""
    best = ()
    for vs in all_cliques(n, adj):
        if len(vs) > len(best):
            best = vs
    return best


def first_induced_c4(n, adj):
    """First 4-subset (in lexicographic order) inducing a 4-cycle."""
    for quad in combinations(range(n), 4):
        degrees = {v: 0 for v in quad}
        edges = 0
        for u, v in combinations(quad, 2):
            if adj[u] >> v & 1:
                edges += 1
                degrees[u] += 1
                degrees[v] += 1
        if edges == 4 and all(d == 2 for d in degrees.values()):
            return quad
    return None


def first_hole(n, adj):
    """First vertex subset (by size, then lex) inducing a cycle of length >= 4."""
    for r in range(4, n + 1):
        for vs in combinations(range(n), r):
            inside = {
                v: [u for u in vs if u != v and adj[u] >> v & 1] for v in vs
            }
            if any(len(nb) != 2 for nb in inside.values()):
                continue
            # 2-regular and connected means a single cycle
            seen = {vs[0]}
            frontier = [vs[0]]
            while frontier:
                v = frontier.pop()
                for u in inside[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == r:
                return vs
    return None


def color_adjacency(col):
    """Bitmask rows per color, built straight from the edge dictionary."""
    rows = [[0] * col.n for _ in range(col.t)]
    for (u, v), colors in col.edge_colors.items():
        for c in colors:
            rows[c - 1][u] |= 1 << v
            rows[c - 1][v] |= 1 << u
    return rows


def first_tk_violation(col, k):
    """First k-subset spanning no monochromatic clique, scanning all subsets."""
    rows = color_adjacency(col)
    for vs in combinations(range(col.n), k):
        if not any(is_clique(adj, vs) for adj in rows):
            return vs
    return None


def kwise_intersecting(fam, k):
    """Intersect the k intervals track by track, literally."""
    for subset in combinations(range(fam.n), k):
        if not any(
            max(fam.members[m][i][0] for m in subset)
            <= min(fam.members[m][i][1] for m in subset)
            for i in range(fam.t)
        ):
            return False
    return True


def _maximal_color_clique_masks(col, color):
    rows = color_adjacency(col)
    adj = rows[color - 1]
    masks = []
    for vs in maximal_cliques(col.n, adj):
        m = 0
        for v in vs:
            m |= 1 << v
        masks.append(m)
    return masks


def max_strong_cover_size(col):
    """Most vertices coverable by cliques of pairwise distinct colors.

    Dynamic program over (next color, covered set); restricting each color
    to its maximal cliques loses nothing because enlarging a clique never
    shrinks the union.
    """
    per_color = [_maximal_color_clique_masks(col, c) for c in range(1, col.t + 1)]
    memo = {}

    def best_from(i, mask):
        if i == col.t:
            return bin(mask).count("1")
        key = (i, mask)
        if key not in memo:
            best = best_from(i + 1, mask)
            for cm in per_color[i]:
                best = max(best, best_from(i + 1, mask | cm))
            memo[key] = best
        return memo[key]

    return best_from(0, 0)


def theta(col):
    """Minimum cliques in an all-vertex strong cover, or None if impossible."""
    full = (1 << col.n) - 1
    per_color = [_maximal_color_clique_masks(col, c) for c in range(1, col.t + 1)]
    infinity = col.t + 1
    memo = {}

    def need(i, mask):
        if mask == full:
            return 0
        if i == col.t:
            return infinity
        key = (i, mask)
        if key not in memo:
            best = need(i + 1, mask)
            for cm in per_color[i]:
                best = min(best, 1 + need(i + 1, mask | cm))
            memo[key] = best
        return memo[key]

    result = need(0, 0)
    return None if result >= infinity else result


def _is_color_clique(col, vertices, color):
    return all(
        color in col.colors_of(u, v)
        for u, v in combinations(sorted(vertices), 2)
    )


def two_clique_cover_exists(col, c1, c2, vertices=None):
    """Can the vertex set split into a c1-clique and a c2-clique?"""
    vs = sorted(vertices if vertices is not None else range(col.n))
    for r in range(len(vs) + 1):
        for part in combinations(vs, r):
            rest = [v for v in vs if v not in part]
            if _is_color_clique(col, part, c1) and _is_color_clique(col, rest, c2):
                return True
    return False


def family_color_adjacency(members, t, meet):
    """Bitmask rows per track from a pairwise test ``meet(a, b)`` of each
    pair of members' track objects."""
    n = len(members)
    rows = [[0] * n for _ in range(t)]
    for u, v in combinations(range(n), 2):
        for i in range(t):
            if meet(members[u][i], members[v][i]):
                rows[i][u] |= 1 << v
                rows[i][v] |= 1 << u
    return rows


def lex_least_max_clique_within(adj, vertices):
    """Lexicographically least maximum clique inside a vertex set: scan
    subsets by falling size, each size in lexicographic order."""
    vs = sorted(vertices)
    for r in range(len(vs), 0, -1):
        for sub in combinations(vs, r):
            if is_clique(adj, sub):
                return sub
    return ()


def mcs_order(n, adj):
    """Maximum cardinality search by its definition: next is the unvisited
    vertex with the most visited neighbors, the smallest index on ties."""
    visited = []
    while len(visited) < n:
        rest = [v for v in range(n) if v not in visited]
        weight = {v: sum(adj[v] >> u & 1 for u in visited) for v in rest}
        top = max(weight.values())
        visited.append(min(v for v in rest if weight[v] == top))
    return visited


def is_peo(adj, order):
    """True if every vertex's later neighbors are pairwise adjacent."""
    for i, v in enumerate(order):
        later = [u for u in order[i + 1:] if adj[v] >> u & 1]
        if not is_clique(adj, later):
            return False
    return True


def first_k5star(col, red, blue):
    """First 5-subset whose edges each carry exactly one of red and blue,
    the red ones forming a 5-cycle (so the blue ones do too)."""
    for vs in combinations(range(col.n), 5):
        degree = dict.fromkeys(vs, 0)
        ok = True
        for u, v in combinations(vs, 2):
            cs = col.colors_of(u, v)
            if (red in cs) == (blue in cs):
                ok = False
                break
            if red in cs:
                degree[u] += 1
                degree[v] += 1
        if ok and all(d == 2 for d in degree.values()):
            return vs
    return None
