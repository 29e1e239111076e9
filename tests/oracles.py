"""Brute-force reference implementations used only by the tests.

Everything here is a direct transcription of a definition: enumerate all
subsets, check the property, return the first or best hit.  None of the
package's algorithm modules are imported, so agreement between these
oracles and the library is meaningful evidence.  Sizes are expected to be
tiny (n <= 10 or so).  The reference draws are the random generators'
loops as first written, on the standard ``random`` calls, so they pin the
random stream the generators consume.
"""

import random
from itertools import combinations, product


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


def is_hole(adj, cycle):
    """True if ``cycle`` lists distinct vertices, four or more, each adjacent
    exactly to the ones before and after it (cyclically)."""
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m:
        return False
    return all(
        bool(adj[cycle[i]] >> cycle[j] & 1) == ((j - i) % m in (1, m - 1))
        for i, j in combinations(range(m), 2)
    )


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


def kwise_intersecting_subtrees(fam, k):
    """Intersect the k subtrees' vertex sets track by track, literally."""
    for subset in combinations(range(fam.n), k):
        if not any(
            set.intersection(*(set(fam.members[m][i]) for m in subset))
            for i in range(fam.t)
        ):
            return False
    return True


def edges_rows(doc):
    """Color rows of a well-formed edges document, written edge by edge."""
    rows = [[0] * doc["n"] for _ in range(doc["t"])]
    for u, v, colors in doc["edges"]:
        for c in colors:
            rows[c - 1][u] |= 1 << v
            rows[c - 1][v] |= 1 << u
    return rows


def first_edges_fault(doc):
    """Message of the first fault in an edges document's edge list, or None.

    The per-edge checks in their order: the edge's shape, its ints and
    color list, u < v, the range of u and v, a repeat of an earlier edge,
    then each color in turn.  ``n`` and ``t`` are taken as valid."""
    n, t = doc["n"], doc["t"]
    seen = set()
    for item in doc["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            return "an edge [u, v, colors] must be a list of 3"
        u, v, colors = item
        if type(u) is not int or type(v) is not int or not isinstance(colors, (list, tuple)):
            return f"an edge must be [int, int, list], got {item!r}"
        if not u < v:
            return f"edge ({u},{v}) must satisfy u < v"
        if u < 0 or v >= n:
            return f"bad edge ({u},{v}) for n={n}"
        if (u, v) in seen:
            return f"edge ({u},{v}) listed twice"
        seen.add((u, v))
        for c in colors:
            if type(c) is not int or not 1 <= c <= t:
                return f"color {c!r} out of range 1..{t}"
    return None


def endpoint_witness(missers, points, n, k):
    """The endpoint witness of the seeded draws, read off its definition:
    among the first n picks of one member per track's ``missers``, in
    ``product`` order, one whose set S has at most k members and, on every
    track i, no point that every member of S holds.  ``points[i][v]`` is
    the set of points of member v's object on track i (the integers of its
    interval, or the host vertices of its subtree), walked point by point."""
    picks = list(product(*missers))[:n]
    for pick in picks:
        s = set(pick)
        if len(s) > k:
            continue
        if not any(
            all(p in points[i][v] for v in s)
            for i in range(len(missers))
            for p in points[i][pick[i]]
        ):
            return True
    return False


def residual_multiplicity(col, vertices, k):
    """(False, first edge inside ``vertices`` with under k-1 colors), else
    (True, None)."""
    pairs = combinations(sorted(vertices), 2)
    short = [e for e in pairs if len(col.colors_of(*e)) < k - 1]
    return (False, short[0]) if short else (True, None)


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


def lex_first_max_strong_cover(col):
    """First maximum strong cover met walking the product, color by color,
    of [no clique] + the color's maximal cliques sorted by vertex tuple,
    with no pruning; as a map color -> vertex set of the colors it uses."""
    options = [[()] + maximal_cliques(col.n, adj) for adj in color_adjacency(col)]
    best, best_count = (), -1
    for pick in product(*options):
        count = len(set().union(*pick))
        if count > best_count:
            best, best_count = pick, count
    return {c: frozenset(vs) for c, vs in enumerate(best, 1) if vs}


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


def lex_first_two_clique_cover(col, c1, c2, vertices=None):
    """The first split of the vertex set into a c1-clique and a c2-clique:
    the whole set as one c1-clique, else as one c2-clique, else the first
    maximal c1-clique of the induced graph, by vertex tuple, whose rest is a
    c2-clique.  As a map color -> vertex set of its nonempty parts, or None
    when no split exists."""
    vs = sorted(vertices if vertices is not None else range(col.n))
    if _is_color_clique(col, vs, c1):
        return {c1: frozenset(vs)} if vs else {}
    if _is_color_clique(col, vs, c2):
        return {c2: frozenset(vs)}
    adj = color_adjacency(col)[c1 - 1]
    induced = [
        sum(1 << j for j, w in enumerate(vs) if adj[v] >> w & 1) for v in vs
    ]
    for clique in maximal_cliques(len(vs), induced):
        part = [vs[i] for i in clique]
        rest = [v for v in vs if v not in part]
        if _is_color_clique(col, rest, c2):
            return {c1: frozenset(part), c2: frozenset(rest)}
    return None


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


def right_end_order(members, i):
    """Members stably sorted by the right end of their track-i interval
    (Fulkerson and Gross's PEO of an interval graph)."""
    return sorted(range(len(members)), key=lambda v: members[v][i][1])


def host_distances(host_edges):
    """Distance from host vertex 0 of every vertex it reaches, by BFS."""
    neighbors = {}
    for u, v in host_edges:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    dist = {0: 0}
    queue = [0]
    for u in queue:
        for v in neighbors.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def deepest_top_order(host_edges, members, i):
    """Members by the distance from host vertex 0 of their track-i
    subtree's vertex nearest 0, farthest first, ties by member (Gavril's
    PEO of a subtree intersection graph)."""
    dist = host_distances(host_edges)
    return sorted(range(len(members)), key=lambda v: -min(dist[x] for x in members[v][i]))


def subtree_piercing_points(host_edges, members, assignments):
    """(track, point) for each nonempty assigned color, by track: the point
    is the vertex nearest host vertex 0 of the intersection of the assigned
    members' track subtrees.  None when some intersection is empty."""
    dist = host_distances(host_edges)
    points = []
    for c in sorted(assignments):
        if assignments[c]:
            common = set.intersection(*(set(members[v][c - 1]) for v in assignments[c]))
            if not common:
                return None
            points.append((c, min(common, key=dist.__getitem__)))
    return points


def interval_piercing_points(members, assignments):
    """(track, point) for each nonempty assigned color, by track: the least
    point of the intersection [max left end, min right end] of the assigned
    members' track intervals.  None when some intersection is empty."""
    points = []
    for c in sorted(assignments):
        if assignments[c]:
            ends = [members[v][c - 1] for v in assignments[c]]
            lo, hi = max(a for a, _ in ends), min(b for _, b in ends)
            if lo > hi:
                return None
            points.append((c, lo))
    return points


def grown_maximal_cliques(n, adj):
    """Maximal cliques as increasing vertex tuples, sorted: every clique is
    grown one later vertex at a time, and kept when no vertex is joined to
    all of its members.  Linear in the number of cliques, so usable where
    ``maximal_cliques`` (all 2^n subsets) is not."""
    out = []

    def grow(clique, common):
        if not common:
            out.append(clique)
        for w in range(clique[-1] + 1, n):
            if common >> w & 1:
                grow(clique + (w,), common & adj[w])

    for v in range(n):
        grow((v,), adj[v])
    return sorted(out)


def clique_cutset_by_tree(n, adj):
    """(A, Q, B) of a connected chordal graph split on a clique tree's
    first edge, by building the tree: Kruskal over the pairs of maximal
    cliques (in vertex-tuple order) by falling intersection size, ties by
    pair, then a search from the first edge's first clique over the other
    tree edges.  Q is the two cliques' intersection and A the rest of the
    side searched.  None when the graph has one maximal clique."""
    cliques = [frozenset(c) for c in grown_maximal_cliques(n, adj)]
    k = len(cliques)
    if k <= 1:
        return None
    pairs = sorted(
        combinations(range(k), 2),
        key=lambda p: (-len(cliques[p[0]] & cliques[p[1]]), p),
    )
    component = list(range(k))
    tree = []
    for i, j in pairs:
        if component[i] != component[j]:
            old = component[j]
            component = [component[i] if c == old else c for c in component]
            tree.append((i, j))
    (si, sj), rest = tree[0], tree[1:]
    side = {si}
    stack = [si]
    while stack:
        x = stack.pop()
        for i, j in rest:
            for a, b in ((i, j), (j, i)):
                if a == x and b not in side:
                    side.add(b)
                    stack.append(b)
    q = cliques[si] & cliques[sj]
    a = frozenset().union(*(cliques[x] for x in side)) - q
    return a, q, frozenset(range(n)) - q - a


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


def maximal_blowup(col, seed, red, blue):
    """The classes X_1..X_5 of a blow-up grown from the red/blue double
    5-cycle ``seed``: X_i starts as the i-th seed vertex along the red cycle
    from the smallest one (the lower red neighbor taken first), and a pass
    over the other vertices in increasing order puts each in the first
    class whose members it meets in both colors, the neighboring classes'
    in red only and the far classes' in blue only.  Passes repeat until one
    adds nothing."""

    def joins(u, v):
        cs = col.colors_of(u, v)
        return (red in cs, blue in cs)

    order = [min(seed)]
    while len(order) < 5:
        order.append(next(
            v for v in sorted(seed)
            if v not in order and joins(order[-1], v) == (True, False)
        ))
    classes = [{v} for v in order]
    # the joins a member of class i + d needs from a member of class i
    wanted = [(True, True), (True, False), (False, True), (False, True), (True, False)]
    changed = True
    while changed:
        changed = False
        for w in range(col.n):
            if any(w in c for c in classes):
                continue
            for i in range(5):
                if all(
                    joins(w, u) == wanted[(j - i) % 5]
                    for j in range(5)
                    for u in classes[j]
                ):
                    classes[i].add(w)
                    changed = True
                    break
    return [frozenset(c) for c in classes]


def reference_interval_draw(n, t, seed, anchor, k, accepts):
    """The rejection-sampling loop of ``random_interval_family`` as first
    written, on ``randint`` and ``sample``: (members, ok) of the draw it
    returns.  ``accepts(members)`` is the verdict on one draw; a draw is
    retried up to 40 times when ``k`` is given."""
    high = 3 * n
    max_len = max(2, n)
    rng = random.Random(seed)
    for _ in range(40 if k is not None else 1):
        members = [[(0, 0)] * t for _ in range(n)]
        for i in range(t):
            anchor_pt = rng.randint(0, high)
            n_anchored = round(anchor * n)
            anchored = set(rng.sample(range(n), n_anchored))
            for v in range(n):
                if v in anchored:
                    lo = anchor_pt - rng.randint(0, max_len)
                    hi = anchor_pt + rng.randint(0, max_len)
                else:
                    lo = rng.randint(0, high)
                    hi = lo + rng.randint(0, max_len)
                members[v][i] = (lo, hi)
        if k is None:
            return members, True
        if accepts(members):
            return members, True
    return members, False


def reference_subtree_draw(n, t, seed, host_size, max_size, anchor, k, accepts):
    """The rejection-sampling loop of ``random_subtree_family`` as first
    written, on ``randrange``, ``random``, ``randint`` and ``choice`` over a
    sorted frontier: (host_edges, members, ok) of the draw it returns, with
    ``accepts(host_edges, members)`` the verdict on one draw."""
    if max_size is None:
        max_size = host_size
    rng = random.Random(seed)
    for _ in range(40 if k is not None else 1):
        host_edges = [(rng.randrange(v), v) for v in range(1, host_size)]
        adj = [[] for _ in range(host_size)]
        for u, v in host_edges:
            adj[u].append(v)
            adj[v].append(u)
        members = []
        hubs = [rng.randrange(host_size) for _ in range(t)]
        for _v in range(n):
            tracks = []
            for i in range(t):
                if rng.random() < anchor:
                    root = hubs[i]
                else:
                    root = rng.randrange(host_size)
                size = rng.randint(1, max_size)
                chosen = {root}
                frontier = sorted(set(adj[root]))
                while len(chosen) < size and frontier:
                    chosen.add(rng.choice(frontier))
                    frontier = sorted({u for c in chosen for u in adj[c]} - chosen)
                tracks.append(frozenset(chosen))
            members.append(tracks)
        if k is None:
            return host_edges, members, True
        if accepts(host_edges, members):
            return host_edges, members, True
    return host_edges, members, False
