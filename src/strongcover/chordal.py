"""Chordal graph machinery: recognition with certificates, cliques, cutsets.

A graph is chordal when it has no induced cycle of length four or more,
equivalently when it admits a perfect elimination ordering (PEO): an order
in which every vertex's later neighbors form a clique.  Maximum cardinality
search produces such an ordering (reversed) exactly on chordal graphs, which
gives a linear-ish recognition with a PEO as positive certificate and a hole
as negative certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as kernels
from .errors import InputError
from .graphs import Graph, bits, mask_of


@dataclass
class ChordalCertificate:
    """Either a perfect elimination ordering or a hole (induced cycle >= 4)."""

    peo: list[int] | None = None
    hole: list[int] | None = None

    @property
    def is_chordal(self) -> bool:
        return self.peo is not None


@dataclass
class CliqueCutsetDecomposition:
    """Partition (A, Q, B): Q a clique whose removal disconnects A from B."""

    a: frozenset[int]
    q: frozenset[int]
    b: frozenset[int]


def mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order.

    Repeatedly visits the unvisited vertex with the most visited neighbors,
    ties broken by smallest index.  Unvisited vertices sit in one bitmask
    bucket per weight (Tarjan and Yannakakis 1984), so the next vertex is
    the lowest bit of the highest nonempty bucket.  A visit moves its
    unvisited neighbors up one bucket with one mask operation per bucket
    at or below its own weight; the weights of visited vertices sum to m,
    so a search costs O(n + m) mask operations.  For a chordal graph the
    reverse of this order is a perfect elimination ordering.
    """
    n = g.n
    buckets = [(1 << n) - 1] + [0] * n
    top = 0
    visited = 0
    order = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        bucket = buckets[top]
        low = bucket & -bucket
        buckets[top] = bucket ^ low
        order.append(low.bit_length() - 1)
        visited |= low
        nbrs = g.adj[order[-1]] & ~visited
        if nbrs:
            for w in range(top, -1, -1):
                moving = buckets[w] & nbrs
                if moving:
                    buckets[w] ^= moving
                    buckets[w + 1] |= moving
            if buckets[top + 1]:
                top += 1
    return order


def _check_peo(g: Graph, peo: list[int]) -> tuple[int, int, int] | None:
    """None if peo is a perfect elimination ordering, else a violating triple.

    The triple (v, a, b) has a, b later neighbors of v with no edge a-b;
    (a, b) is the lexicographically least such pair for the first bad v.
    """
    n = g.n
    if sorted(peo) != list(range(n)):
        raise InputError("ordering is not a permutation of the vertices")
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << peo[i])
    if _is_peo(g.adj, peo, suffix):
        return None
    for i, v in enumerate(peo):
        ln = g.adj[v] & suffix[i + 1]
        for a in bits(ln):
            missing = ln & ~g.adj[a] & ~(1 << a)
            if missing:
                b = min(x for x in bits(missing))
                a2, b2 = min(a, b), max(a, b)
                return (v, a2, b2)
    return None


def _is_peo(adj: list[int], peo: list[int], suffix: list[int]) -> bool:
    """Zero fill-in test (Tarjan and Yannakakis 1984) in O(n) mask steps.

    The order is perfect iff every vertex's later neighbors, its parent
    (earliest later neighbor) aside, are neighbors of the parent.  A forward
    sweep keeps the earlier vertices still waiting for a parent; the ones
    adjacent to the current vertex u have u as parent.
    """
    waiting = 0
    for j, u in enumerate(peo):
        children = waiting & adj[u]
        if children:
            waiting ^= children
            allowed = adj[u] | 1 << u
            for v in bits(children):
                if adj[v] & suffix[j] & ~allowed:
                    return False
        waiting |= 1 << u
    return True


def _hole_from_triple(g: Graph, v: int, a: int, b: int) -> list[int] | None:
    """Close a hole through v from a nonadjacent neighbor pair (a, b).

    Searches a shortest a-b path avoiding N[v] \\ {a, b}; shortest paths are
    induced, and no interior vertex touches v, so v plus the path is a
    chordless cycle of length at least four.
    """
    allowed = (~(g.adj[v] | (1 << v)) & g.full_mask()) | (1 << a) | (1 << b)
    prev = {a: -1}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in frontier:
            for y in bits(g.adj[x] & allowed):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    path = []
    cur = b
    while cur != -1:
        path.append(cur)
        cur = prev[cur]
    path.reverse()  # a ... b
    return [v] + path


def _verify_hole(g: Graph, hole: list[int]) -> bool:
    m = len(hole)
    if m < 4 or len(set(hole)) != m:
        return False
    for i in range(m):
        for j in range(i + 1, m):
            adjacent = g.has_edge(hole[i], hole[j])
            consecutive = j - i == 1 or (i == 0 and j == m - 1)
            if adjacent != consecutive:
                return False
    return True


def is_chordal(g: Graph) -> ChordalCertificate:
    """Recognize chordality; returns a PEO or a hole as certificate."""
    order = mcs_order(g)
    peo = order[::-1]
    triple = _check_peo(g, peo)
    if triple is None:
        return ChordalCertificate(peo=peo)
    hole = _hole_from_triple(g, *triple)
    if hole is None or not _verify_hole(g, hole):
        raise AssertionError("ordering check failed but no hole found")
    return ChordalCertificate(hole=hole)


def _require_peo(g: Graph, peo: list[int]) -> None:
    triple = _check_peo(g, peo)
    if triple is not None:
        raise InputError(
            f"ordering is not a perfect elimination ordering: triple {triple}"
        )


def _max_clique_within(adj: list[int], peo: list[int], alive: int) -> int:
    """Lexicographically least maximum clique of the subgraph induced on
    ``alive``, given a PEO of the whole chordal graph.

    The PEO restricted to ``alive`` is a PEO of the induced subgraph, and
    each of its maximal cliques is {v} | later alive neighbors of v for its
    first vertex v, so the largest such candidates are exactly the maximum
    cliques.  Among equal sizes the lexicographically smaller vertex set is
    the one holding the lowest bit where the two differ.
    """
    best = 0
    best_size = 0
    later = 0
    for v in reversed(peo):
        bit = 1 << v
        if not alive & bit:
            continue
        cand = adj[v] & later | bit
        later |= bit
        size = cand.bit_count()
        if size < best_size:
            continue
        if size == best_size:
            diff = cand ^ best
            if not diff & -diff & cand:
                continue
        best, best_size = cand, size
    return best


def max_clique_chordal(g: Graph, peo: list[int]) -> frozenset[int]:
    """Maximum clique of a chordal graph from a PEO.

    Among maximum cliques returns the lexicographically least vertex set.
    """
    _require_peo(g, peo)
    return frozenset(bits(_max_clique_within(g.adj, peo, g.full_mask())))


def maximal_cliques_chordal(g: Graph, peo: list[int]) -> list[frozenset[int]]:
    """All maximal cliques of a chordal graph, sorted by vertex tuple.

    Every maximal clique of a chordal graph is {v} | later-neighbors(v) for
    the earliest of its vertices, so filtering these n candidates suffices.
    """
    _require_peo(g, peo)
    cands = set()
    later = 0
    for v in reversed(peo):
        cands.add(g.adj[v] & later | 1 << v)
        later |= 1 << v
    maximal = [c for c in cands if not any(c != o and c & o == c for o in cands)]
    maximal.sort(key=lambda c: tuple(bits(c)))
    return [frozenset(bits(c)) for c in maximal]


def greedy_color_chordal(g: Graph, peo: list[int]) -> list[frozenset[int]]:
    """Proper vertex coloring with exactly clique-number many classes.

    Colors vertices along the reverse PEO with the smallest free color;
    previously colored neighbors of each vertex form a clique, so the count
    never exceeds the clique number.
    """
    _require_peo(g, peo)
    color = [-1] * g.n
    classes: list[set[int]] = []
    for v in reversed(peo):
        used = {color[u] for u in bits(g.adj[v]) if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        if c == len(classes):
            classes.append(set())
        classes[c].add(v)
    return [frozenset(cl) for cl in classes]


def clique_cutset(
    g: Graph, peo: list[int]
) -> CliqueCutsetDecomposition | None:
    """Clique cutset decomposition of a connected chordal graph.

    Builds a clique tree (maximum-weight spanning tree of the clique
    intersection graph) and splits on its heaviest edge: Q is the
    intersection of the two joined cliques, A the rest of one side, B the
    rest of the other.  Returns None when the graph is complete.
    """
    if not g.is_connected():
        raise InputError("graph is disconnected")
    cliques = maximal_cliques_chordal(g, peo)
    if len(cliques) <= 1:
        return None
    k = len(cliques)
    masks = [mask_of(c) for c in cliques]
    pairs = sorted(
        ((i, j) for i in range(k) for j in range(i + 1, k)),
        key=lambda ij: (-(masks[ij[0]] & masks[ij[1]]).bit_count(), ij),
    )
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[tuple[int, int]] = []
    split_edge: tuple[int, int] | None = None
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
            if split_edge is None:
                split_edge = (i, j)
            if len(tree) == k - 1:
                break
    si, sj = split_edge
    q_mask = masks[si] & masks[sj]
    # cliques reachable from si in the tree without crossing the split edge
    adj_t: list[list[int]] = [[] for _ in range(k)]
    for i, j in tree:
        if (i, j) != split_edge:
            adj_t[i].append(j)
            adj_t[j].append(i)
    side = {si}
    stack = [si]
    while stack:
        x = stack.pop()
        for y in adj_t[x]:
            if y not in side:
                side.add(y)
                stack.append(y)
    a_mask = 0
    for idx in side:
        a_mask |= masks[idx]
    a_mask &= ~q_mask
    b_mask = g.full_mask() & ~q_mask & ~a_mask
    if not a_mask or not b_mask or not g.is_clique(q_mask):
        raise InputError("clique tree split failed; input not chordal?")
    for v in bits(a_mask):
        if g.adj[v] & b_mask:
            raise InputError("clique tree split failed; input not chordal?")
    return CliqueCutsetDecomposition(
        a=frozenset(bits(a_mask)),
        q=frozenset(bits(q_mask)),
        b=frozenset(bits(b_mask)),
    )


def induced_c4_free(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Scan all 4-subsets for an induced 4-cycle.

    Returns (True, None) or (False, witness) with the lexicographically
    first inducing subset.
    """
    witness = kernels.find_induced_c4(g.n, g.adj)
    return (witness is None, witness)


@dataclass
class EdgeBoundReport:
    edges: int
    omega: int
    bound_quadratic: int  # (omega - 1) n - C(omega, 2)
    bound_linear: int  # omega (n - 1)
    ok: bool


def chordal_edge_bound_check(g: Graph) -> EdgeBoundReport:
    """Edge-count bounds for chordal graphs in terms of the clique number.

    A chordal graph on n vertices with clique number w has at most
    (w - 1) n - w(w - 1)/2 edges, and in particular at most w (n - 1).
    """
    cert = is_chordal(g)
    if not cert.is_chordal:
        raise InputError(f"graph is not chordal; hole {cert.hole}")
    omega = _max_clique_within(g.adj, cert.peo, g.full_mask()).bit_count()
    m = g.edge_count()
    b_quad = (omega - 1) * g.n - omega * (omega - 1) // 2
    b_lin = omega * (g.n - 1)
    ok = m <= b_quad and m <= b_lin
    return EdgeBoundReport(
        edges=m, omega=omega, bound_quadratic=b_quad, bound_linear=b_lin, ok=ok
    )
