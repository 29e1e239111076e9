"""Named constructions and seeded random instance generators.

The interval family built by ``construct_onefourth`` shows that no strong
cover can do better than a 3(t-1)/(4t-5) vertex fraction in general: color 1
splits the members into two cliques A and B, and every other color is a
Hamilton path on the complete bipartite pairs [A, B], realized by spacing
intervals two apart along the path.  The remaining constructions exercise
the two-color and few-color edge cases, and the blow-up operators duplicate
vertices while preserving coloring classes and cover sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_subtrees,
    is_kwise_intersecting,
    is_tk_coloring,
)
from .errors import InputError
from .graphs import bits


def hamilton_decomposition_bipartite(m: int) -> list[list[int]]:
    """Partition the edges of K_{m,m} into m/2 Hamilton cycles (m even).

    Vertices are 0..m-1 on one side and m..2m-1 on the other.  The perfect
    matchings M_j = {(a_i, b_{(i+j) mod m})} pair up as M_{2r} u M_{2r+1},
    and each union is a single cycle of length 2m.  Cycles are returned as
    vertex lists without repeating the start.
    """
    if m < 2 or m % 2 != 0:
        raise InputError(f"side size must be even and >= 2, got {m}")
    cycles = []
    for r in range(m // 2):
        j0 = 2 * r
        cyc = []
        a = 0
        for _ in range(m):
            cyc.append(a)
            cyc.append(m + (a + j0) % m)
            a = (a - 1) % m
        cycles.append(cyc)
    return cycles


def hamilton_paths_for_construction(t: int) -> list[list[int]]:
    """t-1 edge-disjoint Hamilton paths of [A, B], |A| = 2t-2, |B| = 2t-3.

    Extends B by one virtual vertex, decomposes K_{2t-2,2t-2} into Hamilton
    cycles, and removes the virtual vertex from each cycle.  Together the
    paths use every A-B pair exactly once.
    """
    if t < 2:
        raise InputError(f"need t >= 2, got {t}")
    m = 2 * t - 2
    virtual = 2 * m - 1
    paths = []
    for cyc in hamilton_decomposition_bipartite(m):
        pos = cyc.index(virtual)
        path = cyc[pos + 1 :] + cyc[:pos]
        paths.append(path)
    return paths


def construct_onefourth(t: int) -> TIntervalFamily:
    """Interval family on 4t-5 members with no strong cover beyond 3(t-1).

    Track 1 gives clique A (members 0..2t-3) the interval [0,1] and clique B
    (members 2t-2..4t-6) the interval [2,3].  Track j >= 2 realizes the
    (j-1)-th Hamilton path of [A, B]: position p along the path becomes the
    interval [2p, 2p+2], so exactly consecutive path members intersect.
    """
    if t < 2:
        raise InputError(f"need t >= 2, got {t}")
    n = 4 * t - 5
    size_a = 2 * t - 2
    members = [[(0, 0)] * t for _ in range(n)]
    for v in range(n):
        members[v][0] = (0, 1) if v < size_a else (2, 3)
    for j, path in enumerate(hamilton_paths_for_construction(t), start=1):
        for p, v in enumerate(path):
            members[v][j] = (2 * p, 2 * p + 2)
    fam = TIntervalFamily(t, members)
    fam.validate()
    return fam


def construct_k5star() -> MultiColoring:
    """Two-coloring of K_5 with both colors a 5-cycle; no strong cover
    reaches all five vertices."""
    col = MultiColoring(5, 2)
    cycle1 = [0, 1, 2, 3, 4]
    cycle2 = [0, 2, 4, 1, 3]
    for i in range(5):
        col.add_colors(cycle1[i], cycle1[(i + 1) % 5], [1])
        col.add_colors(cycle2[i], cycle2[(i + 1) % 5], [2])
    return col


def construct_k4_two_paths() -> MultiColoring:
    """Two-coloring of K_4 with both colors a path on all four vertices."""
    col = MultiColoring(4, 2)
    path1 = [0, 1, 2, 3]
    path2 = [2, 0, 3, 1]
    for i in range(3):
        col.add_colors(path1[i], path1[i + 1], [1])
        col.add_colors(path2[i], path2[i + 1], [2])
    return col


def construct_k8_c4free_3col() -> MultiColoring:
    """Three-coloring of K_8 partitioning the edges into triangle-free,
    induced-C4-free classes (two 7-cycles plus two pendant edges each, and
    an 8-cycle plus two diagonals)."""
    col = MultiColoring(8, 3)

    def add_cycle(vertices_1based: list[int], color: int) -> None:
        k = len(vertices_1based)
        for i in range(k):
            u = vertices_1based[i] - 1
            v = vertices_1based[(i + 1) % k] - 1
            col.add_colors(u, v, [color])

    add_cycle([1, 2, 3, 4, 5, 6, 7], 1)
    col.add_colors(3, 7, [1])  # (4,8)
    col.add_colors(6, 7, [1])  # (7,8)
    add_cycle([1, 8, 3, 5, 7, 4, 6], 2)
    col.add_colors(1, 4, [2])  # (2,5)
    col.add_colors(1, 5, [2])  # (2,6)
    add_cycle([1, 4, 2, 7, 3, 6, 8, 5], 3)
    col.add_colors(0, 2, [3])  # (1,3)
    col.add_colors(1, 7, [3])  # (2,8)
    return col


def construct_partition_coloring(n: int, t: int) -> TIntervalFamily:
    """Partition-based coloring with no monochromatic clique above
    ceil(n/t) + 1.

    The members split evenly into parts S_1..S_t.  On track i every member
    of S_i gets the full window [0, 4n], members of later parts get distinct
    odd points inside it, and members of earlier parts get distinct points
    beyond it.  Color i then joins S_i internally and S_i to every later
    part, nothing else.
    """
    if t < 1 or n < 1:
        raise InputError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    if t > n:
        raise InputError(f"need t <= n, got n={n}, t={t}")
    base = n // t
    extra = n % t
    part_of = []
    for i in range(t):
        part_of.extend([i] * (base + (1 if i < extra else 0)))
    members = []
    for v in range(n):
        tracks = []
        for i in range(t):
            if part_of[v] == i:
                tracks.append((0, 4 * n))
            elif part_of[v] > i:
                tracks.append((2 * v + 1, 2 * v + 1))
            else:
                tracks.append((4 * n + 2 * v + 2, 4 * n + 2 * v + 2))
        members.append(tracks)
    fam = TIntervalFamily(t, members)
    fam.validate()
    return fam


@dataclass
class BlowupSpec:
    """Replacement sizes for every vertex of a base coloring."""

    sizes: list[int]

    def validate(self, n: int) -> None:
        if len(self.sizes) != n:
            raise InputError(
                f"expected {n} sizes, got {len(self.sizes)}"
            )
        if any(s < 1 for s in self.sizes):
            raise InputError("every blow-up size must be at least 1")


def blow_up(col: MultiColoring, spec: BlowupSpec) -> MultiColoring:
    """Replace vertex v by a block of spec.sizes[v] twins.

    Edges inside a block carry every color; edges between blocks copy the
    colors of the original edge.  Equivalent to iterating single-vertex
    clique substitutions.
    """
    col.validate()
    spec.validate(col.n)
    offsets = [0]
    for s in spec.sizes:
        offsets.append(offsets[-1] + s)
    blocks = [(1 << offsets[v + 1]) - (1 << offsets[v]) for v in range(col.n)]
    out = MultiColoring(offsets[-1], col.t)
    for row, new in zip(col.rows, out.rows):
        for v in range(col.n):
            outside = 0
            for u in bits(row[v]):
                outside |= blocks[u]
            inside = outside | blocks[v]
            for a in range(offsets[v], offsets[v + 1]):
                new[a] = inside ^ 1 << a
    return out


def clique_substitute(col: MultiColoring, v: int, size: int) -> MultiColoring:
    """Replace one vertex by a clique of the given size (1 = identity).

    The block takes positions v..v+size-1; all other vertices keep their
    relative order.
    """
    if not (0 <= v < col.n):
        raise InputError(f"vertex {v} out of range for n={col.n}")
    if size < 1:
        raise InputError(f"size must be at least 1, got {size}")
    sizes = [1] * col.n
    sizes[v] = size
    return blow_up(col, BlowupSpec(sizes))


# Draws a rejection-sampling generator makes before it reports failure.
_RETRIES = 40


def random_interval_family(
    n: int,
    t: int,
    seed: int,
    *,
    anchor: float = 0.0,
    k: int | None = None,
) -> tuple[TIntervalFamily, bool]:
    """Seeded random interval family, optionally rejection-sampled.

    Endpoints start in [0, 3n] and intervals are up to max(2, n) long.
    ``anchor`` is the fraction of members per track forced to contain a
    common track anchor point, which raises the chance of k-wise
    intersection.  When ``k`` is given the draw repeats up to ``_RETRIES``
    (40) times until ``is_kwise_intersecting`` holds; the second return value
    reports whether the final family passed (an exhausted budget is
    reported, not raised).
    """
    if n < 1 or t < 1:
        raise InputError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    if not (0.0 <= anchor <= 1.0):
        raise InputError(f"anchor fraction must be in [0,1], got {anchor}")
    high = 3 * n
    max_len = max(2, n)
    rng = random.Random(seed)
    fam = None
    for _ in range(_RETRIES if k is not None else 1):
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
        fam = TIntervalFamily(t, members)
        if k is None or is_kwise_intersecting(fam, k):
            return fam, True
    return fam, False


def _random_tree(rng: random.Random, h: int) -> list[tuple[int, int]]:
    """Uniform-attachment tree on h vertices."""
    return [(rng.randrange(v), v) for v in range(1, h)]


def _random_subtree(
    rng: random.Random, adj: list[list[int]], root: int, size: int
) -> frozenset[int]:
    """Connected vertex set grown from the root by random frontier picks."""
    chosen = {root}
    frontier = sorted(set(adj[root]))
    while len(chosen) < size and frontier:
        v = rng.choice(frontier)
        chosen.add(v)
        frontier = sorted(
            {u for c in chosen for u in adj[c]} - chosen
        )
    return frozenset(chosen)


def random_subtree_family(
    n: int,
    t: int,
    seed: int,
    *,
    host_size: int = 8,
    max_size: int | None = None,
    anchor: float = 0.0,
    k: int | None = None,
) -> tuple[TSubtreeFamily, bool]:
    """Seeded random subtree family over a uniform-attachment host tree.

    Each member grows one random connected subtree per track from a random
    root; anchored members start at the track's hub vertex instead, forcing
    a shared vertex.  Rejection sampling against the induced coloring as in
    ``random_interval_family``.
    """
    if n < 1 or t < 1 or host_size < 1:
        raise InputError(
            f"need n, t, host_size >= 1, got n={n}, t={t}, host={host_size}"
        )
    if max_size is None:
        max_size = host_size
    if not (1 <= max_size <= host_size):
        raise InputError(
            f"need 1 <= max_size <= host_size, got {max_size} of {host_size}"
        )
    rng = random.Random(seed)
    fam = None
    for _ in range(_RETRIES if k is not None else 1):
        host_edges = _random_tree(rng, host_size)
        adj: list[list[int]] = [[] for _ in range(host_size)]
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
                tracks.append(_random_subtree(rng, adj, root, size))
            members.append(tracks)
        fam = TSubtreeFamily(host_edges, t, members)
        if k is None:
            return fam, True
        ok, _ = is_tk_coloring(coloring_from_subtrees(fam), k)
        if ok:
            return fam, True
    return fam, False
