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
from collections.abc import Callable
from dataclasses import dataclass

from .core import (
    MAX_VERTICES,
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    _interval_rows,
    _subtree_rows,
    check_size,
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
    check_size(n, t)
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
    check_size(n, t)
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


def _below(getrandbits: Callable[[int], int], m: int) -> int:
    """A uniform draw from range(m), m >= 1, off ``getrandbits = rng.getrandbits``.

    It makes the same ``getrandbits`` calls as CPython's
    ``Random._randbelow_with_getrandbits``, through which ``randrange(m)``,
    ``randint(a, a + m - 1)`` (``a + _below(...)``) and ``choice(seq)``
    (``seq[_below(..., len(seq))]``) draw, so a generator written with it
    consumes the same stream, without their argument checks and frames.
    """
    width = m.bit_length()
    r = getrandbits(width)
    while r >= m:
        r = getrandbits(width)
    return r


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
    (40) times until the derived coloring is a (t,k)-coloring, which by
    the Helly property of intervals means the family is k-wise
    intersecting; the second return value reports whether the final family
    passed (an exhausted budget is reported, not raised).
    """
    fam, ok, _col, _peos = _draw_intervals(n, t, seed, anchor, k)
    return fam, ok


def _interval_coloring(
    los: list[list[int]], his: list[list[int]]
) -> tuple[MultiColoring, list[list[int]]]:
    """The coloring of one drawn interval family, given per track as
    left-end and right-end arrays, and one PEO per color (the members by
    right end)."""
    col = MultiColoring(len(los[0]), len(los))
    peos = []
    for i, (track_los, track_his) in enumerate(zip(los, his)):
        col.rows[i], by_hi = _interval_rows(track_los, track_his)
        peos.append(by_hi)
    return col, peos


def _draw_intervals(
    n: int, t: int, seed: int, anchor: float, k: int | None
) -> tuple[TIntervalFamily, bool, MultiColoring | None, list[list[int]] | None]:
    """``random_interval_family`` plus the coloring its last draw was
    tested on and that coloring's PEOs (both None when ``k`` is None and
    no draw was tested), so an accepted family is built once.

    Every draw makes the random calls ``random_interval_family`` has always
    made, in the same order: per track ``randint(0, 3n)`` for the anchor
    point, ``sample(range(n), round(anchor * n))`` for the anchored members,
    then two ``randint`` per member; the ``randint`` calls go through
    ``_below``.  A draw is held as endpoint arrays, which the sweep and the
    (t,k) verdict read; a ``TIntervalFamily`` is built only for the draw
    that is returned.
    """
    if n < 1 or t < 1:
        raise InputError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    if not (0.0 <= anchor <= 1.0):
        raise InputError(f"anchor fraction must be in [0,1], got {anchor}")
    check_size(n, t)
    span = 3 * n + 1  # endpoints start in [0, 3n]
    reach = max(2, n) + 1  # lengths in [0, max(2, n)]
    n_anchored = round(anchor * n)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    col = peos = None
    ok = True
    for _ in range(_RETRIES if k is not None else 1):
        los = []
        his = []
        for _i in range(t):
            anchor_pt = _below(getrandbits, span)
            anchored = set(rng.sample(range(n), n_anchored))
            track_los = []
            track_his = []
            for v in range(n):
                if v in anchored:
                    track_los.append(anchor_pt - _below(getrandbits, reach))
                    track_his.append(anchor_pt + _below(getrandbits, reach))
                else:
                    lo = _below(getrandbits, span)
                    track_los.append(lo)
                    track_his.append(lo + _below(getrandbits, reach))
            los.append(track_los)
            his.append(track_his)
        if k is None:
            break
        col, peos = _interval_coloring(los, his)
        ok = is_tk_coloring(col, k)[0]
        if ok:
            break
    tracks = [list(zip(lo, hi)) for lo, hi in zip(los, his)]
    fam = TIntervalFamily(t, [list(ivs) for ivs in zip(*tracks)])
    return fam, ok, col, peos


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
    fam, ok, _col, _peos = _draw_subtrees(
        n, t, seed, host_size, max_size, anchor, k
    )
    return fam, ok


def _subtree_coloring(h: int, subtrees: list[list[list[int]]]) -> MultiColoring:
    """The coloring of one drawn subtree family, given per track as one
    host-vertex list per member."""
    col = MultiColoring(len(subtrees[0]), len(subtrees))
    for i, track in enumerate(subtrees):
        col.rows[i] = _subtree_rows(h, track)
    return col


def _draw_subtrees(
    n: int,
    t: int,
    seed: int,
    host_size: int,
    max_size: int | None,
    anchor: float,
    k: int | None,
) -> tuple[TSubtreeFamily, bool, MultiColoring | None, list[list[int]] | None]:
    """``random_subtree_family`` plus the coloring its last draw was tested
    on and that coloring's PEOs, as ``_draw_intervals``.

    Every draw makes the random calls ``random_subtree_family`` has always
    made, in the same order: ``randrange(v)`` for the parent of each host
    vertex v >= 1, ``randrange(host_size)`` for each track's hub, then per
    member and track ``random()`` against ``anchor``, ``randrange`` for an
    unanchored root, ``randint(1, max_size)`` for the size and one
    ``choice`` from the sorted frontier per grown vertex; all but
    ``random()`` go through ``_below``.  The host is held as adjacency
    masks and a growing subtree's frontier as a mask, so the j-th element
    of the sorted frontier is its j-th lowest set bit.  A ``TSubtreeFamily``
    is built only for the draw that is returned.
    """
    if n < 1 or t < 1 or host_size < 1:
        raise InputError(
            f"need n, t, host_size >= 1, got n={n}, t={t}, host={host_size}"
        )
    if not (0.0 <= anchor <= 1.0):
        raise InputError(f"anchor fraction must be in [0,1], got {anchor}")
    if max_size is None:
        max_size = host_size
    if not (1 <= max_size <= host_size):
        raise InputError(
            f"need 1 <= max_size <= host_size, got {max_size} of {host_size}"
        )
    check_size(n, t)
    if host_size > MAX_VERTICES:
        raise InputError(
            f"host_size={host_size} exceeds the limit of {MAX_VERTICES} vertices"
        )
    h = host_size
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    col = None
    ok = True
    for _ in range(_RETRIES if k is not None else 1):
        # uniform attachment: vertex v hangs below a vertex p < v
        parents = [_below(getrandbits, v) for v in range(1, h)]
        adj = [0] * h
        for v, p in enumerate(parents, start=1):
            adj[p] |= 1 << v
            adj[v] |= 1 << p
        hubs = [_below(getrandbits, h) for _ in range(t)]
        subtrees = [[[]] * n for _ in range(t)]
        for v in range(n):
            for i in range(t):
                if rand() < anchor:
                    root = hubs[i]
                else:
                    root = _below(getrandbits, h)
                size = 1 + _below(getrandbits, max_size)
                grown = [root]
                chosen = 1 << root
                frontier = adj[root]
                while size > 1 and frontier:
                    pick = frontier
                    for _j in range(_below(getrandbits, pick.bit_count())):
                        pick &= pick - 1
                    x = (pick & -pick).bit_length() - 1
                    grown.append(x)
                    chosen |= 1 << x
                    frontier = (frontier | adj[x]) & ~chosen
                    size -= 1
                subtrees[i][v] = grown
        if k is None:
            break
        col = _subtree_coloring(h, subtrees)
        ok = is_tk_coloring(col, k)[0]
        if ok:
            break
    fam = TSubtreeFamily(
        [(p, v) for v, p in enumerate(parents, start=1)],
        t,
        [[frozenset(track[v]) for track in subtrees] for v in range(n)],
    )
    return fam, ok, col, None if col is None else _subtree_peos(parents, subtrees)


def _subtree_peos(
    parents: list[int], subtrees: list[list[list[int]]]
) -> list[list[int]]:
    """``family_peos`` of a drawn subtree family: every host edge joins a
    vertex v to a parent p < v, so the top of a subtree (its vertex nearest
    the root 0) is its least vertex, and a vertex lies one deeper than its
    parent."""
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    return [
        sorted(range(len(track)), key=[-depth[min(s)] for s in track].__getitem__)
        for track in subtrees
    ]
