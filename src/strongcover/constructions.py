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
from itertools import combinations, islice, product
from math import ceil, log
from typing import NamedTuple

from .core import (
    MAX_VERTICES,
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    _instance,
    _interval_coloring,
    _list,
    _right_end_order,
    _require_ints,
    _subtree_coloring,
    check_size,
    family_peos,
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
    _require_ints(m=m)
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
    _require_ints(t=t)
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
    _require_ints(t=t)
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
    return TIntervalFamily(t, members)


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
    _require_ints(n=n, t=t)
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
    return TIntervalFamily(t, members)


class BlowupSpec(NamedTuple):
    """Replacement sizes for every vertex of a base coloring."""

    sizes: list[int]

    def validate(self, n: int) -> None:
        if len(_list(self.sizes, "blow-up sizes")) != n:
            raise InputError(
                f"expected {n} sizes, got {len(self.sizes)}"
            )
        for s in self.sizes:
            _require_ints(size=s)
        if any(s < 1 for s in self.sizes):
            raise InputError("every blow-up size must be at least 1")


def blow_up(col: MultiColoring, spec: BlowupSpec) -> MultiColoring:
    """Replace vertex v by a block of spec.sizes[v] twins.

    Edges inside a block carry every color; edges between blocks copy the
    colors of the original edge.  Equivalent to iterating single-vertex
    clique substitutions.
    """
    _instance(col, MultiColoring, "a coloring")
    if not isinstance(spec, BlowupSpec):
        raise InputError(f"spec must be a BlowupSpec, got {spec!r}")
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
    _instance(col, MultiColoring, "a coloring")
    _require_ints(v=v, size=size)
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
    The hot picks write this loop in place, which saves its call: the
    anchored sample, span and reach picks of ``_draw_intervals``' tracks
    and members, and the root, size and frontier picks of
    ``_draw_subtrees``.
    """
    width = m.bit_length()
    r = getrandbits(width)
    while r >= m:
        r = getrandbits(width)
    return r


def _endpoint_witness(
    missers: list[list[int]], apart: Callable[[int, int], int], n: int, k: int
) -> bool:
    """True when some S of one member per track's ``missers`` (the first n
    in ``product`` order) has at most k members and shares no point on any
    track.  By Helly, S shares no point on a track exactly when two of its
    members are disjoint there, so S is tested by ORing over its pairs
    ``apart(u, v)``, the mask of the tracks on which u and v are disjoint,
    each pair's mask computed once per call.  S then spans a clique in no
    color, nor do any k of the n >= k members holding it: no
    (t,k)-coloring.
    """
    t = len(missers)
    full = (1 << t) - 1
    small = k < t  # else |S| <= t <= k
    known = {}  # u * n + v, u < v: apart(u, v)
    for pick in islice(product(*missers), n):
        if small and len(set(pick)) > k:
            continue
        tracks = 0
        for u, v in combinations(pick, 2):
            key = u * n + v if u < v else v * n + u
            m = known.get(key)
            if m is None:
                m = known[key] = apart(u, v)
            tracks |= m
        if tracks == full:
            return True
    return False


def _check_anchor(anchor: float) -> None:
    """InputError unless ``anchor`` is an int or float (not a bool) in
    [0, 1]."""
    if not isinstance(anchor, (int, float)) or isinstance(anchor, bool):
        raise InputError(f"anchor fraction must be a number, got {anchor!r}")
    if not (0.0 <= anchor <= 1.0):
        raise InputError(f"anchor fraction must be in [0,1], got {anchor}")


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
    return _draw_intervals(n, t, seed, anchor, k)[:2]


def _draw_intervals(
    n: int, t: int, seed: int, anchor: float, k: int | None
) -> tuple[TIntervalFamily, bool, MultiColoring | None]:
    """``random_interval_family`` plus its last draw's coloring, which keeps
    ``family_peos`` of the family as ``coloring_from_intervals`` does (None
    when ``k`` is None and no draw was tested), so an accepted family is
    built once.

    Every draw makes the random calls ``random_interval_family`` has always
    made, in the same order: per track ``randint(0, 3n)`` for the anchor
    point, ``sample(range(n), round(anchor * n))`` for the anchored members,
    then two ``randint`` per member; the ``randint`` calls draw as
    ``_below`` (the member picks written in place, their widths fixed per
    draw) and the ``sample`` call written in place as CPython's
    ``Random.sample`` on a range, with its pool test, pool and widths
    fixed per call.  A draw is held as endpoint arrays.  When
    2 <= k <= n, a draw is refused with no coloring built on an
    ``_endpoint_witness``: members missing their track's anchor point
    whose intervals share no point on any track, two intervals being
    disjoint when one's left end is above the other's right end.  Only a
    draw with no witness is swept, and only its (t,k) verdict accepts.
    The returned draw's coloring is built once (after the loop if a witness
    refused it), and a ``TIntervalFamily`` only for that draw, from its
    arrays and right-end orders, with no check run again.
    """
    _require_ints(n=n, t=t, seed=seed)
    if k is not None:
        _require_ints(k=k)
    if n < 1 or t < 1:
        raise InputError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    _check_anchor(anchor)
    check_size(n, t)
    span = 3 * n + 1  # endpoints start in [0, 3n]
    reach = max(2, n) + 1  # lengths in [0, max(2, n)]
    span_w = span.bit_length()
    reach_w = reach.bit_length()
    n_w = n.bit_length()
    n_anchored = round(anchor * n)
    setsize = 21  # Random.sample: a pool of the n while n <= setsize, else a set
    if n_anchored > 5:
        setsize += 4 ** ceil(log(n_anchored * 3, 4))  # table size for big sets
    pooled = n <= setsize
    everyone = list(range(n))
    lefts = [(left, left.bit_length()) for left in range(n, n - n_anchored, -1)]
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    col = None
    ok = True

    def apart(u: int, v: int) -> int:  # tracks of the current draw
        tracks = 0
        bit = 1
        for track_los, track_his in zip(los, his):
            if track_los[u] > track_his[v] or track_los[v] > track_his[u]:
                tracks |= bit
            bit <<= 1
        return tracks

    for _ in range(_RETRIES if k is not None else 1):
        los = []
        his = []
        missers = []
        for _i in range(t):
            anchor_pt = _below(getrandbits, span)
            anchored = set()  # sample(range(n), n_anchored)
            if pooled:
                pool = everyone.copy()
                for left, width in lefts:
                    j = getrandbits(width)
                    while j >= left:
                        j = getrandbits(width)
                    anchored.add(pool[j])
                    pool[j] = pool[left - 1]
            else:
                for _j in range(n_anchored):
                    j = n  # redrawn until below n and not yet picked
                    while j >= n or j in anchored:
                        j = getrandbits(n_w)
                    anchored.add(j)
            track_los = [anchor_pt] * n
            track_his = [anchor_pt] * n
            track_missers = []
            for v in range(n):  # picks as _below's, written in place
                if v in anchored:
                    r = getrandbits(reach_w)
                    while r >= reach:
                        r = getrandbits(reach_w)
                    track_los[v] -= r
                    r = getrandbits(reach_w)
                    while r >= reach:
                        r = getrandbits(reach_w)
                    track_his[v] += r
                else:
                    lo = getrandbits(span_w)
                    while lo >= span:
                        lo = getrandbits(span_w)
                    r = getrandbits(reach_w)
                    while r >= reach:
                        r = getrandbits(reach_w)
                    track_los[v] = lo
                    track_his[v] = hi = lo + r
                    if not lo <= anchor_pt <= hi:
                        track_missers.append(v)
            los.append(track_los)
            his.append(track_his)
            missers.append(track_missers)
        if k is None:
            break
        if 2 <= k <= n and _endpoint_witness(missers, apart, n, k):
            col, ok = None, False
            continue
        by_his = list(map(_right_end_order, his))
        col = _interval_coloring(los, his, by_his)
        ok = is_tk_coloring(col, k)[0]
        if ok:
            break
    if col is None:  # no draw was tested, or the last was refused on a witness
        by_his = list(map(_right_end_order, his))
        if k is not None:
            col = _interval_coloring(los, his, by_his)
    members = tuple(zip(*map(zip, los, his)))
    fam = TIntervalFamily._of(t=t, members=members, _by_hi=tuple(by_his))
    return fam, ok, None if col is None else col._keep_peos(by_his)


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
    return _draw_subtrees(n, t, seed, host_size, max_size, anchor, k)[:2]


def _draw_subtrees(
    n: int,
    t: int,
    seed: int,
    host_size: int,
    max_size: int | None,
    anchor: float,
    k: int | None,
) -> tuple[TSubtreeFamily, bool, MultiColoring | None]:
    """``random_subtree_family`` plus its last draw's coloring with the
    family's PEOs, as ``_draw_intervals``, whose
    draws are refused on an ``_endpoint_witness`` in the same way: members
    missing their track's hub whose subtrees share no host vertex on any
    track, two subtrees being disjoint when their vertex masks share no bit.

    Every draw makes the random calls ``random_subtree_family`` has always
    made, in the same order: ``randrange(v)`` for the parent of each host
    vertex v >= 1, ``randrange(host_size)`` for each track's hub, then per
    member and track ``random()`` against ``anchor``, ``randrange`` for an
    unanchored root, ``randint(1, max_size)`` for the size and one
    ``choice`` from the sorted frontier per grown vertex; all but
    ``random()`` draw as ``_below`` (the member picks written in place).
    The host is held as adjacency masks and a growing subtree's frontier
    as a mask, so the j-th element of the sorted frontier is its j-th
    lowest set bit.  A ``TSubtreeFamily`` is built only for the draw that
    is returned, from its parents and subtrees, with no check run again.
    """
    if max_size is None:
        max_size = host_size
    _require_ints(n=n, t=t, seed=seed, host_size=host_size, max_size=max_size)
    if k is not None:
        _require_ints(k=k)
    if n < 1 or t < 1 or host_size < 1:
        raise InputError(
            f"need n, t, host_size >= 1, got n={n}, t={t}, host={host_size}"
        )
    _check_anchor(anchor)
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
    h_w = h.bit_length()
    size_w = max_size.bit_length()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    col = None
    ok = True

    def apart(u: int, v: int) -> int:  # tracks of the current draw
        tracks = 0
        bit = 1
        for track in masks:
            if not track[u] & track[v]:
                tracks |= bit
            bit <<= 1
        return tracks

    for _ in range(_RETRIES if k is not None else 1):
        # uniform attachment: vertex v hangs below a vertex p < v
        parents = [_below(getrandbits, v) for v in range(1, h)]
        adj = [0] * h
        for v, p in enumerate(parents, start=1):
            adj[p] |= 1 << v
            adj[v] |= 1 << p
        hubs = [_below(getrandbits, h) for _ in range(t)]
        subtrees = [[[]] * n for _ in range(t)]
        masks = [[0] * n for _ in range(t)]
        missers = [[] for _ in range(t)]
        for v in range(n):
            for i in range(t):  # picks as _below's, written in place
                if rand() < anchor:
                    root = hubs[i]
                else:
                    root = getrandbits(h_w)
                    while root >= h:
                        root = getrandbits(h_w)
                extra = getrandbits(size_w)  # the size, less the root
                while extra >= max_size:
                    extra = getrandbits(size_w)
                grown = [root]
                chosen = 1 << root
                frontier = adj[root]
                while extra and frontier:
                    c = frontier.bit_count()
                    width = c.bit_length()
                    j = getrandbits(width)
                    while j >= c:
                        j = getrandbits(width)
                    pick = frontier
                    for _j in range(j):
                        pick &= pick - 1
                    x = (pick & -pick).bit_length() - 1
                    grown.append(x)
                    chosen |= 1 << x
                    frontier = (frontier | adj[x]) & ~chosen
                    extra -= 1
                subtrees[i][v] = grown
                masks[i][v] = chosen
                if not chosen >> hubs[i] & 1:
                    missers[i].append(v)
        if k is None:
            break
        if 2 <= k <= n and _endpoint_witness(missers, apart, n, k):
            col, ok = None, False
            continue
        col = _subtree_coloring(h, subtrees)
        ok = is_tk_coloring(col, k)[0]
        if ok:
            break
    if k is not None and col is None:  # the last draw was refused on a witness
        col = _subtree_coloring(h, subtrees)
    host = tuple((p, v) for v, p in enumerate(parents, start=1))
    depth = [0]  # in the host rooted at 0, one below the parent
    for p in parents:
        depth.append(depth[p] + 1)
    members = tuple(zip(*(map(frozenset, track) for track in subtrees)))
    # a subtree's top is its one least deep vertex
    tops = [[min(s, key=depth.__getitem__) for s in tracks] for tracks in members]
    fam = TSubtreeFamily._of(
        host_edges=host, t=t, members=members, _depth=depth, _tops=tops
    )
    return fam, ok, None if col is None else col._keep_peos(family_peos(fam))
