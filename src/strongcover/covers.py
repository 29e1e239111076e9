"""Strong covers: greedy with guaranteed fraction, exact oracles, and the
special-case algorithms for (3,3), (t,t) and induced-C4-free (2,2) colorings.

A strong cover picks at most one clique per color, all colors distinct, and
counts the vertices in the union.  For chordal (t,k)-colorings the greedy
sweep below covers at least (k-1)/(k+1) of the vertices regardless of the
color order; the counting identities behind that bound are exposed as exact
integer checks on the greedy trace.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import _kernels as kernels
from .chordal import (
    ChordalCertificate,
    _clique_cutset,
    _max_clique_within,
    induced_c4_free,
    is_chordal,
)
from .core import (
    MultiColoring,
    StrongCover,
    _collection,
    _instance,
    _require_ints,
    count_layers,
    is_tk_coloring,
    verify_cover,
)
from .errors import GuaranteeError, InputError, PreconditionError, SizeLimitError
from .graphs import Graph, bits, lex_key, mask_of


class GreedyStep(NamedTuple):
    color: int
    clique: frozenset[int]
    remaining: int  # vertices left after this step


class GreedyTrace(NamedTuple):
    steps: list[GreedyStep]
    uncovered: frozenset[int]

    def covered(self) -> int:
        return sum(len(s.clique) for s in self.steps)


def color_certificates(
    col: MultiColoring,
) -> Iterator[tuple[Graph, ChordalCertificate]]:
    """Each color graph with its chordality certificate, in color order 1..t.

    A coloring built from a family with its rows unchanged since brings its
    own PEOs, taken as they are; other colorings are searched by
    ``is_chordal``, and the hole of a color that is not chordal is built
    only if a caller reads it.  A caller holding orders of its own checks
    them with the PEO-taking utilities of ``chordal``.
    """
    orders = col._peos()
    for i in range(1, col.t + 1):
        g = col.color_graph(i)
        yield g, is_chordal(g) if orders is None else ChordalCertificate(orders[i - 1])


def _chordal_certificates(col: MultiColoring) -> list[tuple[Graph, list[int]]]:
    """Each color graph with one PEO, in color order 1..t.

    Raises PreconditionError with the hole of the first non-chordal color.
    """
    out = []
    for i, (g, cert) in enumerate(color_certificates(col), start=1):
        if not cert.is_chordal:
            raise PreconditionError(
                f"color {i} graph is not chordal", witness=(i, cert.hole)
            )
        out.append((g, cert.peo))
    return out


def induced_c4s(
    colors: Iterable[tuple[Graph, ChordalCertificate]],
) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """Each color of ``color_certificates`` with the lexicographically first
    induced 4-cycle of its graph, or None.  A chordal color has no induced
    4-cycle, so only the others are scanned, and no hole is read."""
    for i, (g, cert) in enumerate(colors, start=1):
        yield i, None if cert.is_chordal else induced_c4_free(g)[1]


def greedy_strong_cover(
    col: MultiColoring, order: tuple[int, ...] | None = None
) -> tuple[StrongCover, GreedyTrace]:
    """Sweep the colors in the given order, each time removing a maximum
    clique of that color's graph restricted to the still-uncovered vertices.

    Every color graph must be chordal.  On a (t,k)-coloring the total
    covered is at least (k-1) n / (k+1) whatever the order.  Each color's
    PEO, from ``color_certificates`` (the coloring's own, else a search),
    is the chordality certificate and is reused by every step; the cover
    does not depend on which PEO a color has.
    """
    _instance(col, MultiColoring, "a coloring")
    t = col.t
    if order is None:
        order = tuple(range(1, t + 1))
    kinds = set(map(type, _collection(order, "order")))
    if kinds != {int} or sorted(order) != list(range(1, t + 1)):
        raise InputError(f"order {order} is not a permutation of 1..{t}")
    certs = _chordal_certificates(col)

    remaining = (1 << col.n) - 1
    steps: list[GreedyStep] = []
    assignments: dict[int, frozenset[int]] = {}
    for color in order:
        if not remaining:
            break
        g, peo = certs[color - 1]
        w = _max_clique_within(g.adj, peo, remaining)
        remaining &= ~w
        clique = frozenset(bits(w))
        assignments[color] = clique
        steps.append(
            GreedyStep(color=color, clique=clique, remaining=remaining.bit_count())
        )
    trace = GreedyTrace(steps=steps, uncovered=frozenset(bits(remaining)))
    return StrongCover(assignments), trace


def multiplicity_sum(col: MultiColoring, vertices: frozenset[int]) -> int:
    """Sum of per-edge color counts over edges inside the vertex set."""
    s = col.vertex_mask(vertices)
    ends = sum((row[v] & s).bit_count() for row in col.rows for v in bits(s))
    return ends // 2


class ChainCheck(NamedTuple):
    """Exact integer counting bounds evaluated on one greedy trace.

    With T the uncovered set and M the multiplicity sum over edges inside T:
    (k-1) |T| (|T|-1) / 2  <=  M  <=  covered * (|T|-1).
    Both sides are vacuous when T is empty.
    """

    t_size: int
    covered: int
    m: int
    lower: int
    upper: int
    ok: bool


def counting_chain_check(
    col: MultiColoring, trace: GreedyTrace, k: int
) -> ChainCheck:
    _instance(col, MultiColoring, "a coloring")
    _instance(trace, GreedyTrace, "a greedy trace")
    _require_ints(k=k)
    t_size = len(trace.uncovered)
    covered = trace.covered()
    m = multiplicity_sum(col, trace.uncovered)
    lower = (k - 1) * t_size * (t_size - 1) // 2
    upper = covered * (t_size - 1)
    ok = t_size == 0 or (lower <= m <= upper)
    return ChainCheck(
        t_size=t_size, covered=covered, m=m, lower=lower, upper=upper, ok=ok
    )


Lifts = tuple[list[int], list[tuple[int, int, int]], dict[int, int]]


def _quotient_cliques(adj: Sequence[int], within: int = -1) -> Lifts:
    """The maximal cliques of the graph induced on ``within`` (all vertices
    by default), as lifts of the cliques of its twin quotient.

    The kernel runs on the least vertex of each twin class of the induced
    graph: equal closed neighborhoods (true twins, a clique) or equal open
    ones (false twins, an independent set); no vertex has both kinds.  A
    maximal clique holds a true class whole or not at all and one member of
    a false class or none, so it is exactly one lift of a quotient clique.
    Returns the lifts of the quotient cliques meeting at most two false
    classes, sorted by vertex tuple; the others as ``_walk`` takes them; and
    the bit of each false-class member mapped to its class.
    """
    within &= (1 << len(adj)) - 1
    closed: dict[int, int] = {}
    opened: dict[int, int] = {}
    for v in bits(within):
        nb = adj[v] & within
        closed[nb | 1 << v] = closed.get(nb | 1 << v, 0) | 1 << v
        opened[nb] = opened.get(nb, 0) | 1 << v
    reps = within
    joins: dict[int, int] = {}  # least member -> the rest of its true class
    picks: dict[int, int] = {}  # least member -> its false class
    for classes, lifts in ((closed, joins), (opened, picks)):
        for cls in classes.values():
            if rest := cls & cls - 1:
                reps ^= rest
                lifts[cls ^ rest] = cls if lifts is picks else rest
    class_of = {1 << v: c for c in picks.values() for v in bits(c)}
    plain, walked = kernels.maximal_cliques(len(adj), adj, reps), []
    if joins:
        plain = [q | sum(r for low, r in joins.items() if q & low) for q in plain]
    if picks:
        quotient, plain = plain, []
        for q in quotient:
            met = [cls for low, cls in picks.items() if q & low]
            lift = (q & ~sum(met), sum(met), len(met))
            if len(met) > 2:  # else at most n^2/4 lifts, listed here
                walked.append(lift)
            else:
                plain += _walk(*lift, class_of) if met else (q,)
    plain.sort(key=lex_key)
    return plain, walked, class_of


def _walk(
    base: int, free: int, left: int, class_of: dict[int, int],
    fresh: int = 0, floor: int = 0, best: Sequence[int] = (-1,),
) -> Iterator[int]:
    """The lifts of a quotient clique, ``base`` and one vertex of each of the
    ``left`` false classes making up ``free``, in vertex-tuple order: each
    free vertex in turn is taken, then left out, so where two lifts first
    differ the one taking the vertex comes first (the other takes a later
    one).  A partial lift is skipped when its lifts cannot hold more than
    ``best[0] - floor`` vertices of ``fresh``; ``best`` is read live.  They
    add at most one per class left with a fresh free member, and each
    partial lift carries the count of those classes."""
    live, rest = left, free & fresh
    if rest != free:  # a class may have no fresh free member
        live = 0
        while rest:
            rest &= ~class_of[rest & -rest]
            live += 1
    stack = [(base, free, live)]
    while stack:
        acc, free, live = stack.pop()
        if (acc & fresh).bit_count() + live < best[0] - floor + 1:
            continue
        if not free:
            yield acc
            continue
        low = free & -free
        cls = class_of[low]
        if rest := free & cls ^ low:  # a later member of low's class is free
            # low's class stays live unless low was its last fresh free member
            stack.append((acc, free ^ low, live - (low & fresh and not rest & fresh)))
        stack.append((acc | low, free & ~cls, live - (free & cls & fresh != 0)))


def _lifts(
    lifts: Lifts, fresh: int = 0, floor: int = 0, best: Sequence[int] = (-1,)
) -> Iterator[int]:
    """The lifts of ``_quotient_cliques`` in vertex-tuple order, each walk
    pruned by the bounds as ``_walk`` says."""
    plain, walked, class_of = lifts
    walks = [_walk(*q, class_of, fresh, floor, best) for q in walked]
    return heapq.merge(plain, *walks, key=lex_key)


def _maximal_cliques(adj: Sequence[int], within: int = -1) -> list[int]:
    """Maximal clique masks of the graph induced on ``within`` (all vertices
    by default) in vertex-tuple order, lifted by ``_quotient_cliques``."""
    return list(_lifts(_quotient_cliques(adj, within)))


SearchSpace = tuple[list[Lifts], list[int]]

# Most colors the exhaustive searches take: each recurses once per color,
# and this stays well under Python's default recursion limit of 1000.
MAX_SEARCH_COLORS = 512


def _search_space(col: MultiColoring, max_n: int) -> SearchSpace:
    """Per-color quotient cliques (``_quotient_cliques``) for the exhaustive
    searches, and ``suffix_best[i]``, the sum of the largest clique sizes of
    the colors after the first i: a bound on what those colors can still
    cover.  Colors with equal rows share one entry, made once."""
    _require_ints(max_n=max_n)
    if col.n > max_n:
        raise SizeLimitError(
            f"n={col.n} exceeds the exhaustive search bound {max_n}"
        )
    if col.t > MAX_SEARCH_COLORS:
        raise SizeLimitError(
            f"t={col.t} exceeds the exhaustive search bound {MAX_SEARCH_COLORS}"
        )
    keys = [tuple(row) for row in col.rows]
    shared = {key: _quotient_cliques(key) for key in dict.fromkeys(keys)}
    per_color = [shared[key] for key in keys]
    suffix_best = [0] * (col.t + 1)
    for i in range(col.t - 1, -1, -1):
        plain, walked, _ = per_color[i]
        sizes = [b.bit_count() + k for b, _, k in walked]  # each walk's largest
        sizes += map(int.bit_count, plain)
        suffix_best[i] = suffix_best[i + 1] + max(sizes, default=0)
    return per_color, suffix_best


def exact_max_strong_cover(
    col: MultiColoring, max_n: int = 40
) -> StrongCover:
    """Exhaustive maximum-coverage strong cover.

    Searches the product of per-color choices (a maximal clique or nothing)
    depth first in lexicographic order with an upper-bound prune, so the
    returned cover is the lexicographically least among maximum ones.
    """
    _instance(col, MultiColoring, "a coloring")
    return _max_cover(col.n, _search_space(col, max_n))


def theta(col: MultiColoring, max_n: int = 40) -> int | None:
    """Minimum number of cliques in a strong cover of all vertices.

    Returns None when no strong cover covers every vertex.  Exhaustive over
    per-color maximal cliques, asking for k = 0, 1, ... whether k cliques
    cover; a branch stops once the k largest cliques of the colors left
    cannot cover what is left.
    """
    _instance(col, MultiColoring, "a coloring")
    return _min_cover_size(col.n, _search_space(col, max_n))


def exact_cover_and_theta(
    col: MultiColoring, max_n: int = 40
) -> tuple[StrongCover, int | None]:
    """``exact_max_strong_cover`` and ``theta`` from one search space: the
    quotient cliques of each distinct color graph are enumerated once, for
    every color with that graph and for both searches, which lift them."""
    _instance(col, MultiColoring, "a coloring")
    space = _search_space(col, max_n)
    return _max_cover(col.n, space), _min_cover_size(col.n, space)


def _max_cover(n: int, space: SearchSpace) -> StrongCover:
    """The search of ``exact_max_strong_cover`` on n vertices.  A node's
    reach is capped at n, so a full cover ends the search.  A color with
    cliques to walk walks them at each node, skipping the lifts that would
    return on entry."""
    cliques, suffix_best = space
    per_color = [[] if walked else [0] + plain for plain, walked, _ in cliques]
    t = len(per_color)
    best_count = -1
    best = [best_count]  # read live by the walks
    best_choice: list[int] = []
    choice: list[int] = [0] * t

    def descend(idx: int, covered: int) -> None:
        nonlocal best_count, best_choice
        cnt = covered.bit_count()
        reach = min(n, cnt + suffix_best[idx])
        if reach <= best_count:
            return
        if idx == t:
            if cnt > best_count:
                best_count = best[0] = cnt
                best_choice = list(choice)
            return
        for m in per_color[idx] or itertools.chain(
            (0,), _lifts(cliques[idx], ~covered, cnt + suffix_best[idx + 1], best)
        ):
            choice[idx] = m
            descend(idx + 1, covered | m)
            if reach <= best_count:
                break  # the entry prune: no later choice beats the best
        choice[idx] = 0

    descend(0, 0)
    assignments = {
        i + 1: frozenset(bits(m)) for i, m in enumerate(best_choice) if m
    }
    return StrongCover(assignments)


def _min_cover_size(n: int, space: SearchSpace) -> int | None:
    """The search of ``theta`` on n vertices: whether k cliques can cover,
    for k = 0, 1, ..., t in turn.  ``most[i][j]``, the sum of the j largest
    clique sizes of the colors from the i-th on, is the most that j of
    their cliques can cover, so a node that may take k more cliques returns
    on entry when ``most[idx][k]`` is less than what is left.  A color
    takes only the cliques with enough uncovered vertices that the later
    colors, taking one clique fewer, can cover the rest; its lifts are
    walked as in ``_max_cover``, pruned to those."""
    cliques, suffix_best = space
    t = len(cliques)
    per_color = [[] if walked else plain for plain, walked, _ in cliques]
    sizes = [a - b for a, b in zip(suffix_best, suffix_best[1:])]
    most = [
        list(itertools.accumulate(sorted(sizes[i:], reverse=True), initial=0))
        for i in range(t + 1)
    ]

    def fits(idx: int, covered: int, k: int) -> bool:
        """Whether at most k cliques of the colors from the idx-th on, one
        color each, cover what ``covered`` leaves; k <= t - idx."""
        left = n - covered.bit_count()
        if most[idx][k] < left:
            return False
        if not left:
            return True
        fresh = ~covered
        floor = max(1, left - most[idx + 1][k - 1])
        for m in per_color[idx] or _lifts(cliques[idx], fresh, 0, (floor - 1,)):
            if (m & fresh).bit_count() >= floor and fits(idx + 1, covered | m, k - 1):
                return True
        return fits(idx + 1, covered, min(k, t - idx - 1))

    return next((k for k in range(t + 1) if fits(0, 0, k)), None)


def _check_pair(col: MultiColoring, pair: object) -> tuple[int, int]:
    """``pair`` unpacked if it is two distinct int colors of ``col``, else
    InputError (also when it is not a pair at all, such as a bare int);
    InputError too when ``col`` is not a coloring."""
    _instance(col, MultiColoring, "a coloring")
    try:
        ci, cj = pair
    except (TypeError, ValueError):
        raise InputError(f"bad color pair {pair}") from None
    if ci == cj or not all(type(c) is int and 1 <= c <= col.t for c in (ci, cj)):
        raise InputError(f"bad color pair {pair}")
    return ci, cj


def two_clique_cover_exact(
    col: MultiColoring,
    colors: tuple[int, int] = (1, 2),
    vertices: frozenset[int] | None = None,
) -> StrongCover | None:
    """Cover a vertex set W with at most two cliques of the two given colors.

    Returns the first cover in deterministic order: W as one clique of the
    first color, else of the second, else the first maximal clique of the
    first color, by vertex tuple, whose leftover is a clique of the second;
    None when there is none.  A cover is a model of a 2-SAT formula, x_v
    putting v in the first clique: a non-edge uv of the first color gives
    (not x_u or not x_v), one of the second (x_u or x_v).  Each vertex in
    increasing order becomes a one if unit propagation allows, else a zero.
    A propagation with no conflict leaves only clauses on free variables,
    so no choice is undone; a conflict both ways means no model.  The ones
    are maximal (a vertex joined to all was free to be a one at its turn).
    """
    ci, cj = _check_pair(col, colors)
    within = (1 << col.n) - 1 if vertices is None else col.vertex_mask(vertices)
    if col.is_clique_mask(within, cj) and not col.is_clique_mask(within, ci):
        return StrongCover({cj: frozenset(bits(within))})
    ri, rj = col.rows[ci - 1], col.rows[cj - 1]

    def settle(may1: int, may0: int, ones: int, zeros: int):
        # a new one bars its ci non-neighbors from being ones, a new zero
        # its cj non-neighbors from being zeros; the barred go the other way
        may1, may0 = may1 & ~zeros, may0 & ~ones
        while ones | zeros:
            left1, left0 = may1, may0
            for u in bits(ones):
                may1 &= ri[u] | 1 << u
            for u in bits(zeros):
                may0 &= rj[u] | 1 << u
            if within & ~(may1 | may0):
                return None  # a vertex may be neither
            ones, zeros = left0 & ~may0, left1 & ~may1
        return may1, may0

    may1 = may0 = within  # the vertices that may still be ones / zeros
    for v in bits(within):
        bit = 1 << v
        if may1 & may0 & bit:  # not forced by an earlier choice
            settled = settle(may1, may0, bit, 0) or settle(may1, may0, 0, bit)
            if settled is None:
                return None
            may1, may0 = settled
    parts = ((ci, may1), (cj, may0))  # every vertex is now one or zero, not both
    return StrongCover({c: frozenset(bits(m)) for c, m in parts if m})


def _require_tk(col: MultiColoring, k: int, kind: str) -> None:
    """PreconditionError with the witness unless ``col`` is a (t,k)-coloring."""
    ok, witness = is_tk_coloring(col, k)
    if not ok:
        raise PreconditionError(
            f"not a {kind}-coloring; witness {witness}", witness=witness
        )


def _two_cliques(
    col: MultiColoring, colors: tuple[int, int], failure: str,
    vertices: frozenset[int] | None = None,
) -> StrongCover:
    """``two_clique_cover_exact`` where a cover is guaranteed; none raises
    GuaranteeError(``failure``)."""
    cover = two_clique_cover_exact(col, colors, vertices)
    if cover is None:
        raise GuaranteeError(failure, instance=col)
    return cover


def _mono_edge_colors(col: MultiColoring) -> set[int]:
    """Colors that appear alone on at least one edge."""
    out = set()
    for v in range(col.n):
        mine = [row[v] for row in col.rows]
        shared = count_layers(mine, 2)[2]
        out.update(c + 1 for c, r in enumerate(mine) if r & ~shared)
    return out


def strong_cover_33(col: MultiColoring) -> StrongCover:
    """Cover all vertices of a chordal (3,3)-coloring with at most 3 cliques.

    Either some color has no edge carrying it alone, in which case the other
    two colors already form a (2,2)-coloring and two cliques suffice, or
    color 1's graph is connected, spans everything and is not complete (an
    edge carries color 2 alone): a clique cutset Q splits the rest into A and
    B with no single-color-1 edge inside either, so A u B is two-clique
    coverable in the other two colors and Q rides along as the third clique.
    The PEOs come from ``color_certificates``, as in the greedy cover.
    """
    _instance(col, MultiColoring, "a coloring")
    if col.t != 3:
        raise PreconditionError(f"need exactly 3 colors, got t={col.t}")
    if col.n < 3:
        raise PreconditionError(f"need n >= 3, got n={col.n}")
    _require_tk(col, 3, "(3,3)")
    return _cover_33(col, _chordal_certificates(col))


def _cover_33(col: MultiColoring, certs: list[tuple[Graph, list[int]]]) -> StrongCover:
    """The cover of ``strong_cover_33`` on a checked chordal (3,3)-coloring,
    given each color graph with its PEO."""
    # a color carrying no edge alone leaves the other two a (2,2)-coloring
    if shared := {1, 2, 3} - _mono_edge_colors(col):
        pair = tuple(c for c in (1, 2, 3) if c != min(shared))
        return _two_cliques(col, pair, "two-clique cover of a (2,2)-coloring failed")

    # a color-1-only edge xy makes every triangle xyz color 1, so color 1
    # is connected and has a clique cutset; its PEO is certified already
    dec = _clique_cutset(*certs[0])
    failure = "two-clique cover across the clique cutset failed"
    sub_cover = _two_cliques(col, (2, 3), failure, dec.a | dec.b)
    assignments = dict(sub_cover.assignments)
    assignments[1] = dec.q
    cover = StrongCover(assignments)
    report = verify_cover(col, cover)
    if not report.valid or report.covered != col.n:
        raise GuaranteeError("assembled cover is not valid", instance=col)
    return cover


def strong_cover_tt(col: MultiColoring) -> StrongCover:
    """Cover a chordal (t,t)-coloring with at most 2 (t even) or 3 (t odd)
    cliques.

    Some color pair must cover every edge when t is even; the pair scan
    runs first for odd t too, then a color triple whose restriction is a
    (3,3)-coloring is delegated to the three-color algorithm with the
    triple's chordality certificates, which ``color_certificates`` gives
    once up front.
    """
    _instance(col, MultiColoring, "a coloring")
    t = col.t
    if t < 2:
        raise PreconditionError(f"need t >= 2, got t={t}")
    if col.n < t:
        raise PreconditionError(f"need n >= t, got n={col.n}, t={t}")
    _require_tk(col, t, "(t,t)")
    certs = _chordal_certificates(col)

    full = (1 << col.n) - 1
    for pair in itertools.combinations(range(1, t + 1), 2):
        ri, rj = (col.rows[c - 1] for c in pair)
        if all(ri[v] | rj[v] | 1 << v == full for v in range(col.n)):
            return _two_cliques(col, pair, "two-clique cover of a covering pair failed")
    if t % 2 == 0:
        raise GuaranteeError(
            "no color pair covers all edges of an even (t,t)-coloring",
            instance=col,
        )
    for triple in itertools.combinations(range(1, t + 1), 3):
        sub = col.select_colors(triple)
        if not is_tk_coloring(sub, 3)[0]:
            continue
        chosen = _cover_33(sub, [certs[c - 1] for c in triple]).assignments
        return StrongCover({triple[c - 1]: s for c, s in chosen.items()})
    raise GuaranteeError("no color triple restricts to a (3,3)-coloring", instance=col)


def _later(mask: int, v: int) -> int:
    """Bits of ``mask`` above position v."""
    return mask >> v + 1 << v + 1


def find_k5star(
    col: MultiColoring, red: int, blue: int
) -> tuple[int, ...] | None:
    """First 5-subset whose induced edges split into a red 5-cycle and a
    blue 5-cycle (each edge carrying exactly one of the two colors).

    Walks increasing vertex tuples keeping the mask of later vertices
    joined to every chosen one by exactly one of the two colors, so the
    first tuple found is the lexicographically first.  The fifth vertex is
    one mask formula: it must be red-joined to the two chosen vertices of
    red degree one and blue-joined to the two of red degree two.
    """
    _check_pair(col, (red, blue))
    reds = col.rows[red - 1]
    one = [r ^ b for r, b in zip(reds, col.rows[blue - 1])]
    for a in range(col.n):
        ca = _later(one[a], a)
        for b in bits(ca):
            cb = ca & _later(one[b], b)
            for c in bits(cb):
                cc = cb & _later(one[c], c)
                for d in bits(cc):
                    last = cc & _later(one[d], d)
                    if last:
                        last = _fifth_vertices(reds, (a, b, c, d), last)
                    if last:
                        return (a, b, c, d, (last & -last).bit_length() - 1)
    return None


def _fifth_vertices(reds: list[int], quad: tuple[int, ...], cands: int) -> int:
    """Vertices of ``cands`` closing ``quad`` into a red 5-cycle.

    The red cycle through the fifth vertex leaves two chosen vertices of
    red degree one (its red neighbors) and two of red degree two.
    """
    s = 1 << quad[0] | 1 << quad[1] | 1 << quad[2] | 1 << quad[3]
    ends = 0
    for v in quad:
        deg = (reds[v] & s).bit_count()
        if deg == 1:
            cands &= reds[v]
            ends += 1
        elif deg == 2:
            cands &= ~reds[v]
        else:
            return 0
    return cands if ends == 2 else 0


def _is_k5star(col: MultiColoring, subset: tuple[int, ...], red: int, blue: int) -> bool:
    reds, blues = col.rows[red - 1], col.rows[blue - 1]
    s = col.vertex_mask(subset)
    for v in subset:
        r, b = reds[v] & s, blues[v] & s
        if r & b or r | b != s ^ 1 << v or r.bit_count() != 2:
            return False
    return True


def grow_blowup(
    col: MultiColoring,
    seed: tuple[int, ...],
    red: int = 1,
    blue: int = 2,
) -> list[frozenset[int]]:
    """Grow a maximal blow-up of a 5-vertex red/blue double cycle.

    The seed classes follow the red cycle order starting at the smallest
    seed vertex.  A vertex joins class i when its edges into class i carry
    both colors, into the neighboring classes red only, and into the two
    far classes blue only.  The other vertices are tried once each, in
    increasing order: each test asks that classes lie inside the vertex's
    fixed rows, and classes only grow, so a vertex that fits no class at
    its turn fits none later and a second pass would absorb nothing.
    """
    _check_pair(col, (red, blue))
    if len(set(_collection(seed, "seed"))) != 5:
        raise InputError("seed must be five distinct vertices")
    if not _is_k5star(col, tuple(sorted(seed)), red, blue):
        raise InputError("seed does not induce a red/blue double 5-cycle")

    reds, blues = col.rows[red - 1], col.rows[blue - 1]
    both = [r & b for r, b in zip(reds, blues)]
    red_only = [r & ~b for r, b in zip(reds, blues)]
    blue_only = [b & ~r for r, b in zip(reds, blues)]
    seed_mask = col.vertex_mask(seed)
    cycle = [min(seed)]
    absorbed = 1 << cycle[0]
    while len(cycle) < 5:
        nxt = red_only[cycle[-1]] & seed_mask & ~absorbed
        nxt &= -nxt
        cycle.append(nxt.bit_length() - 1)
        absorbed |= nxt
    classes = [1 << v for v in cycle]

    for w in bits((1 << col.n) - 1 & ~absorbed):
        for i in range(5):
            near = classes[(i + 1) % 5] | classes[(i + 4) % 5]
            far = classes[(i + 2) % 5] | classes[(i + 3) % 5]
            if not (
                classes[i] & ~both[w]
                or near & ~red_only[w]
                or far & ~blue_only[w]
            ):
                break
        else:
            continue  # the classes only grow, so w will never fit one
        classes[i] |= 1 << w
    return [frozenset(bits(c)) for c in classes]


def strong_cover_c4free_22(col: MultiColoring) -> StrongCover:
    """Two cliques covering at least ceil(4n/5) vertices of an induced-C4-free
    (2,2)-coloring.

    With no red/blue double 5-cycle present, two cliques cover everything.
    Otherwise the double cycle grows into a maximal blow-up X_1..X_5; each
    outside vertex sees all of it in a common color, splitting the outside
    into a red part R and a blue part B, and dropping the smallest class X_i
    leaves the red clique X_{i+2} u X_{i+3} u R and the blue clique
    X_{i+1} u X_{i+4} u B.  Each color's chordality is decided first, by
    ``color_certificates``; a color with a PEO is chordal, so its
    induced-C4 scan is skipped, and no hole is built for one without.  Each
    color of a double 5-cycle induces a 5-cycle, a hole, so with a chordal
    color there is none and the search for one is skipped.
    """
    _instance(col, MultiColoring, "a coloring")
    if col.t != 2:
        raise PreconditionError(f"need exactly 2 colors, got t={col.t}")
    if col.n >= 2:
        _require_tk(col, 2, "(2,2)")
    certs = list(color_certificates(col))
    for i, witness in induced_c4s(certs):
        if witness is not None:
            raise PreconditionError(
                f"color {i} graph has an induced 4-cycle {witness}",
                witness=(i, witness),
            )

    seed = None if any(c.is_chordal for _, c in certs) else find_k5star(col, 1, 2)
    if seed is None:
        failure = "two-clique cover failed without a double 5-cycle"
        return _two_cliques(col, (1, 2), failure)

    reds, blues = col.rows
    full = (1 << col.n) - 1
    classes = grow_blowup(col, seed, red=1, blue=2)
    inside = mask_of(frozenset().union(*classes))
    part_r = part_b = 0
    for w in bits(full & ~inside):
        if not inside & ~reds[w]:
            part_r |= 1 << w
        elif not inside & ~blues[w]:
            part_b |= 1 << w
        else:
            raise GuaranteeError(
                "outside vertex shares no color with the blow-up", instance=col
            )
    for part, c in ((part_r, 1), (part_b, 2)):
        if not col.is_clique_mask(part, c):
            raise GuaranteeError(
                "outside part is not a clique in its color", instance=col
            )
    sizes = [len(c) for c in classes]
    i = sizes.index(min(sizes))
    red_set = classes[(i + 2) % 5] | classes[(i + 3) % 5] | frozenset(bits(part_r))
    blue_set = classes[(i + 1) % 5] | classes[(i + 4) % 5] | frozenset(bits(part_b))
    cover = StrongCover({1: red_set, 2: blue_set})
    report = verify_cover(col, cover)
    if not report.valid:
        raise GuaranteeError("assembled cover is not valid", instance=col)
    return cover
