"""Strong covers: greedy with guaranteed fraction, exact oracles, and the
special-case algorithms for (3,3), (t,t) and induced-C4-free (2,2) colorings.

A strong cover picks at most one clique per color, all colors distinct, and
counts the vertices in the union.  For chordal (t,k)-colorings the greedy
sweep below covers at least (k-1)/(k+1) of the vertices regardless of the
color order; the counting identities behind that bound are exposed as exact
integer checks on the greedy trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _kernels as kernels
from .chordal import _max_clique_within, clique_cutset, induced_c4_free, is_chordal
from .core import (
    MultiColoring,
    StrongCover,
    count_layers,
    is_tk_coloring,
    verify_cover,
)
from .errors import GuaranteeError, InputError, PreconditionError, SizeLimitError
from .graphs import Graph, bits, mask_of


@dataclass
class GreedyStep:
    color: int
    clique: frozenset[int]
    remaining: int  # vertices left after this step


@dataclass
class GreedyTrace:
    steps: list[GreedyStep]
    uncovered: frozenset[int]

    def covered(self) -> int:
        return sum(len(s.clique) for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "steps": [
                {"color": s.color, "clique": sorted(s.clique)} for s in self.steps
            ],
            "uncovered": sorted(self.uncovered),
        }


def _chordal_certificates(col: MultiColoring) -> list[tuple[Graph, list[int]]]:
    """Each color graph with one PEO, in color order 1..t.

    Raises PreconditionError with the hole of the first non-chordal color.
    """
    out = []
    for i in range(1, col.t + 1):
        g = col.color_graph(i)
        cert = is_chordal(g)
        if not cert.is_chordal:
            raise PreconditionError(
                f"color {i} graph is not chordal", witness=(i, cert.hole)
            )
        out.append((g, cert.peo))
    return out


def greedy_strong_cover(
    col: MultiColoring, order: tuple[int, ...] | None = None
) -> tuple[StrongCover, GreedyTrace]:
    """Sweep the colors in the given order, each time removing a maximum
    clique of that color's graph restricted to the still-uncovered vertices.

    Every color graph must be chordal.  On a (t,k)-coloring the total
    covered is at least (k-1) n / (k+1) whatever the order.  Each color's
    PEO is computed once, as its chordality certificate, and reused by
    every step.
    """
    col.validate()
    t = col.t
    if order is None:
        order = tuple(range(1, t + 1))
    if sorted(order) != list(range(1, t + 1)):
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


@dataclass
class ChainCheck:
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
    t_size = len(trace.uncovered)
    covered = trace.covered()
    m = multiplicity_sum(col, trace.uncovered)
    lower = (k - 1) * t_size * (t_size - 1) // 2
    upper = covered * (t_size - 1)
    ok = t_size == 0 or (lower <= m <= upper)
    return ChainCheck(
        t_size=t_size, covered=covered, m=m, lower=lower, upper=upper, ok=ok
    )


def _maximal_cliques(adj: list[int], within: int = -1) -> list[int]:
    """Maximal clique masks of the graph induced on ``within`` (all vertices
    by default), sorted by vertex tuple."""
    masks = kernels.maximal_cliques(len(adj), adj, within)
    masks.sort(key=lambda m: tuple(bits(m)))
    return masks


def _search_space(col: MultiColoring, max_n: int) -> tuple[list[list[int]], list[int]]:
    """Per-color maximal clique masks for the exhaustive searches, and
    ``suffix_best[i]``, the sum of the largest clique sizes of the colors
    after the first i: a bound on what those colors can still cover."""
    col.validate()
    if col.n > max_n:
        raise SizeLimitError(
            f"n={col.n} exceeds the exhaustive search bound {max_n}"
        )
    per_color = [_maximal_cliques(row) for row in col.rows]
    suffix_best = [0] * (col.t + 1)
    for i in range(col.t - 1, -1, -1):
        biggest = max((m.bit_count() for m in per_color[i]), default=0)
        suffix_best[i] = suffix_best[i + 1] + biggest
    return per_color, suffix_best


def exact_max_strong_cover(
    col: MultiColoring, max_n: int = 40
) -> StrongCover:
    """Exhaustive maximum-coverage strong cover.

    Searches the product of per-color choices (a maximal clique or nothing)
    depth first in lexicographic order with an upper-bound prune, so the
    returned cover is the lexicographically least among maximum ones.
    """
    cliques, suffix_best = _search_space(col, max_n)
    per_color = [[0] + masks for masks in cliques]
    t = col.t
    best_count = -1
    best_choice: list[int] = []
    choice: list[int] = [0] * t

    def descend(idx: int, covered: int) -> None:
        nonlocal best_count, best_choice
        cnt = covered.bit_count()
        if cnt + suffix_best[idx] <= best_count:
            return
        if idx == t:
            if cnt > best_count:
                best_count = cnt
                best_choice = list(choice)
            return
        for m in per_color[idx]:
            choice[idx] = m
            descend(idx + 1, covered | m)
        choice[idx] = 0

    descend(0, 0)
    assignments = {
        i + 1: frozenset(bits(m)) for i, m in enumerate(best_choice) if m
    }
    return StrongCover(assignments)


def theta(col: MultiColoring, max_n: int = 40) -> int | None:
    """Minimum number of cliques in a strong cover of all vertices.

    Returns None when no strong cover covers every vertex.  Exhaustive over
    per-color maximal cliques with memoized pruning; a branch stops once
    the largest clique of every remaining color cannot cover what is left.
    """
    per_color, suffix_best = _search_space(col, max_n)
    n = col.n
    full = (1 << n) - 1
    if full == 0:
        return 0
    best: int | None = None
    seen: dict[tuple[int, int], int] = {}

    def descend(idx: int, covered: int, used: int) -> None:
        nonlocal best
        if best is not None and used >= best:
            return
        if covered == full:
            best = used
            return
        if covered.bit_count() + suffix_best[idx] < n:
            return
        key = (idx, covered)
        prior = seen.get(key)
        if prior is not None and prior <= used:
            return
        seen[key] = used
        for m in per_color[idx]:
            if m & ~covered:
                descend(idx + 1, covered | m, used + 1)
        descend(idx + 1, covered, used)

    descend(0, 0, 0)
    return best


def two_clique_cover_exact(
    col: MultiColoring,
    colors: tuple[int, int] = (1, 2),
    vertices: frozenset[int] | None = None,
) -> StrongCover | None:
    """Cover a vertex set with at most two cliques of the two given colors.

    Scans maximal cliques of the first color on the induced set; the
    leftover must be a clique in the second color.  Returns the first cover
    found in deterministic order (fewest cliques, then lexicographic), or
    None when no such cover exists.  Over 40 vertices raise SizeLimitError.
    """
    col.validate()
    ci, cj = colors
    if ci == cj or not (1 <= ci <= col.t and 1 <= cj <= col.t):
        raise InputError(f"bad color pair {colors}")
    if vertices is None:
        vertices = frozenset(range(col.n))
    if len(vertices) > 40:
        raise SizeLimitError(
            f"{len(vertices)} vertices exceed the exhaustive search bound 40"
        )
    if not vertices:
        return StrongCover({})
    within = col.vertex_mask(vertices)
    if col.is_clique_mask(within, ci):
        return StrongCover({ci: frozenset(vertices)})
    if col.is_clique_mask(within, cj):
        return StrongCover({cj: frozenset(vertices)})
    for m in _maximal_cliques(col.rows[ci - 1], within):
        rest = within & ~m
        if col.is_clique_mask(rest, cj):
            return StrongCover({ci: frozenset(bits(m)), cj: frozenset(bits(rest))})
    return None


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
    color 1's graph is connected and spans everything: if it is complete one
    clique does it, otherwise a clique cutset Q splits the rest into A and B
    with no single-color-1 edge inside either, so A u B is two-clique
    coverable in the other two colors and Q rides along as the third clique.
    """
    col.validate()
    if col.t != 3:
        raise PreconditionError(f"need exactly 3 colors, got t={col.t}")
    if col.n < 3:
        raise PreconditionError(f"need n >= 3, got n={col.n}")
    ok, witness = is_tk_coloring(col, 3)
    if not ok:
        raise PreconditionError(
            f"not a (3,3)-coloring; witness {witness}", witness=witness
        )
    return _cover_33(col, _chordal_certificates(col))


def _cover_33(
    col: MultiColoring, certs: list[tuple[Graph, list[int]]]
) -> StrongCover:
    """The cover of ``strong_cover_33`` on a checked chordal (3,3)-coloring,
    given each color graph with its PEO."""
    mono = _mono_edge_colors(col)
    for j in (1, 2, 3):
        if j not in mono:
            others = tuple(c for c in (1, 2, 3) if c != j)
            cover = two_clique_cover_exact(col, others)
            if cover is None:
                raise GuaranteeError(
                    "two-clique cover of a (2,2)-coloring failed", instance=col
                )
            return cover

    all_vertices = frozenset(range(col.n))
    if col.is_clique_mask((1 << col.n) - 1, 1):
        return StrongCover({1: all_vertices})
    # a color-1-only edge xy makes every triangle xyz color 1, so color 1
    # is connected and has a clique cutset
    dec = clique_cutset(*certs[0])
    rest = dec.a | dec.b
    sub_cover = two_clique_cover_exact(col, (2, 3), vertices=rest)
    if sub_cover is None:
        raise GuaranteeError(
            "two-clique cover across the clique cutset failed", instance=col
        )
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
    triple's chordality certificates, which are computed once up front.
    """
    col.validate()
    t = col.t
    if t < 2:
        raise PreconditionError(f"need t >= 2, got t={t}")
    if col.n < t:
        raise PreconditionError(f"need n >= t, got n={col.n}, t={t}")
    ok, witness = is_tk_coloring(col, t)
    if not ok:
        raise PreconditionError(
            f"not a (t,t)-coloring; witness {witness}", witness=witness
        )
    certs = _chordal_certificates(col)

    full = (1 << col.n) - 1
    for i, j in itertools.combinations(range(1, t + 1), 2):
        ri, rj = col.rows[i - 1], col.rows[j - 1]
        if all(ri[v] | rj[v] | 1 << v == full for v in range(col.n)):
            cover = two_clique_cover_exact(col, (i, j))
            if cover is None:
                raise GuaranteeError(
                    "two-clique cover of a covering pair failed", instance=col
                )
            return cover
    if t % 2 == 0:
        raise GuaranteeError(
            "no color pair covers all edges of an even (t,t)-coloring",
            instance=col,
        )
    for triple in itertools.combinations(range(1, t + 1), 3):
        sub = col.select_colors(triple)
        ok, _ = is_tk_coloring(sub, 3)
        if not ok:
            continue
        sub_cover = _cover_33(sub, [certs[c - 1] for c in triple])
        assignments = {
            triple[c - 1]: s for c, s in sub_cover.assignments.items()
        }
        return StrongCover(assignments)
    raise GuaranteeError(
        "no color triple restricts to a (3,3)-coloring", instance=col
    )


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
    col.validate()
    if red == blue or not (1 <= red <= col.t and 1 <= blue <= col.t):
        raise InputError(f"bad color pair ({red}, {blue})")
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
    far classes blue only.  Vertices are absorbed in increasing order until
    a full pass absorbs nothing.
    """
    col.validate()
    if len(set(seed)) != 5:
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

    def replica_class(w: int) -> int | None:
        for i in range(5):
            near = classes[(i + 1) % 5] | classes[(i + 4) % 5]
            far = classes[(i + 2) % 5] | classes[(i + 3) % 5]
            if not (
                classes[i] & ~both[w]
                or near & ~red_only[w]
                or far & ~blue_only[w]
            ):
                return i
        return None

    changed = True
    while changed:
        changed = False
        for w in range(col.n):
            if absorbed >> w & 1:
                continue
            i = replica_class(w)
            if i is not None:
                classes[i] |= 1 << w
                absorbed |= 1 << w
                changed = True
    return [frozenset(bits(c)) for c in classes]


def strong_cover_c4free_22(col: MultiColoring) -> StrongCover:
    """Two cliques covering at least ceil(4n/5) vertices of an induced-C4-free
    (2,2)-coloring.

    With no red/blue double 5-cycle present, two cliques cover everything.
    Otherwise the double cycle grows into a maximal blow-up X_1..X_5; each
    outside vertex sees all of it in a common color, splitting the outside
    into a red part R and a blue part B, and dropping the smallest class X_i
    leaves the red clique X_{i+2} u X_{i+3} u R and the blue clique
    X_{i+1} u X_{i+4} u B.
    """
    col.validate()
    if col.t != 2:
        raise PreconditionError(f"need exactly 2 colors, got t={col.t}")
    if col.n >= 2:
        ok, witness = is_tk_coloring(col, 2)
        if not ok:
            raise PreconditionError(
                f"not a (2,2)-coloring; witness {witness}", witness=witness
            )
    for i in (1, 2):
        ok, witness = induced_c4_free(col.color_graph(i))
        if not ok:
            raise PreconditionError(
                f"color {i} graph has an induced 4-cycle {witness}",
                witness=(i, witness),
            )

    seed = find_k5star(col, 1, 2)
    if seed is None:
        cover = two_clique_cover_exact(col, (1, 2))
        if cover is None:
            raise GuaranteeError(
                "two-clique cover failed without a double 5-cycle", instance=col
            )
        return cover

    reds, blues = col.rows
    full = (1 << col.n) - 1
    classes = grow_blowup(col, seed, red=1, blue=2)
    inside = 0
    for cl in classes:
        inside |= mask_of(cl)
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
