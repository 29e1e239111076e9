"""Cover algorithms against the brute-force oracles and their stated bounds."""

import collections
import itertools
import random
import time
import tracemalloc

import pytest

import oracles
from corpora import (
    c4free_22_corpus,
    chordal_33_corpus,
    chordal_tk_corpus,
    chordal_tt_corpus,
    complete_coloring,
)
from test_kernels import complete_adj, random_adj, relabeled, substituted
from strongcover._kernels import maximal_cliques
from strongcover.constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
    construct_k4_two_paths,
    construct_k5star,
    construct_onefourth,
    random_interval_family,
)
from strongcover.chordal import is_chordal
from strongcover.core import (
    MultiColoring,
    coloring_from_intervals,
    is_tk_coloring,
    verify_cover,
)
from strongcover import chordal, covers
from strongcover.covers import (
    counting_chain_check,
    exact_max_strong_cover,
    find_k5star,
    greedy_strong_cover,
    grow_blowup,
    multiplicity_sum,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
    two_clique_cover_exact,
)
from strongcover.errors import (
    GuaranteeError,
    InputError,
    PreconditionError,
    SizeLimitError,
)
from strongcover.graphs import bits


def tk_sample(count, predicate=None):
    items = [x for x in chordal_tk_corpus() if predicate is None or predicate(x)]
    return items[:count]


class TestGreedy:
    def test_trace_is_consistent(self):
        for inst in tk_sample(30):
            cover, trace = greedy_strong_cover(inst.coloring)
            rep = verify_cover(inst.coloring, cover)
            assert rep.valid
            seen = set()
            for step in trace.steps:
                assert step.clique, "greedy never assigns an empty clique"
                assert not (seen & step.clique)
                seen |= step.clique
            assert seen | trace.uncovered == set(range(inst.coloring.n))
            assert trace.covered() == rep.covered
            assert len(set(s.color for s in trace.steps)) == len(trace.steps)

    def test_each_step_takes_a_maximum_clique(self):
        for inst in tk_sample(12):
            col = inst.coloring
            _, trace = greedy_strong_cover(col)
            remaining = set(range(col.n))
            rows = oracles.color_adjacency(col)
            for step in trace.steps:
                adj = rows[step.color - 1]
                best = 0
                for vs in oracles.all_cliques(col.n, adj):
                    if set(vs) <= remaining:
                        best = max(best, len(vs))
                assert len(step.clique) == best
                remaining -= step.clique

    def test_respects_color_order(self):
        inst = tk_sample(1)[0]
        t = inst.coloring.t
        order = tuple(range(t, 0, -1))
        _, trace = greedy_strong_cover(inst.coloring, order=order)
        taken = [s.color for s in trace.steps]
        assert taken == sorted(taken, reverse=True)

    def test_rejects_bad_order(self):
        inst = tk_sample(1)[0]
        with pytest.raises(InputError):
            greedy_strong_cover(inst.coloring, order=(1, 1))

    def test_rejects_non_chordal_color(self):
        col = construct_k5star()  # both color graphs are 5-cycles
        with pytest.raises(PreconditionError) as info:
            greedy_strong_cover(col)
        color, hole = info.value.witness
        assert color == 1 and len(hole) == 5

    def test_lower_bound_all_orders_small(self):
        rng = random.Random(5)
        for inst in tk_sample(40):
            col, k = inst.coloring, inst.k
            base = list(range(1, col.t + 1))
            orders = [tuple(base), tuple(base[::-1])]
            orders += [tuple(rng.sample(base, len(base))) for _ in range(2)]
            for order in orders:
                cover, trace = greedy_strong_cover(col, order=order)
                covered = verify_cover(col, cover).covered
                assert covered * (k + 1) >= (k - 1) * col.n, (inst.name, order)


class TestCountingChain:
    def test_chain_holds_on_corpus(self):
        for inst in tk_sample(60):
            col, k = inst.coloring, inst.k
            _, trace = greedy_strong_cover(col)
            chain = counting_chain_check(col, trace, k)
            assert chain.ok, inst.name
            if chain.t_size > 1:
                assert chain.lower <= chain.m <= chain.upper

    def test_multiplicity_sum_is_plain_count(self):
        col = MultiColoring.from_edges(
            4, 3, [(0, 1, [1, 2]), (1, 2, [3]), (0, 2, [1, 2, 3])]
        )
        assert multiplicity_sum(col, frozenset({0, 1, 2})) == 6
        assert multiplicity_sum(col, frozenset({0, 1})) == 2
        assert multiplicity_sum(col, frozenset({3})) == 0

    def test_residual_multiplicity(self):
        for inst in tk_sample(25):
            col, k = inst.coloring, inst.k
            _, trace = greedy_strong_cover(col)
            ok, offender = oracles.residual_multiplicity(col, trace.uncovered, k)
            assert ok, (inst.name, offender)
        sparse = MultiColoring(3, 2, {(0, 1): frozenset({1})})
        ok, offender = oracles.residual_multiplicity(sparse, frozenset({0, 2}), 3)
        assert not ok and offender == (0, 2)


class TestExactSearch:
    def test_matches_oracle_on_corpus(self):
        checked = 0
        for inst in tk_sample(40, lambda x: x.coloring.n <= 9):
            col = inst.coloring
            cover = exact_max_strong_cover(col)
            rep = verify_cover(col, cover)
            assert rep.valid
            assert rep.covered == oracles.max_strong_cover_size(col)
            checked += 1
        assert checked >= 15

    def test_matches_oracle_on_random_sparse(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 7)
            t = rng.randint(1, 3)
            col = MultiColoring(n, t)
            for u in range(n):
                for v in range(u + 1, n):
                    cs = [c for c in range(1, t + 1) if rng.random() < 0.5]
                    if cs:
                        col.add_colors(u, v, cs)
            cover = exact_max_strong_cover(col)
            rep = verify_cover(col, cover)
            assert rep.valid
            assert rep.covered == oracles.max_strong_cover_size(col)

    def test_matches_the_unpruned_walk_on_shared_color_graphs(self):
        """The lexicographically least maximum cover and theta, on colorings
        where some colors have the same graph and share one clique list."""
        rng = random.Random(19)
        shared = 0
        for _ in range(300):
            n = rng.randint(0, 9)
            t = rng.randint(1, 3)
            pairs = list(itertools.combinations(range(n), 2))
            graphs = []
            for _ in range(rng.randint(1, t)):
                density = rng.uniform(0.2, 0.9)
                graphs.append({e for e in pairs if rng.random() < density})
            # each graph goes to one color or more, in a random order
            picks = list(range(len(graphs)))
            picks += rng.choices(picks, k=t - len(graphs))
            rng.shuffle(picks)
            edges = {}
            for c, g in enumerate(picks, 1):
                for e in graphs[g]:
                    edges.setdefault(e, set()).add(c)
            col = MultiColoring(n, t, {e: frozenset(cs) for e, cs in edges.items()})
            shared += len(set(map(tuple, oracles.color_adjacency(col)))) < t
            assert exact_max_strong_cover(col).assignments == (
                oracles.lex_first_max_strong_cover(col)
            )
            assert theta(col) == oracles.theta(col)
        assert shared >= 100

    def test_greedy_never_beats_exact(self):
        for inst in tk_sample(25, lambda x: x.coloring.n <= 10):
            col = inst.coloring
            exact = exact_max_strong_cover(col).covered()
            greedy = greedy_strong_cover(col)[0].covered()
            assert greedy <= exact

    def test_named_values(self):
        assert exact_max_strong_cover(construct_k5star()).covered() == 4
        col = coloring_from_intervals(construct_onefourth(3))
        assert exact_max_strong_cover(col).covered() == 6

    def test_size_guard(self):
        col = complete_coloring(6, 1)
        with pytest.raises(SizeLimitError):
            exact_max_strong_cover(col, max_n=5)
        with pytest.raises(SizeLimitError):
            theta(col, max_n=5)

    def test_a_full_cover_ends_the_search(self):
        """On edgeless colorings every reach exceeds n; capped at n, it lets
        the first full cover stop the search."""
        for n, t in ((4, 12), (3, 200)):
            start = time.perf_counter()
            cover = exact_max_strong_cover(MultiColoring(n, t))
            assert time.perf_counter() - start < 2.0, (n, t)
            assert cover.covered() == n

    def test_matches_the_unpruned_walk_on_edgeless_colorings(self):
        for n in range(6):
            for t in range(1, 7):
                col = MultiColoring(n, t)
                assert exact_max_strong_cover(col).assignments == (
                    oracles.lex_first_max_strong_cover(col)
                ), (n, t)

    def test_color_bound(self):
        """Both searches recurse once per color, so past MAX_SEARCH_COLORS
        they refuse the coloring, naming the bound, rather than overflow
        the stack."""
        limit = covers.MAX_SEARCH_COLORS
        col = MultiColoring(2, limit)
        assert exact_max_strong_cover(col).covered() == 2
        assert theta(col) == 2
        too_many = MultiColoring(2, limit + 1)
        for search in (exact_max_strong_cover, theta):
            with pytest.raises(SizeLimitError, match=f"search bound {limit}"):
                search(too_many)


def multipartite_rows(n, parts):
    """The complete multipartite graph with v in part ``parts[v]``."""
    return [sum(1 << u for u in range(n) if parts[u] != parts[v]) for v in range(n)]


def coloring_of(rows, keeps, rng):
    """The coloring with these color graphs, color c kept on each of its
    edges with probability ``keeps[c - 1]``, relabeled at random."""
    n = len(rows[0])
    col = MultiColoring(n, len(rows))
    for c, (row, keep) in enumerate(zip(rows, keeps), 1):
        for u in range(n):
            for v in range(u + 1, n):
                if row[u] >> v & 1 and rng.random() < keep:
                    col.add_colors(u, v, [c])
    label = list(range(n))
    rng.shuffle(label)
    col.rows = [relabeled(r, label) for r in col.rows]
    return col


def false_twin_rich_colorings(rng):
    """Colorings on at most 12 vertices whose colors have false twins."""
    for _ in range(150):  # complete multipartite colors, some edges thinned
        n = rng.randint(0, 12)
        t = rng.randint(1, 3 if n <= 8 else 2)
        colors = [
            multipartite_rows(n, [rng.randrange(rng.randint(1, 5)) for _ in range(n)])
            for _ in range(t)
        ]
        yield coloring_of(colors, [rng.choice((1.0, 1.0, 0.9))] * t, rng)
    for _ in range(80):  # Moon–Moser: K_{3 x m}, then it or half its edges
        parts = [v // 3 for v in range(3 * rng.randint(0, 4))]
        row = multipartite_rows(len(parts), parts)
        yield coloring_of([row, row], [1.0, rng.choice((1.0, 0.5))], rng)
    for _ in range(120):  # multipartite with true classes substituted in
        p = rng.randint(1, 5)
        sizes = [rng.randint(1, 12 // p) for _ in range(p)]
        rows = [substituted(complete_adj(p), sizes, [rng.random() < 0.3 for _ in range(p)])]
        n = len(rows[0])
        other = [multipartite_rows(n, [rng.randrange(3) for _ in range(n)])]
        rows += rng.choice(([], [random_adj(rng, n, 0.5)], other))
        yield coloring_of(rows, [1.0] * len(rows), rng)
    for m in range(5):  # K_{3 x m} beside a clique on all but one of its parts
        parts = [v // 3 for v in range(3 * m)]
        rows = [clique_but_last_part(m), multipartite_rows(3 * m, parts)]
        for _ in range(5):
            yield coloring_of(rng.sample(rows, 2), [1.0, 1.0], rng)


def clique_but_last_part(m):
    """A clique on vertices 0..3m-4 beside three isolated vertices."""
    k = 3 * m - 3
    return [(1 << k) - 1 ^ 1 << v if v < k else 0 for v in range(3 * m)]


class TestExactSearchOnTwins:
    def test_matches_the_unpruned_walk_on_false_twin_rich_colorings(self):
        """The lexicographically least maximum cover and theta where colors
        have many maximal cliques that share a quotient clique."""
        rng = random.Random(22)
        sizes, rich = set(), 0
        for col in false_twin_rich_colorings(rng):
            sizes.add(col.n)
            rich += any(
                row[u] == row[v] for row in col.rows for u, v in
                itertools.combinations(range(col.n), 2)
            )
            assert exact_max_strong_cover(col).assignments == (
                oracles.lex_first_max_strong_cover(col)
            ), col.rows
            assert theta(col) == oracles.theta(col), col.rows
        assert {0, 1, 12} <= sizes and rich >= 200

    def test_moon_moser_at_the_cap(self):
        """Both colors K_{3 x 13}, with 3^13 = 1,594,323 maximal cliques: the
        searches draw a few lifts, not all of them."""
        n = 39
        row = multipartite_rows(n, [v // 3 for v in range(n)])
        col = MultiColoring(n, 2)
        col.rows = [row, list(row)]
        tracemalloc.start()
        try:
            cover = exact_max_strong_cover(col, max_n=n)
            assert theta(col, max_n=n) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cover.assignments == {
            1: frozenset(range(0, n, 3)),
            2: frozenset(range(1, n, 3)),
        }
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_walk_keeps_the_lifts_that_beat_the_bound(self, m):
        """A walk of K_{3 x m}, its parts relabeled at random, yields the
        kernel's cliques in vertex-tuple order, and with a bound exactly
        those with more than ``best[0] - floor`` vertices of ``fresh``."""
        rng = random.Random(m)
        n = 3 * m
        label = list(range(n))
        rng.shuffle(label)
        adj = relabeled(multipartite_rows(n, [v // 3 for v in range(n)]), label)
        plain, [top], class_of = covers._quotient_cliques(adj)
        lifts = list(covers._walk(*top, class_of))
        assert plain == [] and len(lifts) == 3**m
        assert lifts == sorted(maximal_cliques(n, adj), key=lambda q: [*bits(q)])
        for _ in range(30):
            fresh, floor = rng.getrandbits(n), rng.randint(0, n)
            best = floor + rng.randint(-1, m)
            want = [q for q in lifts if (q & fresh).bit_count() > best - floor]
            assert list(covers._walk(*top, class_of, fresh, floor, [best])) == want

    def test_walk_bound_counts_the_fresh_vertices_left(self):
        """Only the last vertex of K_{3 x 8} is fresh, so no lift adds two
        fresh vertices: the walk stops at its root, reading ``best`` once."""
        n = 24

        class Best:
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return n

        adj = multipartite_rows(n, [v // 3 for v in range(n)])
        _, [top], class_of = covers._quotient_cliques(adj)
        best = Best()
        assert list(covers._walk(*top, class_of, 1 << n - 1, n - 1, best)) == []
        assert best.reads == 1

    def test_walk_bound_counts_the_classes_with_a_fresh_member(self):
        """Only the last part of K_{3 x 8} is fresh: three fresh vertices,
        but one class, so no lift adds two and the walk stops at its root."""
        n = 24
        adj = multipartite_rows(n, [v // 3 for v in range(n)])
        _, [top], class_of = covers._quotient_cliques(adj)

        class Best:
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return n

        best = Best()
        assert list(covers._walk(*top, class_of, 7 << n - 3, n - 1, best)) == []
        assert best.reads == 1

    def test_clique_on_all_but_one_part(self):
        """Color 1 a clique on the first 12 parts of K_{3 x 13}, color 2 that
        K_{3 x 13}: beside the clique a color-2 lift adds one vertex at most,
        so the walk after the first such lift stops at its root."""
        n = 39
        col = MultiColoring(n, 2)
        col.rows = [clique_but_last_part(13), multipartite_rows(n, [v // 3 for v in range(n)])]
        start = time.perf_counter()
        cover = exact_max_strong_cover(col, max_n=n)
        elapsed = time.perf_counter() - start
        assert cover.assignments == {1: frozenset(range(36)), 2: frozenset(range(0, n, 3))}
        assert elapsed < 0.05


class TestTheta:
    def test_matches_oracle(self):
        for inst in tk_sample(30, lambda x: x.coloring.n <= 9):
            col = inst.coloring
            assert theta(col) == oracles.theta(col), inst.name

    def test_known_values(self):
        assert theta(construct_k5star()) is None
        assert theta(construct_k4_two_paths()) == 2
        assert theta(complete_coloring(5, 2)) == 1
        assert theta(MultiColoring(1, 1)) == 1
        assert theta(MultiColoring(0, 1)) == 0

    def test_uncoverable_small(self):
        # one color, two components, so one clique can never cover both
        col = MultiColoring(4, 1, {(0, 1): frozenset({1}), (2, 3): frozenset({1})})
        assert theta(col) is None
        assert oracles.theta(col) is None


class TestTwoCliqueCover:
    def test_agrees_with_oracle_existence(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(60):
            n = rng.randint(2, 7)
            col = MultiColoring(n, 2)
            for u in range(n):
                for v in range(u + 1, n):
                    cs = [c for c in (1, 2) if rng.random() < 0.6]
                    if cs:
                        col.add_colors(u, v, cs)
            cover = two_clique_cover_exact(col)
            exists = oracles.two_clique_cover_exists(col, 1, 2)
            assert (cover is not None) == exists
            if cover is not None:
                hits += 1
                rep = verify_cover(col, cover)
                assert rep.valid and rep.covered == n
                assert set(cover.assignments) <= {1, 2}
        assert 0 < hits < 60

    def test_respects_color_parameters(self):
        col = MultiColoring.from_edges(3, 3, [(0, 1, [3]), (1, 2, [3]), (0, 2, [3])])
        cover = two_clique_cover_exact(col, colors=(3, 1))
        assert cover is not None and cover.assignments[3] == frozenset({0, 1, 2})
        assert two_clique_cover_exact(col, colors=(1, 2)) is None
        with pytest.raises(InputError):
            two_clique_cover_exact(col, colors=(1, 1))

    def test_restricted_vertices(self):
        col = construct_k5star()
        cover = two_clique_cover_exact(col, vertices=frozenset({0, 1, 2}))
        # {0,1} is red, {2} alone is a blue clique
        assert cover is not None
        assert cover.vertices() == frozenset({0, 1, 2})

    def test_restricted_vertices_agree_with_oracle_existence(self):
        # K5* blow-ups have non-chordal color graphs, interval colorings
        # chordal ones
        rng = random.Random(41)
        cols = []
        for _ in range(8):
            sizes = [1 + rng.randrange(3) for _ in range(5)]
            cols.append(blow_up(construct_k5star(), BlowupSpec(sizes)))
        for _ in range(8):
            fam, _ = random_interval_family(
                rng.randint(5, 12), 2, rng.randint(0, 9999), anchor=0.5
            )
            cols.append(coloring_from_intervals(fam))
        found = missing = 0
        for col in cols:
            for _ in range(6):
                vs = frozenset(v for v in range(col.n) if rng.random() < 0.6)
                vs = frozenset(rng.sample(sorted(vs), min(len(vs), 10)))
                cover = two_clique_cover_exact(col, (1, 2), vertices=vs)
                assert (cover is not None) == oracles.two_clique_cover_exists(
                    col, 1, 2, vs
                )
                if cover is None:
                    missing += 1
                    continue
                found += 1
                rep = verify_cover(col, cover)
                assert rep.valid and cover.vertices() == vs
        assert found > 10 and missing > 5

    def test_matches_lex_first_oracle(self):
        # random 2- and 3-colorings, K5* blow-ups (non-chordal colors) and
        # interval colorings (chordal ones), n <= 12, each with both color
        # orders on the whole vertex set and on random subsets
        rng = random.Random(97)
        cols = []
        for _ in range(120):
            n, t, p = rng.randint(0, 10), rng.choice((2, 3)), rng.uniform(0.3, 0.95)
            col = MultiColoring(n, t)
            for u, v in itertools.combinations(range(n), 2):
                cs = [c for c in range(1, t + 1) if rng.random() < p]
                if cs:
                    col.add_colors(u, v, cs)
            cols.append(col)
        for _ in range(20):
            sizes = [1 + rng.randrange(3) for _ in range(5)]
            for i in rng.sample(range(5), 2):
                sizes[i] = 1
            cols.append(blow_up(construct_k5star(), BlowupSpec(sizes)))
        for _ in range(20):
            fam, _ = random_interval_family(
                rng.randint(5, 12), rng.choice((2, 3)), rng.randint(0, 9999),
                anchor=rng.choice((0.0, 0.5, 0.8)),
            )
            cols.append(coloring_from_intervals(fam))
        found = missing = two = 0
        for col in cols:
            pairs = [(1, 2), (2, 1)] + ([(3, 1), (2, 3)] if col.t == 3 else [])
            subsets = [None] + [
                frozenset(v for v in range(col.n) if rng.random() < 0.7)
                for _ in range(2)
            ]
            for (c1, c2), vs in itertools.product(pairs, subsets):
                want = oracles.lex_first_two_clique_cover(col, c1, c2, vs)
                cover = two_clique_cover_exact(col, (c1, c2), vs)
                got = None if cover is None else cover.assignments
                assert got == want, (col.to_dict(), c1, c2, vs)
                if want is None:
                    missing += 1
                else:
                    found += 1
                    two += len(want) == 2
        assert found > 800 and missing > 200 and two > 400


class TestStrongCover33:
    def test_corpus(self):
        for inst in chordal_33_corpus():
            col = inst.coloring
            cover = strong_cover_33(col)
            rep = verify_cover(col, cover)
            assert rep.valid and rep.covered == col.n, inst.name
            assert cover.size() <= 3, inst.name

    def test_theta_cross_check(self):
        checked = 0
        for inst in chordal_33_corpus():
            if inst.coloring.n > 10:
                continue
            th = oracles.theta(inst.coloring)
            assert th is not None and th <= 3, inst.name
            checked += 1
        assert checked >= 50

    def test_rejects_wrong_t(self):
        with pytest.raises(PreconditionError):
            strong_cover_33(construct_k5star())

    def test_rejects_non_33(self):
        col = MultiColoring.from_edges(
            3, 3, [(0, 1, [1]), (1, 2, [2]), (0, 2, [3])]
        )
        ok, witness = is_tk_coloring(col, 3)
        assert not ok and witness == (0, 1, 2)
        with pytest.raises(PreconditionError):
            strong_cover_33(col)


class TestNoCertificateInSearches:
    def test_exhaustive_covers_run_without_chordality_certificates(
        self, monkeypatch
    ):
        def refuse(g):
            raise AssertionError("is_chordal called")

        monkeypatch.setattr(covers, "is_chordal", refuse)
        star = construct_k5star()
        col = coloring_from_intervals(construct_onefourth(3))
        assert exact_max_strong_cover(star).covered() == 4
        assert exact_max_strong_cover(col).covered() == 6
        assert theta(star) is None
        assert theta(construct_k4_two_paths()) == 2
        assert two_clique_cover_exact(star, vertices=frozenset({0, 1, 2})) is not None
        assert two_clique_cover_exact(col, (1, 2)) is None


def _tt3_without_covering_pair() -> MultiColoring:
    """A chordal (3,3)-coloring in which every color carries an edge alone,
    so no color pair covers every edge and ``strong_cover_tt`` reaches its
    triple branch (and ``strong_cover_33`` its clique cutset branch)."""
    return MultiColoring.from_dict({"n": 6, "t": 3, "edges": [
        [0, 1, [1]], [0, 2, [1, 2]], [0, 3, [1, 2]], [0, 4, [1, 3]],
        [0, 5, [1, 2, 3]], [1, 2, [1, 2]], [1, 3, [1, 2]], [1, 4, [1, 3]],
        [1, 5, [1, 2, 3]], [2, 3, [2]], [2, 4, [1, 2, 3]], [2, 5, [2, 3]],
        [3, 4, [1, 2, 3]], [3, 5, [2, 3]], [4, 5, [3]],
    ]})


class TestStrongCoverTT:
    def test_triple_branch_takes_one_certificate_per_color(self, monkeypatch):
        col = _tt3_without_covering_pair()
        calls = []

        def counted(g):
            calls.append(g)
            return is_chordal(g)

        monkeypatch.setattr(covers, "is_chordal", counted)
        cover = strong_cover_tt(col)
        assert len(calls) == col.t
        rep = verify_cover(col, cover)
        assert rep.valid and rep.covered == col.n and cover.size() <= 3
        assert cover.to_dict() == strong_cover_33(col).to_dict()
        assert oracles.theta(col) <= 3

    def test_blowups_reach_cutset_and_triple_branches(self, monkeypatch):
        """Every blow-up of the base coloring with blocks of 1-3 twins is a
        chordal (3,3)-coloring with a single-color edge in every color."""
        base = _tt3_without_covering_pair()
        cutsets = []

        def counted(g, peo):
            cutsets.append(g)
            return chordal._clique_cutset(g, peo)

        monkeypatch.setattr(covers, "_clique_cutset", counted)
        for sizes in itertools.product((1, 2, 3), repeat=base.n):
            col = blow_up(base, BlowupSpec(list(sizes)))
            cutsets.clear()
            cover = strong_cover_33(col)
            assert len(cutsets) == 1, sizes
            rep = verify_cover(col, cover)
            assert rep.valid and rep.covered == col.n and cover.size() <= 3
            assert strong_cover_tt(col).to_dict() == cover.to_dict(), sizes

    def test_cutset_branch_checks_each_given_order_once(self, monkeypatch):
        """The clique cutset reuses color 1's certificate: a searched PEO
        is not checked, and an order given to the public cutset is checked
        once."""
        col = blow_up(_tt3_without_covering_pair(), BlowupSpec([2, 1, 3, 1, 2, 1]))
        checked = []
        require = chordal._require_peo

        def counted(g, peo):
            checked.append(list(peo))
            return require(g, peo)

        monkeypatch.setattr(chordal, "_require_peo", counted)
        strong_cover_33(col)
        assert checked == []
        peos = [is_chordal(col.color_graph(i)).peo for i in (1, 2, 3)]
        cutset = chordal.clique_cutset(col.color_graph(1), peos[0])
        assert cutset is not None and checked == peos[:1]

    def test_corpus(self):
        for inst in chordal_tt_corpus():
            col = inst.coloring
            cover = strong_cover_tt(col)
            rep = verify_cover(col, cover)
            limit = 2 if col.t % 2 == 0 else 3
            assert rep.valid and rep.covered == col.n, inst.name
            assert cover.size() <= limit, (inst.name, cover.size())

    def test_two_colors_is_two_cliques(self):
        fam, ok = random_interval_family(8, 2, 77, anchor=1.0, k=2)
        assert ok
        col = coloring_from_intervals(fam)
        cover = strong_cover_tt(col)
        assert cover.size() <= 2
        assert verify_cover(col, cover).covered == 8

    def test_rejects_non_chordal_colors(self):
        # the double 5-cycle is a valid (2,2)-coloring, but both color
        # graphs are 5-cycles, so the chordality precondition trips
        col = construct_k5star()
        ok, _ = is_tk_coloring(col, 2)
        assert ok
        with pytest.raises(PreconditionError):
            strong_cover_tt(col)


class TestC4Free22:
    def test_corpus(self):
        for inst in c4free_22_corpus():
            col = inst.coloring
            cover = strong_cover_c4free_22(col)
            rep = verify_cover(col, cover)
            bound = -(-4 * col.n // 5)
            assert rep.valid and rep.covered >= bound, inst.name

    def test_without_star_two_cliques_cover_all(self):
        for inst in c4free_22_corpus():
            col = inst.coloring
            if find_k5star(col, 1, 2) is None:
                cover = strong_cover_c4free_22(col)
                assert verify_cover(col, cover).covered == col.n, inst.name

    def test_a_chordal_color_skips_the_double_cycle_search(self, monkeypatch):
        """Each color of a double 5-cycle induces a 5-cycle, a hole, so with
        one chordal color there is none to find: the two-clique cover is
        taken with no search, for either color, and the search still runs
        when neither color is chordal."""
        searched = []
        search = covers.find_k5star
        monkeypatch.setattr(
            covers, "find_k5star", lambda *a: searched.append(a) or search(*a)
        )
        for hole in (1, 2):  # K5 in one color, a 5-cycle in the other
            col = MultiColoring(5, 2)
            for u, v in itertools.combinations(range(5), 2):
                on_cycle = (v - u) % 5 in (1, 4)
                col.add_colors(u, v, [3 - hole, hole] if on_cycle else [3 - hole])
            assert not is_chordal(col.color_graph(hole)).is_chordal
            assert search(col, 1, 2) is None
            want = two_clique_cover_exact(col, (1, 2))
            assert strong_cover_c4free_22(col) == want and searched == []
        star = construct_k5star()
        assert strong_cover_c4free_22(star).covered() == 4
        assert searched == [(star, 1, 2)]

    def test_chordal_blowup_at_n400_is_covered_without_a_search(self, monkeypatch):
        """A relabeled n=400 blow-up of ``c4free-int-13``: both colors are
        chordal, so it holds no double 5-cycle and the search, which would
        walk its candidate masks to the end, is not run; the cover is the
        two-clique cover."""
        base = next(
            x.coloring for x in c4free_22_corpus() if x.name == "c4free-int-13"
        )
        assert 400 % base.n == 0
        grown = blow_up(base, BlowupSpec([400 // base.n] * base.n))
        label = list(range(400))
        random.Random(71).shuffle(label)
        col = MultiColoring(400, 2)
        col.rows = [relabeled(rows, label) for rows in grown.rows]
        assert find_k5star(col, 1, 2) is None
        want = two_clique_cover_exact(col, (1, 2))
        assert want is not None and len(want.assignments) == 2

        def no_search(*args):
            raise AssertionError("find_k5star ran on a chordal coloring")

        monkeypatch.setattr(covers, "find_k5star", no_search)
        assert strong_cover_c4free_22(col) == want

    def test_blowup_tightness(self):
        for s in (1, 2, 3):
            col = blow_up(construct_k5star(), BlowupSpec([s] * 5))
            assert exact_max_strong_cover(col).covered() == 4 * s

    def test_find_k5star(self):
        star = construct_k5star()
        assert find_k5star(star, 1, 2) == (0, 1, 2, 3, 4)
        assert find_k5star(star, 2, 1) == (0, 1, 2, 3, 4)
        fam, _ = random_interval_family(8, 2, 3, anchor=1.0, k=2)
        chordal_col = coloring_from_intervals(fam)
        assert find_k5star(chordal_col, 1, 2) is None
        with pytest.raises(InputError):
            find_k5star(star, 1, 1)

    def test_grow_blowup_structure(self):
        col = blow_up(construct_k5star(), BlowupSpec([2, 1, 1, 2, 1]))
        seed = find_k5star(col, 1, 2)
        classes = grow_blowup(col, seed)
        assert sorted(len(c) for c in classes) == [1, 1, 1, 2, 2]
        covered = set()
        for c in classes:
            assert not covered & c
            covered |= c
        assert covered == set(range(col.n))
        # consecutive classes joined in red, far pairs in blue
        for i in range(5):
            for u in classes[i]:
                for v in classes[(i + 1) % 5]:
                    assert col.colors_of(u, v) == frozenset({1})
                for v in classes[(i + 2) % 5]:
                    assert col.colors_of(u, v) == frozenset({2})

    def test_grow_blowup_rejects_bad_seed(self):
        col = blow_up(construct_k5star(), BlowupSpec([2, 1, 1, 1, 1]))
        with pytest.raises(InputError):
            grow_blowup(col, (0, 1, 2, 3, 3))
        with pytest.raises(InputError):
            grow_blowup(col, (0, 1, 2, 3, 5))  # 0 and 1 are twins here

    @pytest.mark.parametrize(
        "red, blue",
        [(0, 2), (-1, 2), (3, 2), (1, 1), (True, 2), (1, True), (1.0, 2), ("1", 2)],
    )
    def test_grow_blowup_rejects_bad_color_pair(self, red, blue):
        col = construct_k5star()  # t = 2
        for call in (
            lambda: grow_blowup(col, (0, 1, 2, 3, 4), red=red, blue=blue),
            lambda: find_k5star(col, red, blue),
            lambda: two_clique_cover_exact(col, (red, blue)),
        ):
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == f"bad color pair {(red, blue)}"

    @pytest.mark.parametrize("colors", [(1,), (1, 2, 1), (), 1, "12"])
    def test_two_clique_cover_rejects_other_lengths(self, colors):
        with pytest.raises(InputError) as info:
            two_clique_cover_exact(construct_k5star(), colors)
        assert str(info.value) == f"bad color pair {colors}"

    def test_grow_blowup_matches_repeated_passes(self):
        """One increasing pass grows the classes that passes repeated until
        none adds a vertex grow, on relabeled K5* blow-ups with up to 8
        extra vertices, each a copy of an earlier vertex with some of its
        edges recolored at random."""
        rng = random.Random(25)
        grew = 0
        for _ in range(1000):
            base = blow_up(
                construct_k5star(), BlowupSpec([rng.randint(1, 3) for _ in range(5)])
            )
            n = base.n + rng.randint(0, 8)
            colors = dict(base.edge_colors)
            for w in range(base.n, n):
                twin = rng.randrange(w)
                for u in range(w):
                    cs = colors.get((min(u, twin), max(u, twin)), frozenset({1, 2}))
                    if rng.random() < 0.2:
                        cs = rng.choice([{1}, {2}, {1, 2}])
                    colors[u, w] = frozenset(cs)
            perm = rng.sample(range(n), n)
            col = MultiColoring(n, 2)
            for (u, v), cs in colors.items():
                col.add_colors(perm[u], perm[v], cs)
            red, blue = rng.choice([(1, 2), (2, 1)])
            seed = find_k5star(col, red, blue)
            classes = grow_blowup(col, seed, red, blue)
            assert classes == oracles.maximal_blowup(col, seed, red, blue)
            grew += sum(map(len, classes)) > 5
        assert grew > 900

    def test_red_apex_lands_in_red_part(self):
        col = MultiColoring(6, 2)
        for edge, cs in construct_k5star().edge_colors.items():
            col.edge_colors[edge] = cs
        for v in range(5):
            col.add_colors(v, 5, [1])
        cover = strong_cover_c4free_22(col)
        rep = verify_cover(col, cover)
        assert rep.valid
        assert 5 in cover.assignments[1]
        assert rep.covered >= -(-4 * 6 // 5)

    def test_rejects_c4(self):
        col = MultiColoring(4, 2)
        for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)):
            col.add_colors(u, v, [1])
        for u, v in ((0, 2), (1, 3)):
            col.add_colors(u, v, [2])
        with pytest.raises(PreconditionError):
            strong_cover_c4free_22(col)

    def test_rejects_uncolored_edge(self):
        col = MultiColoring(3, 2, {(0, 1): frozenset({1})})
        with pytest.raises(PreconditionError) as info:
            strong_cover_c4free_22(col)
        assert info.value.witness == (0, 2)
        assert str(info.value) == "not a (2,2)-coloring; witness (0, 2)"

    def test_covers_zero_and_one_vertex(self):
        assert strong_cover_c4free_22(MultiColoring(0, 2)).assignments == {}
        assert strong_cover_c4free_22(MultiColoring(1, 2)).covered() == 1


class TestContractTexts:
    """The exact texts and attachments of the structured covers' (t,k)
    precondition and two-clique guarantee errors."""

    @pytest.mark.parametrize(
        "cover, n, t, edges, text, witness",
        [
            (
                strong_cover_33, 3, 3, [(0, 1, [1]), (1, 2, [2]), (0, 2, [3])],
                "not a (3,3)-coloring; witness (0, 1, 2)", (0, 1, 2),
            ),
            (
                strong_cover_tt, 4, 3,
                [(0, 1, [1]), (1, 2, [2]), (0, 2, [3]), (2, 3, [1, 2, 3])],
                "not a (t,t)-coloring; witness (0, 1, 2)", (0, 1, 2),
            ),
            (
                strong_cover_tt, 3, 2, [(0, 1, [1]), (1, 2, [2])],
                "not a (t,t)-coloring; witness (0, 2)", (0, 2),
            ),
            (
                strong_cover_c4free_22, 3, 2, [(0, 1, [1]), (1, 2, [2])],
                "not a (2,2)-coloring; witness (0, 2)", (0, 2),
            ),
        ],
    )
    def test_precondition_texts(self, cover, n, t, edges, text, witness):
        col = MultiColoring.from_edges(n, t, edges)
        with pytest.raises(PreconditionError) as info:
            cover(col)
        assert str(info.value) == text
        assert info.value.witness == witness

    @pytest.mark.parametrize(
        "cover, col, text",
        [
            (
                strong_cover_33, complete_coloring(3, 3),
                "two-clique cover of a (2,2)-coloring failed",
            ),
            (
                strong_cover_33, _tt3_without_covering_pair(),
                "two-clique cover across the clique cutset failed",
            ),
            (
                strong_cover_tt, complete_coloring(3, 3),
                "two-clique cover of a covering pair failed",
            ),
            (
                strong_cover_c4free_22, complete_coloring(2, 2),
                "two-clique cover failed without a double 5-cycle",
            ),
        ],
    )
    def test_guarantee_texts(self, cover, col, text, monkeypatch):
        calls = []

        def fails(*args, **kwargs):
            calls.append(args)
            return None

        monkeypatch.setattr(covers, "two_clique_cover_exact", fails)
        with pytest.raises(GuaranteeError) as info:
            cover(col)
        assert str(info.value) == text
        assert info.value.instance is col
        assert len(calls) == 1


class TestSubstitution:
    def test_theta_invariant_small(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 6)
            fam, _ = random_interval_family(n, 2, rng.randint(0, 9999), anchor=0.8)
            col = coloring_from_intervals(fam)
            v = rng.randrange(n)
            post = clique_substitute(col, v, 2)
            assert oracles.theta(col) == oracles.theta(post)
            assert theta(col) == theta(post)

    def test_substituted_block_is_all_colors(self):
        col = clique_substitute(construct_k5star(), 1, 3)
        assert col.n == 7
        # block occupies positions 1..3
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    assert col.colors_of(a, b) == frozenset({1, 2})
        # external edges copy vertex 1's colors
        assert col.colors_of(0, 1) == col.colors_of(0, 2) == col.colors_of(0, 3)


def _grown(base, n, rng, whole):
    """``base`` grown to n vertices: one vertex substituted by a clique
    (``whole``), or every vertex by a clique of a random size.  Returns the
    coloring and the vertex blocks, in base vertex order."""
    sizes = [1] * base.n
    if whole:
        v = rng.randrange(base.n)
        sizes[v] = n - base.n + 1
        col = clique_substitute(base, v, sizes[v])
    else:
        for _ in range(n - base.n):
            sizes[rng.randrange(base.n)] += 1
        col = blow_up(base, BlowupSpec(sizes))
    starts = list(itertools.accumulate([0] + sizes))
    return col, [range(a, b) for a, b in zip(starts, starts[1:])]


def _needs_two(instances, cover, limit):
    """The first ``limit`` colorings of the instances that ``cover`` covers
    with two or more cliques."""
    bases = [x.coloring for x in instances if cover(x.coloring).size() >= 2]
    return bases[:limit]


class TestStructuredCoversAtScale:
    """The polynomial covers on n = 100, 200, 400: blow-ups and clique
    substitutions of small colorings that need two or more cliques.  True
    twins keep each color chordal and induced-C4-free, keep (t,t), and add
    no K5*."""

    SIZES = (100, 200, 400)

    def check(self, bases, cover, limit_of):
        rng = random.Random(61)
        for base, n, whole in itertools.product(bases, self.SIZES, (True, False)):
            col, _ = _grown(base, n, rng, whole)
            got = cover(col)
            rep = verify_cover(col, got)
            assert rep.valid and rep.covered == n and got.size() <= limit_of(col)

    def test_t33(self):
        bases = [_tt3_without_covering_pair()]
        bases += _needs_two(chordal_33_corpus(), strong_cover_33, 3)
        self.check(bases, strong_cover_33, lambda col: 3)

    def test_tt(self):
        bases = []
        for t in (2, 3, 4, 5):
            tt = [x for x in chordal_tt_corpus() if x.coloring.t == t]
            bases += _needs_two(tt, strong_cover_tt, 1)
        assert {b.t for b in bases} == {2, 3, 4, 5}
        self.check(bases, strong_cover_tt, lambda col: 2 if col.t % 2 == 0 else 3)

    def test_c4free22_is_the_lift_of_the_first_split(self):
        # a blow-up keeps the vertex-tuple order of cliques, block by block,
        # so its first split is the base's first split with each vertex
        # replaced by its block
        bases = []
        for x in c4free_22_corpus():  # the interval ones have no K5*
            if x.name.startswith("c4free-int") and x.coloring.n >= 10:
                want = oracles.lex_first_two_clique_cover(x.coloring, 1, 2)
                if len(want) == 2 and len(bases) < 3:
                    bases.append((x.coloring, want))
        assert len(bases) == 3
        rng = random.Random(67)
        for (base, want), n, whole in itertools.product(
            bases, self.SIZES, (True, False)
        ):
            col, blocks = _grown(base, n, rng, whole)
            lifted = {
                c: frozenset(w for v in vs for w in blocks[v])
                for c, vs in want.items()
            }
            cover = strong_cover_c4free_22(col)
            assert cover.assignments == lifted
            assert verify_cover(col, cover).covered >= -(-4 * n // 5)

    def test_uncoverable_multipartite_ends_fast(self):
        # color 1 is K_{3x13}, color 2 its complement: 13 disjoint triangles.
        # A color-1 clique meets each triangle at most once, so at least 26
        # vertices are left across the triangles: no color-2 clique
        col = MultiColoring(39, 2)
        for u, v in itertools.combinations(range(39), 2):
            col.add_colors(u, v, [1] if u // 3 != v // 3 else [2])
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert two_clique_cover_exact(col, (1, 2)) is None
            assert two_clique_cover_exact(col, (2, 1)) is None
            best = min(best, time.perf_counter() - start)
        assert best < 0.010


class TestGreedyAgainstStepOracle:
    def test_each_step_is_lex_least_maximum_clique(self):
        for inst in chordal_tk_corpus():
            col = inst.coloring
            rows = oracles.color_adjacency(col)
            cover, trace = greedy_strong_cover(col)
            remaining = set(range(col.n))
            for step in trace.steps:
                want = oracles.lex_least_max_clique_within(
                    rows[step.color - 1], remaining
                )
                assert tuple(sorted(step.clique)) == want, inst.name
                remaining -= step.clique
                assert step.remaining == len(remaining)
                if not remaining:
                    break
            assert trace.uncovered == frozenset(remaining), inst.name
            assert len(trace.steps) == col.t or not remaining


class TestMaskCounting:
    def test_multiplicity_and_residual_match_pairwise_counts(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 9)
            t = rng.randint(1, 4)
            col = MultiColoring(n, t)
            for u in range(n):
                for v in range(u + 1, n):
                    col.add_colors(
                        u, v, [c for c in range(1, t + 1) if rng.random() < 0.6]
                    )
            vs = frozenset(v for v in range(n) if rng.random() < 0.7)
            pairs = [(u, v) for u in sorted(vs) for v in sorted(vs) if u < v]
            counts = {e: len(col.colors_of(*e)) for e in pairs}
            assert multiplicity_sum(col, vs) == sum(counts.values())
            for k in range(0, t + 3):
                short = [e for e in pairs if counts[e] < k - 1]
                expected = (False, short[0]) if short else (True, None)
                assert oracles.residual_multiplicity(col, vs, k) == expected


def theta_grid(rng, count):
    """Seeded colorings with t <= 5 on at most 11 vertices, relabeled:
    half random, each color on each pair with a probability of its own,
    half complete multipartite colors with random parts, some thinned."""
    for i in range(count):
        n, t = rng.randint(0, 11), rng.randint(1, 5)
        if i % 2:
            parts = [
                [rng.randrange(rng.randint(1, 5)) for _ in range(n)] for _ in range(t)
            ]
            keeps = [rng.choice((1.0, 1.0, 0.9, 0.6)) for _ in range(t)]
        else:
            parts = [range(n)] * t  # complete, then thinned
            keeps = [rng.choice((0.15, 0.3, 0.5, 0.7)) for _ in range(t)]
        yield coloring_of([multipartite_rows(n, p) for p in parts], keeps, rng)


class TestThetaPrune:
    def test_complete_multipartite_3x7_two_colors_has_no_cover(self):
        # K_{3,...,3} with seven parts: every clique takes one vertex per
        # part, so two cliques reach at most 14 of the 21 vertices
        n = 21
        col = MultiColoring(n, 2)
        for u in range(n):
            for v in range(u + 1, n):
                if u // 3 != v // 3:
                    col.add_colors(u, v, [1, 2])
        assert theta(col) is None

    def test_matches_oracle_on_a_seeded_grid(self):
        """The fewest-cliques bound and the floor on each color's cliques
        cut no cover: theta equals the oracle's on 800 colorings, over
        200 of them with three or more multipartite colors."""
        values, many_multipartite = collections.Counter(), 0
        for i, col in enumerate(theta_grid(random.Random(31), 800)):
            expected = oracles.theta(col)
            assert theta(col) == expected, col.rows
            values[expected] += 1
            many_multipartite += i % 2 and col.t >= 3
        assert set(values) == {None, 0, 1, 2, 3, 4}, values
        assert values[3] + values[4] >= 100 and many_multipartite >= 200

    def test_three_moon_moser_colors(self, monkeypatch):
        """Three colors, each K_{3 x 13}: three cliques cover, and the
        fewest-cliques bound refuses fewer at the root, so each color's
        lifts are walked once, at the node that takes one of them."""
        n = 39
        row = multipartite_rows(n, [v // 3 for v in range(n)])
        col = MultiColoring(n, 3)
        col.rows = [list(row) for _ in range(3)]
        walks, lifts = [], covers._lifts
        monkeypatch.setattr(covers, "_lifts", lambda *a: walks.append(a) or lifts(*a))
        start = time.perf_counter()
        assert theta(col, max_n=n) == 3
        assert time.perf_counter() - start < 1.0
        assert len(walks) == 3

    def test_matches_oracle_on_corpora(self):
        items = [x for x in chordal_tk_corpus() if x.coloring.n <= 10]
        items += [x for x in chordal_33_corpus() if x.coloring.n <= 9][::4]
        items += [x for x in c4free_22_corpus() if x.coloring.n <= 10][::8]
        assert len(items) > 60
        for inst in items:
            assert theta(inst.coloring) == oracles.theta(inst.coloring), inst.name


class TestK5StarMasks:
    def test_first_seed_matches_subset_oracle(self):
        rng = random.Random(23)
        found = 0
        for _ in range(120):
            n = rng.randint(5, 9)
            col = MultiColoring(n, 3)
            for u in range(n):
                for v in range(u + 1, n):
                    r = rng.random()
                    cs = [1] if r < 0.4 else [2] if r < 0.8 else [1, 2] if r < 0.9 else [3]
                    col.add_colors(u, v, cs)
            if rng.random() < 0.5:  # plant a double 5-cycle
                five = rng.sample(range(n), 5)
                for i in range(5):
                    for j, c in ((1, 1), (2, 2)):
                        col.edge_colors[tuple(sorted((five[i], five[(i + j) % 5])))] = {c}
            for red, blue in ((1, 2), (2, 1), (1, 3)):
                seed = find_k5star(col, red, blue)
                assert seed == oracles.first_k5star(col, red, blue)
                found += seed is not None
        assert found > 10

    def test_blowups_give_their_classes_back(self):
        for sizes in ([1, 1, 1, 1, 1], [2, 1, 3, 1, 2], [3, 3, 3, 3, 3]):
            col = blow_up(construct_k5star(), BlowupSpec(sizes))
            seed = find_k5star(col, 1, 2)
            assert seed == oracles.first_k5star(col, 1, 2)
            classes = grow_blowup(col, seed)
            assert sorted(map(len, classes)) == sorted(sizes)
