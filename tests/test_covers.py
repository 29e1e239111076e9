"""Cover algorithms against the brute-force oracles and their stated bounds."""

import itertools
import random

import pytest

import oracles
from corpora import (
    c4free_22_corpus,
    chordal_33_corpus,
    chordal_tk_corpus,
    chordal_tt_corpus,
)
from strongcover.constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
    construct_k4_two_paths,
    construct_k5star,
    construct_onefourth,
    random_interval_family,
)
from strongcover.chordal import clique_cutset, is_chordal
from strongcover.core import (
    MultiColoring,
    coloring_from_intervals,
    is_tk_coloring,
    verify_cover,
)
from strongcover import covers
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
    InputError,
    PreconditionError,
    SizeLimitError,
)


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
        col = MultiColoring.complete(6, 1)
        with pytest.raises(SizeLimitError):
            exact_max_strong_cover(col, max_n=5)
        with pytest.raises(SizeLimitError):
            theta(col, max_n=5)


class TestTheta:
    def test_matches_oracle(self):
        for inst in tk_sample(30, lambda x: x.coloring.n <= 9):
            col = inst.coloring
            assert theta(col) == oracles.theta(col), inst.name

    def test_known_values(self):
        assert theta(construct_k5star()) is None
        assert theta(construct_k4_two_paths()) == 2
        assert theta(MultiColoring.complete(5, 2)) == 1
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
            return clique_cutset(g, peo)

        monkeypatch.setattr(covers, "clique_cutset", counted)
        for sizes in itertools.product((1, 2, 3), repeat=base.n):
            col = blow_up(base, BlowupSpec(list(sizes)))
            cutsets.clear()
            cover = strong_cover_33(col)
            assert len(cutsets) == 1, sizes
            rep = verify_cover(col, cover)
            assert rep.valid and rep.covered == col.n and cover.size() <= 3
            assert strong_cover_tt(col).to_dict() == cover.to_dict(), sizes

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
