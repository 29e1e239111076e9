"""Colorings, interval and subtree families, covers, and the predicates
connecting them."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strongcover.constructions import (
    construct_k5star,
    construct_onefourth,
    random_interval_family,
    random_subtree_family,
)
from strongcover.core import (
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    is_kwise_intersecting,
    is_tk_coloring,
    kfold_min_colors,
    piercing_points,
    verify_cover,
)
from strongcover.errors import InputError


class TestMultiColoring:
    def test_add_and_query(self):
        col = MultiColoring(4, 3)
        col.add_colors(2, 0, [1, 3])
        col.add_colors(0, 2, [3, 2])
        assert col.colors_of(0, 2) == frozenset({1, 2, 3})
        assert col.colors_of(2, 0) == frozenset({1, 2, 3})
        assert col.colors_of(0, 1) == frozenset()
        col.validate()

    def test_validate_rejects_bad_data(self):
        with pytest.raises(InputError):
            MultiColoring(3, 2, {(0, 3): frozenset({1})}).validate()
        with pytest.raises(InputError):
            MultiColoring(3, 2, {(0, 1): frozenset({5})}).validate()
        with pytest.raises(InputError):
            MultiColoring(3, 0).validate()
        with pytest.raises(InputError):
            MultiColoring(3, 2).add_colors(1, 1, [1])

    def test_complete(self):
        col = MultiColoring.complete(4, 2)
        assert kfold_min_colors(col) == 2
        assert col.is_clique_mask(col.vertex_mask(range(4)), 1)

    def test_color_graph_and_adjacency_agree(self):
        col = construct_k5star()
        rows = col.rows
        for i in (1, 2):
            g = col.color_graph(i)
            assert g.adj == rows[i - 1]
            assert g.edge_count() == 5
        with pytest.raises(InputError):
            col.color_graph(3)

    def test_select_colors_relabels(self):
        col = MultiColoring.from_edges(
            3, 3, [(0, 1, [1, 3]), (1, 2, [2]), (0, 2, [3])]
        )
        sel = col.select_colors((3, 1))
        assert sel.t == 2
        assert sel.colors_of(0, 1) == frozenset({1, 2})
        assert sel.colors_of(0, 2) == frozenset({1})
        assert sel.colors_of(1, 2) == frozenset()
        with pytest.raises(InputError):
            col.select_colors((1, 1))
        with pytest.raises(InputError):
            col.select_colors((0,))

    def test_dict_roundtrip(self):
        col = construct_k5star()
        doc = col.to_dict()
        assert doc["n"] == 5 and doc["t"] == 2
        again = MultiColoring.from_dict(doc)
        assert again == col
        with pytest.raises(InputError):
            MultiColoring.from_dict({"n": 2, "t": 1, "edges": [[1, 0, [1]]]})
        with pytest.raises(InputError):
            MultiColoring.from_dict(
                {"n": 3, "t": 1, "edges": [[0, 1, [1]], [0, 1, [1]]]}
            )


class TestFamilies:
    def test_interval_family_validation(self):
        fam = TIntervalFamily(2, [[(0, 1), (4, 4)], [(1, 3), (0, 9)]])
        fam.validate()
        assert fam.n == 2
        with pytest.raises(InputError):
            TIntervalFamily(2, [[(0, 1)]]).validate()
        with pytest.raises(InputError):
            TIntervalFamily(1, [[(3, 1)]]).validate()

    def test_interval_dict_roundtrip(self):
        fam = TIntervalFamily(2, [[(0, 1), (4, 4)], [(1, 3), (0, 9)]])
        assert TIntervalFamily.from_dict(fam.to_dict()).members == fam.members

    def test_subtree_family_validation(self):
        edges = [(0, 1), (1, 2), (1, 3)]
        fam = TSubtreeFamily(edges, 1, [[frozenset({0, 1, 2})], [frozenset({3})]])
        fam.validate()
        assert fam.host_size == 4
        with pytest.raises(InputError):
            TSubtreeFamily(edges, 1, [[frozenset({0, 2})]]).validate()
        with pytest.raises(InputError):
            TSubtreeFamily(edges, 1, [[frozenset()]]).validate()
        with pytest.raises(InputError):
            TSubtreeFamily(edges, 1, [[frozenset({0, -1})]]).validate()
        with pytest.raises(InputError):
            TSubtreeFamily([(0, 1), (2, 3)], 1, [[frozenset({0})]]).validate()

    def test_subtree_dict_roundtrip(self):
        edges = [(0, 1), (1, 2)]
        fam = TSubtreeFamily(edges, 2, [[frozenset({0}), frozenset({1, 2})]])
        again = TSubtreeFamily.from_dict(fam.to_dict())
        assert again.members == fam.members and again.host_edges == fam.host_edges

    def test_interval_coloring_edges(self):
        fam = TIntervalFamily(
            2, [[(0, 2), (10, 11)], [(2, 4), (0, 3)], [(5, 6), (3, 9)]]
        )
        col = coloring_from_intervals(fam)
        assert col.colors_of(0, 1) == frozenset({1})
        assert col.colors_of(1, 2) == frozenset({2})
        assert col.colors_of(0, 2) == frozenset()

    def test_subtree_coloring_edges(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        fam = TSubtreeFamily(
            edges,
            1,
            [[frozenset({0, 1})], [frozenset({1, 2})], [frozenset({3})]],
        )
        col = coloring_from_subtrees(fam)
        assert col.colors_of(0, 1) == frozenset({1})
        assert col.colors_of(0, 2) == frozenset()
        assert col.colors_of(1, 2) == frozenset()


class TestPredicates:
    def test_k5star_levels(self):
        col = construct_k5star()
        ok2, w2 = is_tk_coloring(col, 2)
        assert ok2 and w2 is None
        ok3, w3 = is_tk_coloring(col, 3)
        assert not ok3 and w3 == (0, 1, 2)

    def test_onefourth_levels(self):
        col = coloring_from_intervals(construct_onefourth(4))
        assert is_tk_coloring(col, 2)[0]
        assert not is_tk_coloring(col, 3)[0]

    def test_domain_errors(self):
        col = construct_k5star()
        with pytest.raises(InputError):
            is_tk_coloring(col, 1)
        with pytest.raises(InputError):
            is_tk_coloring(col, 6)
        fam, _ = random_interval_family(4, 2, 0)
        with pytest.raises(InputError):
            is_kwise_intersecting(fam, 5)

    def test_witness_is_lex_first(self):
        for seed in range(25):
            fam, _ = random_interval_family(7, 2, seed, anchor=0.5)
            col = coloring_from_intervals(fam)
            for k in (2, 3, 4):
                ok, witness = is_tk_coloring(col, k)
                assert witness == oracles.first_tk_violation(col, k)
                assert ok == (witness is None)

    def test_helly_agreement_on_random_families(self):
        for seed in range(40):
            fam, _ = random_interval_family(6, 3, seed, anchor=(seed % 4) * 0.3)
            col = coloring_from_intervals(fam)
            for k in range(2, 7):
                direct = is_kwise_intersecting(fam, k)
                assert direct == is_tk_coloring(col, k)[0]
                assert direct == oracles.kwise_intersecting(fam, k)

    def test_kfold_bounds(self):
        assert kfold_min_colors(MultiColoring.complete(4, 3)) == 3
        assert kfold_min_colors(construct_k5star()) == 1
        sparse = MultiColoring(3, 2, {(0, 1): frozenset({1})})
        assert kfold_min_colors(sparse) == 0
        with pytest.raises(InputError):
            kfold_min_colors(MultiColoring(1, 1))


class TestCovers:
    def test_verify_cover_counts(self):
        col = construct_k5star()
        cov = StrongCover({1: frozenset({0, 1}), 2: frozenset({2, 4})})
        rep = verify_cover(col, cov)
        assert rep.valid and rep.covered == 4

    def test_verify_cover_flags_nonclique(self):
        col = construct_k5star()
        cov = StrongCover({1: frozenset({0, 2})})  # (0,2) is blue
        rep = verify_cover(col, cov)
        assert not rep.valid

    def test_verify_cover_range_errors(self):
        col = construct_k5star()
        with pytest.raises(InputError):
            verify_cover(col, StrongCover({3: frozenset({0})}))
        with pytest.raises(InputError):
            verify_cover(col, StrongCover({1: frozenset({9})}))

    def test_cover_dict_roundtrip(self):
        cov = StrongCover({2: frozenset({1, 3}), 1: frozenset({0})})
        doc = cov.to_dict()
        assert doc == {"assignments": [[1, [0]], [2, [1, 3]]]}
        assert StrongCover.from_dict(doc).assignments == cov.assignments
        for bad in (
            {"assignments": [[1, [0]], [1, [2]]]},
            {"assignments": [[True, [0.9, "2"]], ["3", [False]]]},
            {"assignments": [[1, [0.9]]]},
            {"assignments": [[1.0, [0]]]},
            {"assignments": [[1, [True]]]},
            {"assignments": [[1, "0"]]},
            {"assignments": [[1, [0], 2]]},
            {"assignments": [1]},
            {"assignments": {"1": [0]}},
            {"cover": []},
            [],
        ):
            with pytest.raises(InputError):
                StrongCover.from_dict(bad)

    def test_size_skips_empty_assignments(self):
        cov = StrongCover({1: frozenset(), 2: frozenset({0})})
        assert cov.size() == 1 and cov.covered() == 1


class TestPiercing:
    def test_points_stab_every_member(self):
        fam = construct_onefourth(2)
        col = coloring_from_intervals(fam)
        cov = StrongCover({1: frozenset({0, 1}), 2: frozenset({2})})
        assert verify_cover(col, cov).valid
        points = piercing_points(fam, cov)
        assert [track for track, _ in points] == [1, 2]
        for track, point in points:
            for v in cov.assignments[track]:
                lo, hi = fam.members[v][track - 1]
                assert lo <= point <= hi

    def test_nested_intervals_take_max_left(self):
        fam = TIntervalFamily(1, [[(0, 10)], [(3, 4)]])
        cov = StrongCover({1: frozenset({0, 1})})
        assert piercing_points(fam, cov) == [(1, 3)]

    def test_invalid_cover_rejected(self):
        fam = TIntervalFamily(1, [[(0, 1)], [(5, 6)]])
        cov = StrongCover({1: frozenset({0, 1})})
        with pytest.raises(InputError):
            piercing_points(fam, cov)

    def test_random_cover_points(self):
        for seed in range(20):
            fam, ok = random_interval_family(6, 2, seed, anchor=0.9, k=2)
            if not ok:
                continue
            col = coloring_from_intervals(fam)
            from strongcover.covers import greedy_strong_cover

            cov, _ = greedy_strong_cover(col)
            points = dict(piercing_points(fam, cov))
            assert len(points) <= fam.t
            for c, s in cov.assignments.items():
                for v in s:
                    lo, hi = fam.members[v][c - 1]
                    assert lo <= points[c] <= hi


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10_000))
def test_generators_are_seed_deterministic(seed):
    a, _ = random_interval_family(6, 2, seed, anchor=0.5)
    b, _ = random_interval_family(6, 2, seed, anchor=0.5)
    assert a.members == b.members
    sa, _ = random_subtree_family(5, 2, seed, host_size=6)
    sb, _ = random_subtree_family(5, 2, seed, host_size=6)
    assert sa.members == sb.members and sa.host_edges == sb.host_edges


def _intervals_meet(a, b):
    return max(a[0], b[0]) <= min(a[1], b[1])


class TestSweepBuilds:
    """The sorted-sweep and holder-mask builds against pairwise tests."""

    SPECIAL = [
        [],  # n = 0
        [[(3, 3)]],  # n = 1
        [[(0, 2)], [(2, 5)]],  # n = 2, shared endpoint
        [[(0, 1)], [(2, 3)]],  # n = 2, disjoint
        [[(4, 4)], [(4, 4)], [(4, 4)], [(5, 5)]],  # equal points
        [[(0, 10)], [(2, 3)], [(3, 3)], [(4, 9)], [(10, 12)]],  # nesting
        [[(-7, -2)], [(-2, 0)], [(-9, -8)], [(-100, 100)]],  # negative
    ]

    def test_interval_special_cases(self):
        for members in self.SPECIAL:
            fam = TIntervalFamily(1, members)
            rows = coloring_from_intervals(fam).rows
            assert rows == oracles.family_color_adjacency(members, 1, _intervals_meet)

    def test_interval_random_families(self):
        import random

        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(0, 14)
            t = rng.randint(1, 4)
            lo, hi = rng.choice(((0, 6), (-20, 20), (-3, 0)))
            members = []
            for _ in range(n):
                tracks = []
                for _ in range(t):
                    a = rng.randint(lo, hi)
                    tracks.append((a, a + rng.choice((0, 0, 1, 2, 5))))
                members.append(tracks)
            col = coloring_from_intervals(TIntervalFamily(t, members))
            expected = oracles.family_color_adjacency(members, t, _intervals_meet)
            assert col.rows == expected
            assert oracles.color_adjacency(col) == expected

    def test_subtree_families(self):
        for seed in range(60):
            n = seed % 3 if seed < 9 else 2 + seed % 11
            fam, _ = random_subtree_family(
                max(n, 1), 1 + seed % 3, seed, host_size=2 + seed % 6
            )
            if n == 0:
                fam.members = []
            col = coloring_from_subtrees(fam)
            expected = oracles.family_color_adjacency(
                fam.members, fam.t, lambda a, b: bool(a & b)
            )
            assert col.rows == expected
            assert oracles.color_adjacency(col) == expected


class TestEdgeColorsView:
    def test_round_trip(self):
        col = MultiColoring(5, 3)
        view = col.edge_colors
        view[(0, 3)] = frozenset({1, 3})
        view[(4, 2)] = [2]
        assert col.colors_of(3, 0) == frozenset({1, 3})
        assert col.colors_of(2, 4) == frozenset({2})
        assert dict(view) == {(0, 3): frozenset({1, 3}), (2, 4): frozenset({2})}
        assert len(view) == 2 and (0, 3) in view and (3, 0) not in view
        rows = col.rows
        assert rows[0][0] == 1 << 3 and rows[0][3] == 1
        assert rows[1][2] == 1 << 4 and rows[1][4] == 1 << 2
        assert rows[2][0] == 1 << 3
        assert col.to_dict() == {
            "n": 5, "t": 3, "edges": [[0, 3, [1, 3]], [2, 4, [2]]]
        }
        view[(0, 3)] = {2}
        assert col.colors_of(0, 3) == frozenset({2})
        assert col.rows[0][0] == 0
        del view[(2, 4)]
        assert col.colors_of(2, 4) == frozenset()
        with pytest.raises(KeyError):
            del view[(2, 4)]
        view[(0, 3)] = ()
        assert len(view) == 0 and col.to_dict()["edges"] == []
        assert view.get((0, 9)) is None

    def test_writes_are_checked(self):
        col = MultiColoring(3, 2)
        with pytest.raises(InputError):
            col.edge_colors[(0, 3)] = {1}
        with pytest.raises(InputError):
            col.edge_colors[(0, 1)] = {3}
        with pytest.raises(InputError):
            col.edge_colors[(1, 1)] = {1}
        with pytest.raises(InputError):
            MultiColoring(3, 2, {(0, 1): frozenset({0})})
        assert col == MultiColoring(3, 2)

    def test_copy_between_colorings(self):
        star = construct_k5star()
        col = MultiColoring(5, 2, star.edge_colors)
        assert col == star and col.edge_colors == star.edge_colors
        assert MultiColoring.from_dict(star.to_dict()) == star


class TestMaskPredicates:
    def test_kfold_matches_pairwise_count(self):
        import random

        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(2, 9)
            t = rng.randint(1, 4)
            col = MultiColoring(n, t)
            for u in range(n):
                for v in range(u + 1, n):
                    col.add_colors(
                        u, v, [c for c in range(1, t + 1) if rng.random() < 0.7]
                    )
            expected = min(
                len(col.colors_of(u, v)) for u in range(n) for v in range(u + 1, n)
            )
            assert kfold_min_colors(col) == expected

    def test_monochromatic_clique_checks_range(self):
        col = construct_k5star()
        assert col.is_clique_mask(col.vertex_mask([0, 1]), 1)
        assert not col.is_clique_mask(col.vertex_mask([0, 2]), 1)
        with pytest.raises(InputError):
            col.is_clique_mask(col.vertex_mask([0, 1]), 3)
        with pytest.raises(InputError):
            col.is_clique_mask(col.vertex_mask([0, 7]), 1)

    def test_piercing_checks_cover_on_intervals(self):
        fam = TIntervalFamily(2, [[(0, 4), (0, 0)], [(2, 6), (1, 1)], [(4, 9), (2, 2)]])
        assert piercing_points(fam, StrongCover({1: frozenset({0, 1, 2})})) == [(1, 4)]
        with pytest.raises(InputError, match="not valid"):
            piercing_points(fam, StrongCover({2: frozenset({0, 1})}))
        with pytest.raises(InputError, match="cover color 3"):
            piercing_points(fam, StrongCover({3: frozenset({0})}))
        with pytest.raises(InputError, match="cover vertex 5"):
            piercing_points(fam, StrongCover({1: frozenset({5})}))
