"""Structural checks for the named constructions and random generators."""

import itertools
import random

import pytest

import oracles
from strongcover.chordal import induced_c4_free, is_chordal
from strongcover.constructions import (
    BlowupSpec,
    _below,
    _draw_intervals,
    _draw_subtrees,
    blow_up,
    clique_substitute,
    construct_k4_two_paths,
    construct_k5star,
    construct_k8_c4free_3col,
    construct_onefourth,
    construct_partition_coloring,
    hamilton_decomposition_bipartite,
    hamilton_paths_for_construction,
    random_interval_family,
    random_subtree_family,
)
from strongcover.core import (
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    family_peos,
    is_kwise_intersecting,
    is_tk_coloring,
    kfold_min_colors,
)
from strongcover.covers import exact_max_strong_cover
from strongcover.errors import InputError
from strongcover.graphs import bits


def graph_components(g):
    seen = 0
    out = []
    for v in range(g.n):
        if not (seen >> v) & 1:
            m = g.component_mask(v)
            out.append(frozenset(bits(m)))
            seen |= m
    return out


def single_colors(col):
    """Assert every pair carries exactly one color; return nothing useful."""
    for u in range(col.n):
        for v in range(u + 1, col.n):
            assert len(col.colors_of(u, v)) == 1, (u, v)


class TestHamiltonDecomposition:
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_cycles_partition_bipartite_edges(self, m):
        cycles = hamilton_decomposition_bipartite(m)
        assert len(cycles) == m // 2
        seen = set()
        for cyc in cycles:
            assert len(cyc) == 2 * m
            assert set(cyc) == set(range(2 * m))
            for i, v in enumerate(cyc):
                side_a = v < m
                assert side_a == (i % 2 == 0)
            for i in range(2 * m):
                a, b = cyc[i], cyc[(i + 1) % (2 * m)]
                e = (min(a, b), max(a, b))
                assert e not in seen
                seen.add(e)
        assert len(seen) == m * m

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_rejects_bad_side_size(self, m):
        with pytest.raises(InputError):
            hamilton_decomposition_bipartite(m)


class TestHamiltonPaths:
    @pytest.mark.parametrize("t", range(2, 9))
    def test_paths_decompose_all_cross_pairs(self, t):
        paths = hamilton_paths_for_construction(t)
        n = 4 * t - 5
        size_a = 2 * t - 2
        assert len(paths) == t - 1
        seen = set()
        for path in paths:
            assert sorted(path) == list(range(n))
            for a, b in zip(path, path[1:]):
                assert (a < size_a) != (b < size_a)
                e = (min(a, b), max(a, b))
                assert e not in seen
                seen.add(e)
        assert len(seen) == size_a * (n - size_a)

    def test_rejects_small_t(self):
        with pytest.raises(InputError):
            hamilton_paths_for_construction(1)


class TestOnefourth:
    @pytest.mark.parametrize("t", range(2, 7))
    def test_structure(self, t):
        fam = construct_onefourth(t)
        n = 4 * t - 5
        assert fam.t == t and len(fam.members) == n
        col = coloring_from_intervals(fam)
        single_colors(col)

        comps = graph_components(col.color_graph(1))
        assert sorted(len(c) for c in comps) == sorted([2 * t - 2, 2 * t - 3])
        for comp in comps:
            assert col.is_clique_mask(col.vertex_mask(comp), 1)

        for j in range(2, t + 1):
            g = col.color_graph(j)
            assert g.edge_count() == n - 1 and g.is_connected()
            degs = sorted(g.adj[v].bit_count() for v in range(n))
            assert degs == [1, 1] + [2] * (n - 2)

    def test_pairwise_but_not_triplewise(self):
        for t in (3, 4, 5):
            fam = construct_onefourth(t)
            assert is_kwise_intersecting(fam, 2) is True
            assert is_kwise_intersecting(fam, 3) is False

    def test_cover_ceiling(self):
        for t in (2, 3):
            col = coloring_from_intervals(construct_onefourth(t))
            assert exact_max_strong_cover(col).covered() == 3 * (t - 1)

    def test_rejects_small_t(self):
        with pytest.raises(InputError):
            construct_onefourth(1)


class TestSmallNamedColorings:
    def test_k5star(self):
        col = construct_k5star()
        assert col.n == 5 and col.t == 2
        single_colors(col)
        for c in (1, 2):
            g = col.color_graph(c)
            assert g.edge_count() == 5 and g.is_connected()
            assert all(g.adj[v].bit_count() == 2 for v in range(5))
            assert not is_chordal(g).is_chordal
        ok, _ = is_tk_coloring(col, 2)
        assert ok

    def test_k4_two_paths(self):
        col = construct_k4_two_paths()
        assert col.n == 4 and col.t == 2
        single_colors(col)
        for c in (1, 2):
            g = col.color_graph(c)
            assert g.edge_count() == 3 and g.is_connected()
            assert sorted(g.adj[v].bit_count() for v in range(4)) == [1, 1, 2, 2]
            rows = oracles.color_adjacency(col)[c - 1]
            assert len(oracles.max_clique(4, rows)) == 2

    def test_k8_three_coloring(self):
        col = construct_k8_c4free_3col()
        assert col.n == 8 and col.t == 3
        single_colors(col)
        assert len(col.edge_colors) == 28
        counts = []
        for c in (1, 2, 3):
            g = col.color_graph(c)
            counts.append(g.edge_count())
            ok, _ = induced_c4_free(g)
            assert ok, f"color {c} has an induced 4-cycle"
            for u, v in g.edges():
                assert not (g.adj[u] & g.adj[v]), f"triangle in color {c}"
            rows = oracles.color_adjacency(col)[c - 1]
            assert len(oracles.max_clique(8, rows)) == 2
        assert sorted(counts) == [9, 9, 10]


class TestPartitionColoring:
    @pytest.mark.parametrize("n,t", [(6, 2), (7, 3), (9, 3), (5, 5), (4, 1)])
    def test_edge_colors_follow_parts(self, n, t):
        fam = construct_partition_coloring(n, t)
        col = coloring_from_intervals(fam)
        single_colors(col)
        base, extra = divmod(n, t)
        part_of = []
        for i in range(t):
            part_of.extend([i] * (base + (1 if i < extra else 0)))
        for u in range(n):
            for v in range(u + 1, n):
                want = 1 + min(part_of[u], part_of[v])
                assert col.colors_of(u, v) == frozenset({want})

    @pytest.mark.parametrize("n,t", [(6, 2), (7, 3), (9, 3), (10, 4)])
    def test_clique_number_stays_low(self, n, t):
        col = coloring_from_intervals(construct_partition_coloring(n, t))
        cap = -(-n // t) + 1
        rows = oracles.color_adjacency(col)
        for c in range(1, t + 1):
            assert len(oracles.max_clique(n, rows[c - 1])) <= cap
            assert is_chordal(col.color_graph(c)).is_chordal

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            construct_partition_coloring(3, 4)
        with pytest.raises(InputError):
            construct_partition_coloring(0, 1)


class TestBlowup:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            blow_up(construct_k5star(), BlowupSpec([1, 1, 1]))
        with pytest.raises(InputError):
            blow_up(construct_k5star(), BlowupSpec([1, 1, 0, 1, 1]))

    def test_unit_sizes_are_identity(self):
        col = construct_k5star()
        same = blow_up(col, BlowupSpec([1] * 5))
        assert same.n == col.n and same.edge_colors == col.edge_colors
        assert clique_substitute(col, 3, 1).edge_colors == col.edge_colors

    def test_twins_agree_outside_and_join_inside(self):
        col = blow_up(construct_k5star(), BlowupSpec([2, 1, 1, 1, 1]))
        assert col.n == 6
        assert col.colors_of(0, 1) == frozenset({1, 2})
        for w in range(2, 6):
            assert col.colors_of(0, w) == col.colors_of(1, w)

    def test_preserves_tk(self):
        base = construct_k5star()
        ok, _ = is_tk_coloring(base, 2)
        assert ok
        grown = blow_up(base, BlowupSpec([3, 1, 2, 1, 2]))
        ok, _ = is_tk_coloring(grown, 2)
        assert ok

    def test_substitute_bounds_checked(self):
        col = construct_k5star()
        with pytest.raises(InputError):
            clique_substitute(col, 5, 2)
        with pytest.raises(InputError):
            clique_substitute(col, 0, 0)

    def test_substitute_known_value(self):
        col = clique_substitute(construct_k5star(), 0, 2)
        assert col.n == 6
        assert exact_max_strong_cover(col).covered() == 5


class TestRandomGenerators:
    def test_interval_family_anchored_guarantee(self):
        for seed in range(6):
            fam, ok = random_interval_family(7, 3, seed, anchor=1.0, k=4)
            assert ok
            fam.validate()
            assert is_kwise_intersecting(fam, 4)

    def test_interval_family_reports_failure_honestly(self):
        fam, ok = random_interval_family(9, 2, 12345, anchor=0.0, k=9)
        fam.validate()
        if not ok:
            assert not is_kwise_intersecting(fam, 9)

    def test_interval_family_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            random_interval_family(0, 2, 1)
        with pytest.raises(InputError):
            random_interval_family(4, 2, 1, anchor=1.5)

    def test_subtree_family_anchored_guarantee(self):
        for seed in range(4):
            fam, ok = random_subtree_family(
                6, 2, seed, host_size=7, anchor=1.0, k=3
            )
            assert ok
            fam.validate()
            col = coloring_from_subtrees(fam)
            good, _ = is_tk_coloring(col, 3)
            assert good

    def test_subtree_family_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            random_subtree_family(3, 1, 0, host_size=0)
        with pytest.raises(InputError):
            random_subtree_family(3, 1, 0, host_size=4, max_size=0)
        for anchor in (2.0, -1.0, float("nan")):
            with pytest.raises(InputError, match="anchor fraction"):
                random_subtree_family(3, 1, 0, host_size=4, anchor=anchor)

    def test_full_anchor_gives_high_kfold(self):
        fam, _ = random_interval_family(5, 2, 9, anchor=1.0)
        col = coloring_from_intervals(fam)
        assert kfold_min_colors(col) >= 1


def intervals_meet(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def subtrees_meet(a, b):
    return not a.isdisjoint(b)


class TestRandomStream:
    """The draws behind ``random_*_family`` consume the random stream of the
    reference loops in ``oracles``: the same family, verdict and coloring
    for every argument set, exhausted budgets included."""

    def test_below_is_randrange(self):
        for m in range(1, 201):
            ours, theirs = random.Random(m), random.Random(m)
            seq = list(range(m))
            for _ in range(5):
                assert _below(ours.getrandbits, m) == theirs.randrange(m)
                assert 3 + _below(ours.getrandbits, m) == theirs.randint(3, m + 2)
                assert seq[_below(ours.getrandbits, m)] == theirs.choice(seq)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 47])
    def test_interval_draws(self, n):
        outcomes = set()
        for t, k, anchor, seed in itertools.product(
            range(1, 5), (None, 2, 3), (0.0, 0.5, 0.85, 1.0), range(6)
        ):
            if k is not None and k > n:
                with pytest.raises(InputError):
                    _draw_intervals(n, t, seed, anchor, k)
                continue

            def accepts(members):
                col = coloring_from_intervals(TIntervalFamily(t, members))
                return is_tk_coloring(col, k)[0]

            members, ok = oracles.reference_interval_draw(
                n, t, seed, anchor, k, accepts
            )
            fam, got_ok, col, peos = _draw_intervals(n, t, seed, anchor, k)
            assert (fam.t, fam.members, got_ok) == (t, members, ok)
            if k is None:
                assert col is None and peos is None
                continue
            outcomes.add(ok)
            assert col.rows == oracles.family_color_adjacency(
                members, t, intervals_meet
            )
            assert peos == family_peos(fam)
        if n >= 10:
            assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 47])
    def test_subtree_draws(self, n):
        outcomes = set()
        for t, k, anchor, seed, (host_size, max_size) in itertools.product(
            range(1, 5),
            (None, 2, 3),
            (0.0, 0.5, 0.85, 1.0),
            range(6),
            ((1, 1), (2, None), (6, 4), (9, 3)),
        ):
            args = (n, t, seed, host_size, max_size, anchor, k)
            if k is not None and k > n:
                with pytest.raises(InputError):
                    _draw_subtrees(*args)
                continue

            def accepts(host_edges, members):
                fam = TSubtreeFamily(host_edges, t, members)
                return is_tk_coloring(coloring_from_subtrees(fam), k)[0]

            host_edges, members, ok = oracles.reference_subtree_draw(*args, accepts)
            fam, got_ok, col, peos = _draw_subtrees(*args)
            assert (fam.host_edges, fam.t, fam.members, got_ok) == (
                host_edges, t, members, ok
            )
            if k is None:
                assert col is None and peos is None
                continue
            outcomes.add(ok)
            assert col.rows == oracles.family_color_adjacency(
                members, t, subtrees_meet
            )
            assert peos == family_peos(fam)
        if n >= 10:
            assert outcomes == {True, False}


def test_all_cross_pairs_once_matches_pair_count():
    # the onefourth family colors every pair exactly once, so the sum of
    # per-color edge counts must be n choose 2
    for t in (2, 3, 4):
        col = coloring_from_intervals(construct_onefourth(t))
        n = col.n
        total = sum(
            col.color_graph(c).edge_count() for c in range(1, t + 1)
        )
        assert total == n * (n - 1) // 2
        assert len(list(itertools.combinations(range(n), 2))) == total
