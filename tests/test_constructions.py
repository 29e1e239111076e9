"""Structural checks for the named constructions and random generators."""

import itertools
import math
import random

import pytest

import oracles
from strongcover import constructions, corpus
from strongcover.chordal import induced_c4_free, is_chordal
from strongcover.constructions import (
    BlowupSpec,
    _below,
    _draw_intervals,
    _draw_subtrees,
    _endpoint_witness,
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
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    _interval_coloring,
    _right_end_order,
    _subtree_coloring,
    coloring_from_intervals,
    coloring_from_subtrees,
    family_peos,
    is_kwise_intersecting,
    is_tk_coloring,
    kfold_min_colors,
)
from strongcover.covers import exact_max_strong_cover
from strongcover.errors import GuaranteeError, InputError
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


class TestPlainIntSizes:
    """The draws and the sized constructions take their sizes as plain
    ints, as the family constructors and ``from_dict`` do."""

    CALLS = [
        ("n", lambda v: random_interval_family(v, 2, 0)),
        ("t", lambda v: random_interval_family(3, v, 0)),
        ("n", lambda v: random_subtree_family(v, 2, 0)),
        ("t", lambda v: random_subtree_family(3, v, 0)),
        ("host_size", lambda v: random_subtree_family(3, 2, 0, host_size=v)),
        ("max_size", lambda v: random_subtree_family(3, 2, 0, max_size=v)),
        ("t", construct_onefourth),
        ("n", lambda v: construct_partition_coloring(v, 1)),
        ("t", lambda v: construct_partition_coloring(4, v)),
        ("seed", lambda v: random_interval_family(3, 2, v)),
        ("seed", lambda v: random_subtree_family(3, 2, v)),
        ("m", hamilton_decomposition_bipartite),
        ("t", hamilton_paths_for_construction),
    ]

    @pytest.mark.parametrize("key, call", CALLS)
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_other_sizes_are_input_errors(self, key, call, value):
        if key == "max_size" and value is None:  # the default: host_size
            assert call(None) == call(8)
            return
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == f"{key} must be int, got {value!r}"

    K_CALLS = [
        lambda k: is_tk_coloring(coloring_from_intervals(construct_onefourth(4)), k),
        lambda k: random_interval_family(5, 2, 0, k=k),
        lambda k: random_subtree_family(5, 2, 0, k=k),
    ]

    K_IDS = ["is_tk_coloring", "interval_draw", "subtree_draw"]

    @pytest.mark.parametrize("call", K_CALLS, ids=K_IDS)
    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3"])
    def test_other_k_are_input_errors(self, call, value):
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == f"k must be int, got {value!r}"

    @pytest.mark.parametrize("call, n", zip(K_CALLS, (11, 5, 5)), ids=K_IDS)
    @pytest.mark.parametrize("k", [1, 12])
    def test_int_k_outside_two_to_n_keeps_its_message(self, call, n, k):
        with pytest.raises(InputError) as info:
            call(k)
        assert str(info.value) == f"need 2 <= k <= n, got k={k}, n={n}"

    @pytest.mark.parametrize("draw", [random_interval_family, random_subtree_family])
    def test_drawn_family_round_trips(self, draw):
        fam, _ok = draw(5, 3, 0, k=2)
        again = type(fam).from_dict(fam.to_dict())
        assert type(again.t) is int and again.to_dict() == fam.to_dict()


class TestAnchorArgument:
    """The draws take ``anchor`` as an int or float, not a bool: any other
    value is an InputError, not a TypeError from the range test nor taken
    as the number it equals."""

    DRAWS = [random_interval_family, random_subtree_family]

    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize("value", ["x", None, True, False, [0.5]])
    def test_other_anchors_are_input_errors(self, draw, value):
        with pytest.raises(InputError) as info:
            draw(5, 2, 0, anchor=value)
        assert str(info.value) == f"anchor fraction must be a number, got {value!r}"

    @pytest.mark.parametrize("draw", DRAWS)
    def test_int_anchors_are_the_floats_they_equal(self, draw):
        for anchor in (0, 1):
            assert draw(5, 2, 0, anchor=anchor) == draw(5, 2, 0, anchor=float(anchor))
        with pytest.raises(InputError, match=r"^anchor fraction must be in \[0,1\], got 2$"):
            draw(5, 2, 0, anchor=2)


def intervals_meet(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def subtrees_meet(a, b):
    return not a.isdisjoint(b)


def interval_accepts(t, k):
    """The reference interval draw's verdict: the (t,k) check on the
    coloring swept straight from its member lists."""

    def accepts(members):
        los = [[tracks[i][0] for tracks in members] for i in range(t)]
        his = [[tracks[i][1] for tracks in members] for i in range(t)]
        col = _interval_coloring(los, his, list(map(_right_end_order, his)))
        return is_tk_coloring(col, k)[0]

    return accepts


def subtree_accepts(host_size, t, k):
    """The reference subtree draw's verdict, as ``interval_accepts``."""

    def accepts(_host_edges, members):
        col = _subtree_coloring(
            host_size, [[tracks[i] for tracks in members] for i in range(t)]
        )
        return is_tk_coloring(col, k)[0]

    return accepts


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
            members, ok = oracles.reference_interval_draw(
                n, t, seed, anchor, k, interval_accepts(t, k)
            )
            fam, got_ok, col = _draw_intervals(n, t, seed, anchor, k)
            assert (fam.t, fam.members, got_ok) == (t, tuple(map(tuple, members)), ok)
            if k is None:
                assert col is None
                continue
            outcomes.add(ok)
            assert col.rows == oracles.family_color_adjacency(
                members, t, intervals_meet
            )
            assert [list(order) for order in col._peos()] == family_peos(fam)
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
            host_edges, members, ok = oracles.reference_subtree_draw(
                *args, subtree_accepts(host_size, t, k)
            )
            fam, got_ok, col = _draw_subtrees(*args)
            assert (fam.host_edges, fam.t, fam.members, got_ok) == (
                tuple(host_edges), t, tuple(map(tuple, members)), ok
            )
            if k is None:
                assert col is None
                continue
            outcomes.add(ok)
            assert col.rows == oracles.family_color_adjacency(
                members, t, subtrees_meet
            )
            assert [list(order) for order in col._peos()] == family_peos(fam)
        if n >= 10:
            assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [21, 31, 63])
    def test_interval_draws_at_width_boundaries(self, n):
        """The member picks written in place draw as ``randint`` where the
        span 3n+1 (n = 21) or the reach n+1 (n = 31, 63) is a power of
        two, so half of the widest draws are redrawn."""
        for t, k, anchor, seed in itertools.product(
            (1, 2), (None, 3), (0.0, 0.85), range(2)
        ):
            members, ok = oracles.reference_interval_draw(
                n, t, seed, anchor, k, interval_accepts(t, k)
            )
            fam, got_ok, _col = _draw_intervals(n, t, seed, anchor, k)
            assert (fam.members, got_ok) == (tuple(map(tuple, members)), ok)

    @pytest.mark.parametrize(
        "n, anchor, pooled",
        [(21, 0.2, True), (22, 0.2, False), (40, 0.1, False), (90, 0.2, False)],
    )
    def test_interval_draws_on_either_sample_branch(self, n, anchor, pooled):
        """A draw picks its anchored members as ``sample`` does, written in
        place: from a pool while n is at most CPython's ``setsize`` for the
        pick count (n = 21 is the last such n for 4 picks), else against a
        set of the picks, redrawing repeats (few picks of many members)."""
        picks = round(anchor * n)
        setsize = 21 + (4 ** math.ceil(math.log(picks * 3, 4)) if picks > 5 else 0)
        assert (n <= setsize) is pooled
        for t, k, seed in itertools.product((1, 3), (None, 2), range(3)):
            members, ok = oracles.reference_interval_draw(
                n, t, seed, anchor, k, interval_accepts(t, k)
            )
            fam, got_ok, _col = _draw_intervals(n, t, seed, anchor, k)
            assert (fam.members, got_ok) == (tuple(map(tuple, members)), ok)

    @pytest.mark.parametrize("host_size, max_size", [(8, 8), (16, 8), (16, 16)])
    def test_subtree_draws_at_width_boundaries(self, host_size, max_size):
        """The root and size picks written in place draw as ``randrange``
        and ``randint`` where the host size or the max size is a power of
        two."""
        for n, t, k, anchor, seed in itertools.product(
            (5, 21), (1, 2), (None, 3), (0.0, 0.85), range(2)
        ):
            args = (n, t, seed, host_size, max_size, anchor, k)
            host_edges, members, ok = oracles.reference_subtree_draw(
                *args, subtree_accepts(host_size, t, k)
            )
            fam, got_ok, _col = _draw_subtrees(*args)
            assert (fam.host_edges, fam.members, got_ok) == (
                tuple(host_edges), tuple(map(tuple, members)), ok
            )


class TestEndpointWitness:
    """A draw refused on an endpoint witness (``_endpoint_witness``) builds
    no coloring; every such refusal is one the brute-force oracles make
    too, and a used-up budget still returns its last draw's coloring."""

    def spy(self, monkeypatch, name):
        """One entry per call of ``constructions.<name>``: what it returned,
        or None while it has not returned."""
        results = []
        real = getattr(constructions, name)

        def spied(*args):
            results.append(None)
            results[-1] = real(*args)
            return results[-1]

        monkeypatch.setattr(constructions, name, spied)
        return results

    @pytest.mark.parametrize("kind", ["interval", "subtree"])
    def test_refusals_are_sound_and_used(self, kind, monkeypatch):
        witnessed = self.spy(monkeypatch, "_endpoint_witness")
        built = self.spy(monkeypatch, f"_{kind}_coloring")
        kept = []
        keep = MultiColoring._keep_peos
        monkeypatch.setattr(
            MultiColoring,
            "_keep_peos",
            lambda col, orders: kept.append(col) or keep(col, orders),
        )
        refusals = rebuilt = swept_refusals = 0
        for n, t, k, anchor, seed in itertools.product(
            (3, 6, 12), range(1, 5), (2, 3), (0.0, 0.5, 0.85, 1.0), range(3)
        ):
            draws = []
            if kind == "interval":

                def accepts(members):
                    draws.append(members)
                    col = coloring_from_intervals(TIntervalFamily(t, members))
                    return is_tk_coloring(col, k)[0]

                def refused(members):
                    return not oracles.kwise_intersecting(TIntervalFamily(t, members), k)

                members, ok = oracles.reference_interval_draw(
                    n, t, seed, anchor, k, accepts
                )
                kept.clear()  # the oracle's colorings keep orders too
                fam, got_ok, col = _draw_intervals(n, t, seed, anchor, k)
                meet = intervals_meet
            else:
                args = (n, t, seed, 6, 4, anchor, k)

                def accepts(host_edges, members):
                    draws.append((host_edges, members))
                    fam = TSubtreeFamily(host_edges, t, members)
                    return is_tk_coloring(coloring_from_subtrees(fam), k)[0]

                def refused(draw):
                    col = coloring_from_subtrees(TSubtreeFamily(draw[0], t, draw[1]))
                    return oracles.first_tk_violation(col, k) is not None

                _, members, ok = oracles.reference_subtree_draw(*args, accepts)
                kept.clear()
                fam, got_ok, col = _draw_subtrees(*args)
                meet = subtrees_meet
            assert (fam.members, got_ok) == (tuple(map(tuple, members)), ok)
            # only the returned coloring keeps its orders and a copy of its rows
            assert kept == [col]
            # the witness is tried once on every draw, and is sound
            assert len(witnessed) == len(draws)
            for hit, draw in zip(witnessed, draws):
                if hit:
                    assert refused(draw)
                    refusals += 1
            # a coloring for each swept draw, and for a last draw a witness
            # refused (after a swept draw, the case ``rebuilt`` counts)
            assert len(built) == witnessed.count(False) + witnessed[-1]
            if not ok and witnessed[-1] and not all(witnessed):
                rebuilt += 1
            assert col.rows == oracles.family_color_adjacency(
                members, t, meet
            )
            assert [list(order) for order in col._peos()] == family_peos(fam)
            swept_refusals += len(built) > 1
            witnessed.clear()
            built.clear()
        assert refusals > 0 and rebuilt > 0 and swept_refusals > 0

    @pytest.mark.parametrize("kind", ["interval", "subtree"])
    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_k_outside_its_range_raises_on_the_first_draw(
        self, kind, k, monkeypatch
    ):
        witnessed = self.spy(monkeypatch, "_endpoint_witness")
        scanned = self.spy(monkeypatch, "is_tk_coloring")
        with pytest.raises(InputError, match=rf"need 2 <= k <= n, got k={k}, n=5$"):
            if kind == "interval":
                _draw_intervals(5, 3, 1, 0.5, k)
            else:
                _draw_subtrees(5, 3, 1, 6, 4, 0.5, k)
        # no witness was tried, and the first draw's scan raised
        assert (witnessed, scanned) == ([], [None])


    @pytest.mark.parametrize("kind", ["interval", "subtree"])
    def test_matches_the_pointwise_oracle(self, kind):
        """``_endpoint_witness`` on pair masks (two intervals are disjoint
        when one's left end is above the other's right end, two subtrees
        when their vertex masks share no bit) agrees with
        ``oracles.endpoint_witness``, which reads each track point by point
        or host vertex by host vertex: t = 1..4 and k = 2..5, k < t
        included, with missers drawn per track so that members repeat
        across tracks."""
        rng = random.Random(29)
        found = {(small, hit): 0 for small in (False, True) for hit in (False, True)}
        for t, k, seed in itertools.product(range(1, 5), range(2, 6), range(20)):
            n = rng.randint(2, 7)
            anchor = rng.choice((0.0, 0.5))
            if kind == "interval":
                fam, _ = random_interval_family(n, t, seed, anchor=anchor)
                points = [
                    [set(range(lo, hi + 1)) for lo, hi in (m[i] for m in fam.members)]
                    for i in range(t)
                ]

                def apart(u, v, tracks=fam.members):
                    return sum(
                        1 << i
                        for i, ((lo_u, hi_u), (lo_v, hi_v))
                        in enumerate(zip(tracks[u], tracks[v]))
                        if lo_u > hi_v or lo_v > hi_u
                    )
            else:
                fam, _ = random_subtree_family(
                    n, t, seed, host_size=7, max_size=3, anchor=anchor
                )
                points = [[m[i] for m in fam.members] for i in range(t)]

                def apart(u, v, tracks=fam.members):
                    return sum(
                        1 << i
                        for i, (a, b) in enumerate(zip(tracks[u], tracks[v]))
                        if a.isdisjoint(b)
                    )

            missers = [
                sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(t)
            ]
            hit = _endpoint_witness(missers, apart, n, k)
            assert hit == oracles.endpoint_witness(missers, points, n, k)
            found[k < t, hit] += 1
        assert min(found.values()) > 0, found

    # (kind, n, t, k, seed) of a ``seeded_tk_instance``: its draws, the
    # draws an endpoint witness refused, and the (t,k) sweeps, over both of
    # its draw calls when the first used up its budget (seed 3 of the
    # n = 30 intervals); each count as the draws made before the pairwise
    # witness and the in-place sample
    PINNED = {
        ("interval", 10, 3, 3, 2): (21, 16, 5),
        ("interval", 20, 2, 2, 3): (13, 11, 2),
        ("interval", 30, 3, 3, 3): (41, 39, 2),
        ("subtree", 20, 2, 2, 4): (3, 2, 1),
        ("subtree", 30, 3, 3, 1): (6, 5, 1),
        ("subtree", 30, 3, 3, 2): (3, 1, 2),
    }

    @pytest.mark.parametrize("args, counts", PINNED.items())
    def test_refusal_counts_are_pinned(self, args, counts, monkeypatch):
        witnessed = self.spy(monkeypatch, "_endpoint_witness")
        scanned = self.spy(monkeypatch, "is_tk_coloring")
        corpus.seeded_tk_instance(*args)
        assert (len(witnessed), sum(witnessed), len(scanned)) == counts


@pytest.mark.parametrize("kind, draw", [
    ("interval", "_draw_intervals"), ("subtree", "_draw_subtrees"),
])
def test_a_fully_anchored_miss_is_a_guarantee_error(monkeypatch, kind, draw):
    """A seeded instance whose draw misses k-wise intersection is drawn again
    fully anchored; a miss there is a GuaranteeError naming the instance."""
    anchors = []

    def miss(*args):
        anchors.append(args[-2])
        return None, False, None

    monkeypatch.setattr(corpus, draw, miss)
    with pytest.raises(GuaranteeError) as info:
        corpus.seeded_tk_instance(kind, 8, 2, 2, 5)
    assert str(info.value) == f"fully anchored {kind} family failed k-wise intersection"
    assert info.value.instance == f"{kind}-n8-t2-k2-seed5"
    assert anchors == [0.85, 1.0]


def test_an_unknown_instance_kind_is_an_input_error():
    with pytest.raises(InputError) as info:
        corpus.seeded_tk_instance("path", 8, 2, 2, 5)
    assert str(info.value) == "unknown instance kind 'path'"


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
