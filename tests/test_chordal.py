"""Elimination orderings, hole certificates, cliques, cutsets, edge bounds."""

import random
from itertools import combinations

import pytest

import oracles
from strongcover import chordal
from strongcover.chordal import (
    chordal_edge_bound_check,
    clique_cutset,
    induced_c4_free,
    is_chordal,
    max_clique_chordal,
    maximal_cliques_chordal,
    mcs_order,
)
from strongcover.constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
    construct_k5star,
    random_interval_family,
    random_subtree_family,
)
from strongcover.core import (
    MultiColoring,
    coloring_from_intervals,
    coloring_from_subtrees,
    family_peos,
)
from strongcover.covers import greedy_strong_cover, strong_cover_33, strong_cover_tt
from strongcover.errors import InputError, PreconditionError
from strongcover.graphs import Graph, mask_of


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_chordal(seed, max_n=11):
    """Interval or subtree intersection graph, chordal by construction."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    if seed % 2 == 0:
        fam, _ = random_interval_family(n, 1, seed)
        return coloring_from_intervals(fam).color_graph(1)
    fam, _ = random_subtree_family(n, 1, seed, host_size=rng.randint(1, 7))
    return coloring_from_subtrees(fam).color_graph(1)


def random_graph(seed, max_n=9):
    rng = random.Random(seed)
    n = rng.randint(0, max_n)
    g = Graph(n)
    p = rng.choice((0.25, 0.5, 0.75))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def perturbed_family_graph(seed, max_n=40):
    """Interval (even seed) or subtree (odd seed) graph on 4..max_n vertices
    with one to four vertex pairs toggled, so mostly not chordal."""
    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    if seed % 2 == 0:
        fam, _ = random_interval_family(n, 1, seed)
        g = coloring_from_intervals(fam).color_graph(1)
    else:
        fam, _ = random_subtree_family(n, 1, seed, host_size=rng.randint(2, 12))
        g = coloring_from_subtrees(fam).color_graph(1)
    for _ in range(rng.randint(1, 4)):
        u, v = rng.sample(range(n), 2)
        g.adj[u] ^= 1 << v
        g.adj[v] ^= 1 << u
    return g


def all_graphs(max_n):
    """Every labeled graph on 0..max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for m in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if m >> i & 1])


def assert_genuine_certificate(g, cert):
    """A PEO must be a perfect elimination ordering and a hole an induced
    chordless cycle of length >= 4."""
    if cert.is_chordal:
        pos = {v: i for i, v in enumerate(cert.peo)}
        assert sorted(pos) == list(range(g.n))
        for v in cert.peo:
            later = [u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v]]
            for a, b in combinations(later, 2):
                assert g.has_edge(a, b)
        return
    hole = cert.hole
    assert len(hole) >= 4 and len(set(hole)) == len(hole)
    m = len(hole)
    for i, u in enumerate(hole):
        for j in range(i + 1, m):
            v = hole[j]
            expected = j - i == 1 or (i == 0 and j == m - 1)
            assert g.has_edge(u, v) == expected, (hole, u, v)


class TestMcsAndChordality:
    def test_mcs_visits_every_vertex_once(self):
        g = random_chordal(3)
        order = mcs_order(g)
        assert sorted(order) == list(range(g.n))

    def test_mcs_tie_breaks_to_smallest_index(self):
        g = Graph(3)  # no edges: all weights stay zero
        assert mcs_order(g) == [0, 1, 2]

    def test_known_chordal_graphs(self):
        for g in (complete(5), Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(0), Graph(1)):
            cert = is_chordal(g)
            assert cert.is_chordal and cert.hole is None
            assert sorted(cert.peo) == list(range(g.n))

    def test_cycles_are_holes(self):
        for n in (4, 5, 6, 7):
            cert = is_chordal(cycle(n))
            assert not cert.is_chordal
            assert cert.peo is None
            assert len(cert.hole) >= 4

    def test_agrees_with_subset_oracle(self):
        graphs = [random_graph(seed) for seed in range(120)]
        graphs += all_graphs(6)
        graphs += (perturbed_family_graph(seed, max_n=12) for seed in range(100))
        holes = 0
        for g in graphs:
            cert = is_chordal(g)
            assert cert.is_chordal == (oracles.first_hole(g.n, g.adj) is None)
            assert_genuine_certificate(g, cert)
            holes += not cert.is_chordal
        assert holes > 14819  # the non-chordal labeled graphs on <= 6 vertices

    def test_hole_certificates_are_genuine(self):
        """A returned hole must induce a chordless cycle of length >= 4."""
        found = 0
        graphs = [random_graph(seed) for seed in range(200)]
        graphs += (perturbed_family_graph(seed) for seed in range(400))
        for g in graphs:
            cert = is_chordal(g)
            if cert.is_chordal:
                continue
            found += 1
            assert_genuine_certificate(g, cert)
        assert found > 300

    def test_peo_certificates_are_genuine(self):
        for seed in range(60):
            g = random_chordal(seed)
            cert = is_chordal(g)
            assert cert.is_chordal
            assert_genuine_certificate(g, cert)


class TestCliques:
    def test_max_clique_matches_oracle(self):
        for seed in range(80):
            g = random_chordal(seed)
            peo = is_chordal(g).peo
            got = max_clique_chordal(g, peo)
            want = oracles.max_clique(g.n, g.adj)
            assert len(got) == len(want)
            assert tuple(sorted(got)) == want  # lex-least maximum

    def test_maximal_cliques_match_oracle(self):
        """On the search's PEO and the family's own, and on disjoint unions
        with the two PEOs interleaved."""
        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(1, 11)
            if seed % 2 == 0:
                fam, _ = random_interval_family(n, 1, seed)
                g = coloring_from_intervals(fam).color_graph(1)
            else:
                fam, _ = random_subtree_family(n, 1, seed, host_size=rng.randint(1, 7))
                g = coloring_from_subtrees(fam).color_graph(1)
            h = random_chordal(seed + 1000, max_n=6)
            union = Graph(g.n + h.n)
            union.adj = g.adj + [row << g.n for row in h.adj]
            left, right = list(is_chordal(g).peo), [v + g.n for v in is_chordal(h).peo]
            merged = []
            while left or right:
                side = left if not right or left and rng.random() < 0.5 else right
                merged.append(side.pop(0))
            for graph, peo in (
                (g, is_chordal(g).peo), (g, family_peos(fam)[0]), (union, merged)
            ):
                got = [tuple(sorted(c)) for c in maximal_cliques_chordal(graph, peo)]
                assert got == oracles.maximal_cliques(graph.n, graph.adj)

    def test_rejects_non_peo(self):
        g = cycle(4)
        with pytest.raises((InputError, PreconditionError)):
            max_clique_chordal(g, [0, 1, 2, 3])

    @pytest.mark.parametrize(
        "call", [max_clique_chordal, maximal_cliques_chordal, clique_cutset]
    )
    @pytest.mark.parametrize("order", [
        [True, 0, 2, 3, 4, 5],  # equal to [1, 0, 2, ...] but a bool
        [0, 1, 2, 3, 4, 5.0],  # sorts as a permutation, then fails in ``<<``
        [0.0, 1, 2, 3, 4, 5],
        None,
        3.5,
        "012345",
        iter(range(6)),  # one pass: a permutation test reading it leaves the PEO test none
        {0, 1, 2, 3, 4, 5},
        [0, 1, 2, 3, 4, "5"],
        [0, 1, 2, 3, 4],
    ])
    def test_orderings_that_are_not_lists_of_plain_ints(self, call, order):
        path = Graph(6, [(i, i + 1) for i in range(5)])
        with pytest.raises(
            InputError, match="^ordering is not a permutation of the vertices$"
        ):
            call(path, order)
        for taken in ([5, 4, 3, 2, 1, 0], (0, 1, 2, 3, 4, 5), range(6)):
            call(path, taken)


class TestCliqueCutset:
    def test_path_graph_cutset(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = clique_cutset(g, is_chordal(g).peo)
        assert dec is not None
        assert dec.q == frozenset({1})
        assert {dec.a, dec.b} == {frozenset({0}), frozenset({2})}

    def test_complete_graph_has_none(self):
        g = complete(4)
        assert clique_cutset(g, is_chordal(g).peo) is None

    def test_invariants_on_random_chordal(self):
        found = 0
        for seed in range(120):
            g = random_chordal(seed)
            if g.n == 0 or not g.is_connected():
                continue
            dec = clique_cutset(g, is_chordal(g).peo)
            if dec is None:
                # only complete graphs may lack a clique cutset
                assert g.edge_count() == g.n * (g.n - 1) // 2
                continue
            found += 1
            assert dec.a and dec.b
            assert not dec.a & dec.q and not dec.b & dec.q and not dec.a & dec.b
            assert dec.a | dec.q | dec.b == frozenset(range(g.n))
            assert g.is_clique(mask_of(dec.q))
            for u in dec.a:
                for v in dec.b:
                    assert not g.has_edge(u, v)
        assert found > 20

    def test_requires_connected_input(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            clique_cutset(g, is_chordal(g).peo)

    def test_split_equals_the_built_clique_tree(self):
        """(A, Q, B) is the explicit clique tree's split on every connected
        interval (even seed) or subtree (odd seed) graph drawn, n <= 16.
        Some A are unions of several components of G - Q, which the tree
        edges other than the first put on one side."""
        graphs = split = 0
        for seed in range(2600):
            rng = random.Random(seed)
            n = rng.randint(2, 16)
            if seed % 2 == 0:
                fam, _ = random_interval_family(n, 1, seed)
                g = coloring_from_intervals(fam).color_graph(1)
            else:
                h = rng.randint(2, 12)
                fam, _ = random_subtree_family(
                    n, 1, seed, host_size=h, max_size=min(h, rng.randint(2, 5))
                )
                g = coloring_from_subtrees(fam).color_graph(1)
            if not g.is_connected():
                continue
            graphs += 1
            dec = clique_cutset(g, is_chordal(g).peo)
            expected = oracles.clique_cutset_by_tree(g.n, g.adj)
            assert (dec and tuple(dec)) == expected, seed
            if dec:
                a = mask_of(dec.a)
                rest = Graph(g.n)
                rest.adj = [row & a for row in g.adj]
                split += rest.component_mask(min(dec.a)) != a
        assert graphs >= 1000 and split >= 100


class TestC4Free:
    def test_matches_oracle(self):
        for seed in range(120):
            g = random_graph(seed)
            ok, witness = induced_c4_free(g)
            expect = oracles.first_induced_c4(g.n, g.adj)
            assert ok == (expect is None)
            if not ok:
                assert tuple(sorted(witness)) == expect

    def test_c5_is_c4_free(self):
        ok, _ = induced_c4_free(cycle(5))
        assert ok
        ok, witness = induced_c4_free(cycle(4))
        assert not ok and witness == (0, 1, 2, 3)


class TestEdgeBound:
    def test_reports_on_random_chordal(self):
        for seed in range(120):
            g = random_chordal(seed)
            report = chordal_edge_bound_check(g)
            assert report.ok
            assert report.edges == g.edge_count()
            omega = len(oracles.max_clique(g.n, g.adj))
            assert report.omega == omega
            assert report.edges <= report.bound_quadratic
            assert report.edges <= report.bound_linear

    def test_bound_values(self):
        g = complete(4)
        report = chordal_edge_bound_check(g)
        # (omega-1) n - C(omega, 2) = 3*4 - 6 = 6 and omega (n-1) = 12
        assert report.edges == 6
        assert report.bound_quadratic == 6
        assert report.bound_linear == 12

    def test_rejects_non_chordal(self):
        with pytest.raises(InputError):
            chordal_edge_bound_check(cycle(5))


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def twin_rich_graphs(rng):
    """Graphs on at most 40 vertices whose vertices share MCS weights in
    large classes: a complete graph, both colors of a K5* blow-up, a
    clique substitution into a random graph, a complete multipartite graph
    and a random graph with planted true and false twin classes."""
    yield complete(rng.randint(1, 40))
    col = blow_up(construct_k5star(), BlowupSpec([rng.randint(1, 8) for _ in range(5)]))
    yield col.color_graph(1)
    yield col.color_graph(2)
    base = random_graph(rng.randrange(1000))
    if base.n:
        one = MultiColoring(base.n, 1)
        one.rows[0] = list(base.adj)
        v = rng.randrange(base.n)
        yield clique_substitute(one, v, rng.randint(2, 40 - base.n)).color_graph(1)
    parts = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
    label = [p for p, size in enumerate(parts) for _ in range(size)]
    yield Graph(len(label), [
        (u, v) for u, v in combinations(range(len(label)), 2) if label[u] != label[v]
    ])
    classes = random_graph(rng.randrange(1000), max_n=8)
    label = [c for c in range(classes.n) for _ in range(rng.randint(1, 5))]
    true_twins = [rng.random() < 0.5 for _ in range(classes.n)]
    yield Graph(len(label), [
        (u, v) for u, v in combinations(range(len(label)), 2)
        if (true_twins[label[u]] if label[u] == label[v]
            else classes.has_edge(label[u], label[v]))
    ])


class TestBucketedSearch:
    def test_mcs_matches_definition(self):
        for seed in range(60):
            g = random_chordal(seed) if seed % 2 else random_graph(seed)
            assert mcs_order(g) == oracles.mcs_order(g.n, g.adj)

    def test_mcs_matches_definition_on_twin_classes(self):
        """Where many unvisited neighbors of a visit share its bucket, so
        the walk down the buckets stops early: complete graphs, blow-ups,
        clique substitutions, multipartite graphs and planted twins, each
        also relabeled at random."""
        rng = random.Random(26)
        for _ in range(20):
            for g in twin_rich_graphs(rng):
                assert g.n <= 40
                for h in (g, relabeled(g, rng)):
                    assert mcs_order(h) == oracles.mcs_order(h.n, h.adj)

    def test_peo_check_matches_definition(self):
        from strongcover.chordal import _check_peo

        rng = random.Random(12)
        for seed in range(80):
            g = random_chordal(seed) if seed % 2 else random_graph(seed)
            orders = [mcs_order(g)[::-1], list(range(g.n))]
            for _ in range(3):
                order = list(range(g.n))
                rng.shuffle(order)
                orders.append(order)
            for order in orders:
                assert (_check_peo(g, order) is None) == oracles.is_peo(g.adj, order)


def non_chordal_coloring(seed):
    """A coloring on 5..9 vertices with one complete color, so a
    (t,t)-coloring, and random other colors, at least one not chordal."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(5, 9)
        t = rng.randint(2, 4)
        full = rng.randint(1, t)
        edges = [
            (u, v, [c for c in range(1, t + 1) if c == full or rng.random() < 0.5])
            for u, v in combinations(range(n), 2)
        ]
        col = MultiColoring.from_edges(n, t, edges)
        if any(oracles.first_hole(n, row) for row in col.rows):
            return col


class TestCertificates:
    """A certificate searches once, builds its hole on the first read of
    ``hole`` from what the search saw, and keeps it."""

    def test_hole_ignores_edits_after_the_search(self):
        checked = 0
        for seed in range(60):
            g = perturbed_family_graph(seed, max_n=20)
            before = g.copy()
            cert = is_chordal(g)
            if cert.is_chordal:
                continue
            want = is_chordal(before).hole
            rng = random.Random(seed)
            a, b = want[0], want[2]  # a chord of the hole
            g.adj[a] ^= 1 << b
            g.adj[b] ^= 1 << a
            for _ in range(3):
                u, v = rng.sample(range(g.n), 2)
                g.adj[u] ^= 1 << v
                g.adj[v] ^= 1 << u
            assert cert.hole == want
            assert oracles.is_hole(before.adj, cert.hole)
            checked += 1
        assert checked > 20

    def test_hole_is_built_once_and_only_when_read(self, monkeypatch):
        built = []
        real = chordal._hole_from_triple

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(chordal, "_hole_from_triple", counted)
        cert = is_chordal(cycle(7))
        assert not cert.is_chordal and built == []
        first = cert.hole
        assert cert.hole is first and len(built) == 1
        assert oracles.is_hole(cycle(7).adj, first)

    @pytest.mark.parametrize(
        "cover", [greedy_strong_cover, strong_cover_33, strong_cover_tt]
    )
    def test_precondition_witness_is_the_first_hole(self, cover, monkeypatch):
        searched = []
        real = chordal.mcs_order

        def counted(g):
            searched.append(g.n)
            return real(g)

        monkeypatch.setattr(chordal, "mcs_order", counted)
        checked = 0
        for seed in range(40):
            col = non_chordal_coloring(seed)
            if cover is strong_cover_33 and col.t != 3:
                continue
            checked += 1
            first = next(
                i for i, row in enumerate(col.rows, start=1)
                if oracles.first_hole(col.n, row)
            )
            searched.clear()
            with pytest.raises(PreconditionError) as err:
                cover(col)
            assert searched == [col.n] * first
            i, hole = err.value.witness
            assert (i, hole) == (first, is_chordal(col.color_graph(first)).hole)
            assert oracles.is_hole(col.rows[first - 1], hole)
        assert checked >= 10
