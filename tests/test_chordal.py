"""Elimination orderings, hole certificates, cliques, cutsets, edge bounds."""

import random
from itertools import combinations

import pytest

import oracles
from strongcover.chordal import (
    chordal_edge_bound_check,
    clique_cutset,
    greedy_color_chordal,
    induced_c4_free,
    is_chordal,
    max_clique_chordal,
    maximal_cliques_chordal,
    mcs_order,
)
from strongcover.constructions import random_interval_family, random_subtree_family
from strongcover.core import coloring_from_intervals, coloring_from_subtrees
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
        for seed in range(80):
            g = random_chordal(seed)
            peo = is_chordal(g).peo
            got = [tuple(sorted(c)) for c in maximal_cliques_chordal(g, peo)]
            assert got == oracles.maximal_cliques(g.n, g.adj)

    def test_rejects_non_peo(self):
        g = cycle(4)
        with pytest.raises((InputError, PreconditionError)):
            max_clique_chordal(g, [0, 1, 2, 3])

    def test_greedy_coloring_uses_omega_classes(self):
        for seed in range(60):
            g = random_chordal(seed)
            if g.n == 0:
                continue
            peo = is_chordal(g).peo
            classes = greedy_color_chordal(g, peo)
            omega = len(oracles.max_clique(g.n, g.adj))
            assert len(classes) == omega
            union = set()
            for cls in classes:
                assert not union & cls
                union |= cls
                for a, b in combinations(sorted(cls), 2):
                    assert not g.has_edge(a, b)
            assert union == set(range(g.n))


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


class TestBucketedSearch:
    def test_mcs_matches_definition(self):
        for seed in range(60):
            g = random_chordal(seed) if seed % 2 else random_graph(seed)
            assert mcs_order(g) == oracles.mcs_order(g.n, g.adj)

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
