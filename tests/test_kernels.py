"""Scan kernels against brute-force oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corpora import complete_coloring
from strongcover import BACKEND, _kernels as kernels
from strongcover.covers import _maximal_cliques
from strongcover._kernels import find_induced_c4, first_tk_violation, maximal_cliques
from strongcover.constructions import BlowupSpec, blow_up, construct_k5star
from strongcover.core import MultiColoring, is_tk_coloring


def random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@st.composite
def adjacency(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [0] * n
    for (u, v), f in zip(pairs, flags):
        if f:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return n, adj


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=adjacency())
def test_maximal_cliques_match_oracle(data):
    n, adj = data
    got = sorted(tuple(oracles_bits(m)) for m in maximal_cliques(n, adj))
    assert got == oracles.maximal_cliques(n, adj)


def oracles_bits(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def induced_oracle(adj, within):
    """``oracles.maximal_cliques`` of the subgraph induced on the mask
    ``within``, in the original labels."""
    keep = oracles_bits(within)
    sub = [0] * len(keep)
    for i, v in enumerate(keep):
        for j, w in enumerate(keep):
            if adj[v] >> w & 1:
                sub[i] |= 1 << j
    return [tuple(keep[i] for i in c) for c in oracles.maximal_cliques(len(keep), sub)]


def test_maximal_cliques_within_match_oracle_on_induced_subgraph():
    """``within`` restricts the enumeration to the induced subgraph and
    keeps the original labels."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 14)
        adj = random_adj(rng, n, rng.choice((0.2, 0.5, 0.8)))
        full = (1 << n) - 1
        for within in (0, full, rng.getrandbits(n) if n else 0):
            got = maximal_cliques(n, adj, within)
            got = sorted(tuple(oracles_bits(m)) for m in got)
            assert got == induced_oracle(adj, within), (n, adj, within)
        assert maximal_cliques(n, adj, full) == maximal_cliques(n, adj)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=adjacency())
def test_find_induced_c4_matches_oracle(data):
    n, adj = data
    assert find_induced_c4(n, adj) == oracles.first_induced_c4(n, adj)


def test_sorted_maximal_cliques_are_the_kernels_in_vertex_tuple_order():
    """``covers._maximal_cliques`` walks the lifts in vertex-tuple order; the
    order must be the kernel's output sorted by vertex tuple, ``within`` = 0
    and n = 0 included."""
    rng = random.Random(41)
    for trial in range(300):
        n = trial % 14
        adj = random_adj(rng, n, rng.choice((0.2, 0.5, 0.8)))
        within = rng.choice((-1, 0, rng.getrandbits(n)))
        want = sorted(
            maximal_cliques(n, adj, within), key=lambda m: tuple(oracles_bits(m))
        )
        assert _maximal_cliques(adj, within) == want


def test_find_induced_c4_matches_oracle_on_denser_graphs():
    """Up to 16 vertices, where graphs hold many witnesses and the first
    one must still be the lexicographically least."""
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        n = rng.randint(4, 16)
        adj = random_adj(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
        expected = oracles.first_induced_c4(n, adj)
        assert find_induced_c4(n, adj) == expected, (n, adj)
        found += expected is not None
    assert found > 100


def interval_adj(rng, n):
    ends = []
    for _ in range(n):
        lo = rng.randint(0, 3 * n)
        ends.append((lo, lo + rng.randint(0, n)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if max(ends[u][0], ends[v][0]) <= min(ends[u][1], ends[v][1]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def test_find_induced_c4_on_large_interval_graphs():
    """Interval graphs are chordal, so the full scan finds nothing; a C4
    appended as a separate component is then the first witness."""
    rng = random.Random(11)
    for n in (64, 65, 96):
        adj = interval_adj(rng, n)
        assert find_induced_c4(n, adj) is None
        adj += [0] * 4
        for i in range(4):
            u, v = n + i, n + (i + 1) % 4
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert find_induced_c4(n + 4, adj) == (n, n + 1, n + 2, n + 3)


def test_first_tk_violation_against_subset_scan():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 9)
        t = rng.randint(1, 4)
        k = rng.randint(2, n)
        color_adj = [random_adj(rng, n, rng.choice((0.3, 0.6, 0.9))) for _ in range(t)]
        expected = None
        from itertools import combinations

        for vs in combinations(range(n), k):
            mono = False
            for adj in color_adj:
                if all(adj[a] >> b & 1 for a, b in combinations(vs, 2)):
                    mono = True
                    break
            if not mono:
                expected = vs
                break
        assert first_tk_violation(n, k, color_adj) == expected


def test_first_tk_violation_edges():
    # k larger than n: nothing to violate
    assert first_tk_violation(3, 5, [[0, 0, 0]]) is None
    # no colors at all: the very first subset violates
    assert first_tk_violation(4, 2, []) == (0, 1)
    # complete single color: no violation
    full = [0b1110, 0b1101, 0b1011, 0b0111]
    assert first_tk_violation(4, 3, [full]) is None


def test_first_tk_violation_depth_is_not_bounded_by_recursion():
    assert is_tk_coloring(complete_coloring(1100, 1), 1100) == (True, None)
    # without the edge (1098, 1099) no vertex suffix longer than one is a
    # clique, so the scan walks about 1,099 levels down to the witness
    col = complete_coloring(1100, 1)
    col.rows[0][1098] ^= 1 << 1099
    col.rows[0][1099] ^= 1 << 1098
    assert is_tk_coloring(col, 1100) == (False, tuple(range(1100)))
    assert is_tk_coloring(col, 1099) == (False, tuple(range(1097)) + (1098, 1099))


def test_backend_name_is_reported():
    assert BACKEND == "pure"


def test_maximal_cliques_deterministic_order():
    # path 0-1-2-3: cliques are the three edges, discovered in ascending order
    adj = [0b0010, 0b0101, 0b1010, 0b0100]
    assert maximal_cliques(4, adj) == [0b0011, 0b0110, 0b1100]
    assert maximal_cliques(0, []) == []
    # isolated vertices are singleton maximal cliques
    assert maximal_cliques(2, [0, 0]) == [0b01, 0b10]


def test_pure_first_tk_violation_matches_oracle_for_every_k():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(2, 9)
        t = rng.randint(1, 4)
        col = MultiColoring(n, t)
        col.rows = [random_adj(rng, n, rng.choice((0.4, 0.7, 0.95))) for _ in range(t)]
        for k in range(2, n + 1):
            got = first_tk_violation(n, k, col.rows)
            assert got == oracles.first_tk_violation(col, k), (n, t, k)


def suffix_complete_adj(rng, n, p):
    """Random on a prefix and complete on a random vertex suffix; about half
    of the prefix vertices are joined to the whole suffix."""
    adj = random_adj(rng, n, p)
    start = rng.randint(n // 3, n)
    pool = (1 << n) - 1 >> start << start
    for v in range(start, n):
        adj[v] |= pool ^ 1 << v
    for u in range(start):
        if rng.random() < 0.5:
            adj[u] |= pool
            for v in range(start, n):
                adj[v] |= 1 << u
    return adj


def test_first_tk_violation_matches_oracle_on_suffix_cliques():
    """Colors that are cliques on a vertex suffix let the scan skip a
    subtree in the middle of the walk, whether or not a violation exists.
    At k = 2 the scan skips no node, and its witness is still the oracle's
    on colorings with a complete suffix."""
    rng = random.Random(808)
    seen = set()
    seen_k2 = set()
    for _ in range(300):
        n = rng.randint(2, 10)
        t = rng.randint(1, 4)
        col = MultiColoring(n, t)
        col.rows = [
            suffix_complete_adj(rng, n, rng.choice((0.7, 0.9, 0.97)))
            if rng.random() < 0.7 else random_adj(rng, n, 0.5)
            for _ in range(t)
        ]
        for k in range(2, n + 2):
            got = first_tk_violation(n, k, col.rows)
            expected = oracles.first_tk_violation(col, k) if k <= n else None
            assert got == expected, (n, t, k, col.rows)
            seen.add(expected is None)
            # some color is a clique on the suffix {n-2, n-1}
            if k == 2 and any(rows[n - 2] >> n - 1 & 1 for rows in col.rows):
                seen_k2.add(expected is None)
    assert seen == {True, False}
    assert seen_k2 == {True, False}


@st.composite
def clique_substitutions(draw):
    """A graph on at most 8 vertices with a clique of 1-4 vertices put in
    for each vertex, relabeled at random and with an optional single-edge
    flip (which may leave no twin pair at all)."""
    n, adj = draw(adjacency())
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    owner = [v for v in range(n) for _ in range(sizes[v])]
    m = len(owner)
    label = draw(st.permutations(range(m)))
    rows = [0] * m
    for x in range(m):
        for y in range(x + 1, m):
            if owner[x] == owner[y] or adj[owner[x]] >> owner[y] & 1:
                rows[label[x]] |= 1 << label[y]
                rows[label[y]] |= 1 << label[x]
    if m >= 2 and draw(st.booleans()):
        pair = st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)
        x, y = draw(pair)
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    return m, rows


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=clique_substitutions())
def test_find_induced_c4_on_clique_substitutions_matches_oracle(data):
    """The scan runs on one least vertex per true-twin class; the witness
    is still the lexicographically first of the whole graph."""
    n, adj = data
    assert find_induced_c4(n, adj) == oracles.first_induced_c4(n, adj)


def relabeled(rows, label):
    """The graph with vertex v renamed label[v]; each distinct closed
    neighborhood is mapped once, so a blow-up maps a few rows."""
    mapped = {}
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        closed = row | 1 << v
        if closed not in mapped:
            mapped[closed] = sum(1 << label[u] for u in oracles_bits(closed))
        out[label[v]] = mapped[closed] ^ 1 << label[v]
    return out


class TestTwinQuotient:
    """K5* blown up to classes of 160 (n=800): each color is a 5-cycle of
    cliques, so its quotient is the 5-cycle itself."""

    def blowup_colors(self, label):
        col = blow_up(construct_k5star(), BlowupSpec([160] * 5))
        return [relabeled(rows, label) for rows in col.rows]

    def spy(self, monkeypatch):
        scanned = []
        scan = kernels._c4_scan

        def counted(adj, verts):
            scanned.append(len(verts))
            return scan(adj, verts)

        monkeypatch.setattr(kernels, "_c4_scan", counted)
        return scanned

    def test_each_color_is_scanned_on_its_five_classes(self, monkeypatch):
        label = list(range(800))
        random.Random(5).shuffle(label)
        scanned = self.spy(monkeypatch)
        for rows in self.blowup_colors(label):
            assert find_induced_c4(800, rows) is None
        assert scanned == [5, 5]

    def test_a_planted_c4_is_the_oracles_witness(self, monkeypatch):
        # vertices 0 and 1 of the first class keep their labels and lose
        # their edge in color 1: with a vertex of each neighboring class
        # they induce a C4, and the least such vertices make the witness
        rest = list(range(2, 800))
        random.Random(6).shuffle(rest)
        rows = self.blowup_colors([0, 1] + rest)[0]
        rows[0] ^= 1 << 1
        rows[1] ^= 1 << 0
        scanned = self.spy(monkeypatch)
        witness = find_induced_c4(800, rows)
        assert witness[:2] == (0, 1)
        assert witness == oracles.first_induced_c4(800, rows)
        # {0}, {1}, the rest of their class and the four other classes
        assert scanned == [7]


class TestUnionRowScan:
    """At k = 2 the scan reads one union row per vertex (the OR of its rows
    over all colors); the witness is still the oracle's first pair."""

    def oracle(self, n, rows):
        col = MultiColoring(n, len(rows))
        col.rows = rows
        return oracles.first_tk_violation(col, 2)

    def test_no_colors_violate_at_the_first_pair(self):
        for n in range(2, 7):
            assert first_tk_violation(n, 2, []) == (0, 1)

    def test_k_above_n_has_no_violation(self):
        for n in range(4):
            for k in range(max(2, n + 1), n + 3):
                assert first_tk_violation(n, k, [[0] * n]) is None
                assert first_tk_violation(n, k, []) is None

    def test_every_coloring_of_two_and_three_vertices(self):
        """Each pair of n in {2, 3} takes every subset of t in {1, 2, 3}
        colors."""
        from itertools import combinations, product

        for n in (2, 3):
            pairs = list(combinations(range(n), 2))
            for t in (1, 2, 3):
                for masks in product(range(1 << t), repeat=len(pairs)):
                    rows = [[0] * n for _ in range(t)]
                    for (u, v), mask in zip(pairs, masks):
                        for c in range(t):
                            if mask >> c & 1:
                                rows[c][u] |= 1 << v
                                rows[c][v] |= 1 << u
                    assert first_tk_violation(n, 2, rows) == self.oracle(n, rows)

    def test_sparse_rows_of_many_colors(self):
        """Up to 48 sparse colors whose union is near complete, so the first
        uncovered pair sits anywhere, or nowhere."""
        rng = random.Random(48)
        found = set()
        for _ in range(200):
            n = rng.randint(2, 14)
            t = rng.randint(1, 48)
            p = rng.choice((0.02, 0.05, 0.1))
            rows = [random_adj(rng, n, p) for _ in range(t)]
            expected = self.oracle(n, rows)
            assert first_tk_violation(n, 2, rows) == expected, (n, t, rows)
            found.add(None if expected is None else expected[0] > 0)
        assert found == {None, False, True}


def substituted(adj, sizes, true):
    """``adj`` with vertex v replaced by ``sizes[v]`` twins: a clique where
    ``true[v]`` holds (true twins), an independent set elsewhere (false
    twins)."""
    owner = [v for v, size in enumerate(sizes) for _ in range(size)]
    rows = [0] * len(owner)
    for x, u in enumerate(owner):
        for y, w in enumerate(owner):
            if x != y and (adj[u] >> w & 1 or u == w and true[u]):
                rows[x] |= 1 << y
    return rows


def complete_adj(n):
    return [((1 << n) - 1) ^ 1 << v for v in range(n)]


def twin_pairs(adj, within):
    """Pairs (as masks) of vertices of ``within`` with the same closed or
    the same open neighborhood in the subgraph induced on it."""
    vs = oracles_bits(within)
    return {
        1 << u | 1 << v
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if adj[u] & within in (adj[v] & within, adj[v] & within ^ 1 << u ^ 1 << v)
    }


class TestCliqueTwinQuotient:
    """``covers._maximal_cliques`` runs the kernel on one vertex per twin
    class of the induced graph and lifts each clique in vertex-tuple order;
    the list must be the kernel's on ``within``, sorted, and the oracle's."""

    def graphs(self, rng):
        """Twin-rich graphs on at most 14 vertices, relabeled at random: the
        colors of K5* blow-ups (true twins), complete multipartite graphs
        (false twins) and random graphs with both kinds substituted in."""
        for _ in range(12):
            sizes = [rng.randint(1, 2) for _ in range(5)]
            sizes[rng.randrange(5)] += rng.randint(0, 4)
            yield from blow_up(construct_k5star(), BlowupSpec(sizes)).rows
        for _ in range(16):
            parts = rng.randint(2, 5)
            sizes = [rng.randint(1, 14 // parts) for _ in range(parts)]
            yield substituted(complete_adj(parts), sizes, [False] * parts)
        for _ in range(40):
            n = rng.randint(2, 7)
            sizes = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
            true = [rng.random() < 0.5 for _ in range(n)]
            adj = substituted(random_adj(rng, n, rng.choice((0.3, 0.6))), sizes, true)
            if len(adj) <= 14:
                yield adj

    @pytest.fixture
    def quotients(self, monkeypatch):
        """Vertex masks the kernel enumerates on."""
        calls = []

        def counted(n, adj, within=-1):
            calls.append(within)
            return maximal_cliques(n, adj, within)

        monkeypatch.setattr(kernels, "maximal_cliques", counted)
        return calls

    def test_matches_the_kernel_and_the_oracle(self, quotients):
        """The kernel sees the least vertex of each twin class of the induced
        graph; ``within`` masks split twin classes of the whole graph and make
        twins of vertices that are none in the whole graph."""
        rng = random.Random(18)
        split = fresh = 0
        for rows in self.graphs(rng):
            n = len(rows)
            label = list(range(n))
            rng.shuffle(label)
            adj = relabeled(rows, label)
            full = (1 << n) - 1
            whole = twin_pairs(adj, full)
            assert whole
            for within in (full, rng.getrandbits(n), rng.getrandbits(n)):
                got = _maximal_cliques(adj, within)
                want = maximal_cliques(n, adj, within)
                assert got == sorted(want, key=lambda m: tuple(oracles_bits(m)))
                assert [tuple(oracles_bits(m)) for m in got] == induced_oracle(
                    adj, within
                )
                pairs = twin_pairs(adj, within)
                least = within
                for p in pairs:
                    least &= ~(p & p - 1)
                assert quotients.pop() == least
                split += any((p & within).bit_count() == 1 for p in whole)
                fresh += bool(pairs - whole)
        assert split > 100 and fresh > 50

    def test_complete_multipartite_3x7_has_3_to_the_7_cliques(self, quotients):
        """One vertex per part: 2,187 cliques lifted from one clique of the
        7-vertex quotient."""
        label = list(range(21))
        random.Random(37).shuffle(label)
        adj = relabeled(substituted(complete_adj(7), [3] * 7, [False] * 7), label)
        got = _maximal_cliques(adj)
        assert [m.bit_count() for m in quotients] == [7]
        assert len(got) == 3**7
        parts = [sum(1 << label[3 * p + i] for i in range(3)) for p in range(7)]
        assert all((m & part).bit_count() == 1 for m in got for part in parts)
        want = maximal_cliques(21, adj)
        assert got == sorted(want, key=lambda m: tuple(oracles_bits(m)))
