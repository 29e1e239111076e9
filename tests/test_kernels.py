"""Scan kernels against brute-force oracles."""

import random

from hypothesis import given, settings, strategies as st

import oracles
from corpora import complete_coloring
from strongcover import BACKEND
from strongcover._kernels import find_induced_c4, first_tk_violation, maximal_cliques
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


def test_maximal_cliques_within_match_oracle_on_induced_subgraph():
    """``within`` restricts the enumeration to the induced subgraph and
    keeps the original labels."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 14)
        adj = random_adj(rng, n, rng.choice((0.2, 0.5, 0.8)))
        full = (1 << n) - 1
        for within in (0, full, rng.getrandbits(n) if n else 0):
            keep = oracles_bits(within)
            sub = [0] * len(keep)
            for i, v in enumerate(keep):
                for j, w in enumerate(keep):
                    if adj[v] >> w & 1:
                        sub[i] |= 1 << j
            expected = [
                tuple(keep[i] for i in c)
                for c in oracles.maximal_cliques(len(keep), sub)
            ]
            got = maximal_cliques(n, adj, within)
            got = sorted(tuple(oracles_bits(m)) for m in got)
            assert got == expected, (n, adj, within)
        assert maximal_cliques(n, adj, full) == maximal_cliques(n, adj)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=adjacency())
def test_find_induced_c4_matches_oracle(data):
    n, adj = data
    assert find_induced_c4(n, adj) == oracles.first_induced_c4(n, adj)


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
