"""Scan kernels: pure backend against brute-force oracles, and the compiled
backend against the pure one on identical inputs."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strongcover._kernels import BACKEND, pure

try:
    from strongcover import _speedups
except ImportError:
    _speedups = None

BACKENDS = [pure] if _speedups is None else [pure, _speedups]


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


@pytest.mark.parametrize("impl", BACKENDS)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=adjacency())
def test_maximal_cliques_match_oracle(impl, data):
    n, adj = data
    got = sorted(tuple(oracles_bits(m)) for m in impl.maximal_cliques(n, adj))
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


@pytest.mark.parametrize("impl", BACKENDS)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=adjacency())
def test_find_induced_c4_matches_oracle(impl, data):
    n, adj = data
    assert impl.find_induced_c4(n, adj) == oracles.first_induced_c4(n, adj)


@pytest.mark.parametrize("impl", BACKENDS)
def test_first_tk_violation_against_subset_scan(impl):
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
        assert impl.first_tk_violation(n, k, color_adj) == expected


@pytest.mark.parametrize("impl", BACKENDS)
def test_first_tk_violation_edges(impl):
    # k larger than n: nothing to violate
    assert impl.first_tk_violation(3, 5, [[0, 0, 0]]) is None
    # no colors at all: the very first subset violates
    assert impl.first_tk_violation(4, 2, []) == (0, 1)
    # complete single color: no violation
    full = [0b1110, 0b1101, 0b1011, 0b0111]
    assert impl.first_tk_violation(4, 3, [full]) is None


@pytest.mark.skipif(_speedups is None, reason="compiled backend unavailable")
def test_backends_agree_on_large_random_inputs():
    """Cross the 64-bit word boundary to exercise multi-word bitsets."""
    rng = random.Random(7)
    for n in (63, 64, 65, 80):
        adj = random_adj(rng, n, 0.3)
        assert pure.maximal_cliques(n, adj) == _speedups.maximal_cliques(n, adj)
        assert pure.find_induced_c4(n, adj) == _speedups.find_induced_c4(n, adj)
        colors = [adj, random_adj(rng, n, 0.5)]
        for k in (2, 3, 4):
            assert pure.first_tk_violation(n, k, colors) == _speedups.first_tk_violation(
                n, k, colors
            )


def test_backend_name_is_reported():
    assert BACKEND in ("pure", "compiled")
    if os.environ.get("STRONGCOVER_PURE"):
        assert BACKEND == "pure"
    elif _speedups is not None:
        assert BACKEND == "compiled"


@pytest.mark.parametrize("impl", BACKENDS)
def test_maximal_cliques_deterministic_order(impl):
    # path 0-1-2-3: cliques are the three edges, discovered in ascending order
    adj = [0b0010, 0b0101, 0b1010, 0b0100]
    assert impl.maximal_cliques(4, adj) == [0b0011, 0b0110, 0b1100]
    assert impl.maximal_cliques(0, []) == []
    # isolated vertices are singleton maximal cliques
    assert impl.maximal_cliques(2, [0, 0]) == [0b01, 0b10]


def test_pure_first_tk_violation_matches_oracle_for_every_k():
    from strongcover.core import MultiColoring

    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(2, 9)
        t = rng.randint(1, 4)
        col = MultiColoring(n, t)
        col.rows = [random_adj(rng, n, rng.choice((0.4, 0.7, 0.95))) for _ in range(t)]
        for k in range(2, n + 1):
            got = pure.first_tk_violation(n, k, col.color_adjacency())
            assert got == oracles.first_tk_violation(col, k), (n, t, k)
