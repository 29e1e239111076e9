"""Bitset graph primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from strongcover.errors import InputError
from strongcover.graphs import Graph, bits, mask_of


def test_mask_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []
    assert mask_of([]) == 0


def test_add_edge_and_queries():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.adj[1].bit_count() == 2
    assert g.edge_count() == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_bad_edges_rejected():
    g = Graph(3)
    with pytest.raises(InputError):
        g.add_edge(1, 1)
    with pytest.raises(InputError):
        g.add_edge(0, 3)
    with pytest.raises(InputError):
        Graph(-1)


def test_is_clique():
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert g.is_clique(mask_of([0, 1, 2]))
    assert g.is_clique(mask_of([0, 1]))
    assert g.is_clique(mask_of([3]))
    assert g.is_clique(0)
    assert not g.is_clique(mask_of([0, 1, 3]))


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.component_mask(0) == mask_of([0, 1, 2])
    assert g.component_mask(4) == mask_of([3, 4])
    assert not g.is_connected()
    g.add_edge(2, 3)
    assert g.is_connected()
    assert Graph(0).is_connected()
    assert Graph(1).is_connected()


def test_subgraph_relabels_in_order():
    g = Graph(5, [(0, 2), (2, 4), (1, 4)])
    sub, old = g.subgraph([4, 0, 2])
    assert old == [0, 2, 4]
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(InputError):
        g.subgraph([0, 9])


def test_copy_is_independent():
    g = Graph(3, [(0, 1)])
    h = g.copy()
    h.add_edge(1, 2)
    assert g.edge_count() == 1 and h.edge_count() == 2
    assert g == Graph(3, [(0, 1)])
    assert g != h


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, f in zip(pairs, flags) if f])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_graphs())
def test_edges_consistent_with_adjacency(g):
    listed = set(g.edges())
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert ((u, v) in listed) == g.has_edge(u, v)
    assert len(listed) == g.edge_count()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_graphs())
def test_components_partition_vertices(g):
    seen = 0
    masks = []
    for v in range(g.n):
        if not seen >> v & 1:
            m = g.component_mask(v)
            assert m & seen == 0
            seen |= m
            masks.append(m)
    assert seen == g.full_mask()
    # no edges may cross between component masks
    for u, v in g.edges():
        assert any(m >> u & 1 and m >> v & 1 for m in masks)
