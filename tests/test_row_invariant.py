"""Every way the package writes a coloring's rows keeps them well formed.

The algorithms read ``col.rows`` without checking them again, so each
writer must leave t rows of n masks, no bit at or beyond n, no self-loop
(what ``MultiColoring.validate`` checks) and each color's rows symmetric
(which ``validate`` does not check).
"""

import pytest
from hypothesis import given, settings, strategies as st

from strongcover import constructions, corpus
from strongcover.core import (
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
)


def assert_rows_hold(col):
    col.validate()
    for c, row in enumerate(col.rows, start=1):
        for u, mask in enumerate(row):
            for v in range(col.n):
                assert (mask >> v & 1) == (row[v] >> u & 1), (c, u, v)


@st.composite
def edge_lists(draw, min_n=0):
    """(n, t, [(u, v, colors)]) with u < v and nonempty color sets."""
    n = draw(st.integers(min_n, 7))
    t = draw(st.integers(1, 3))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            cs = draw(st.lists(st.integers(1, t), max_size=t, unique=True))
            if cs:
                edges.append((u, v, cs))
    return n, t, edges


def _flip(draw, u, v):
    return (v, u) if draw(st.booleans()) else (u, v)


@st.composite
def constructor(draw):
    n, t, edges = draw(edge_lists())
    mapping = {_flip(draw, u, v): cs for u, v, cs in edges}
    return MultiColoring(n, t, mapping)


@st.composite
def from_edges(draw):
    n, t, edges = draw(edge_lists())
    flipped = [(*_flip(draw, u, v), cs) for u, v, cs in edges]
    return MultiColoring.from_edges(n, t, flipped)


@st.composite
def writes(draw):
    """add_colors and edge_colors assignments and deletions, in any order."""
    n, t, _ = draw(edge_lists(min_n=2))
    col = MultiColoring(n, t)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    colors = st.lists(st.integers(1, t), max_size=t)
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(pair)
        op = draw(st.sampled_from(("add", "set", "delete")))
        if op == "add":
            col.add_colors(u, v, draw(colors))
        elif op == "set":
            col.edge_colors[u, v] = draw(colors)
        elif (min(u, v), max(u, v)) in col.edge_colors:
            del col.edge_colors[min(u, v), max(u, v)]
    return col


@st.composite
def from_dict(draw):
    n, t, edges = draw(edge_lists())
    return MultiColoring.from_dict(
        {"n": n, "t": t, "edges": [[u, v, cs] for u, v, cs in edges]}
    )


@st.composite
def select_colors(draw):
    col = draw(constructor())
    colors = draw(st.permutations(range(1, col.t + 1)))
    return col.select_colors(colors[: draw(st.integers(1, col.t))])


@st.composite
def intervals(draw):
    t = draw(st.integers(1, 3))
    interval = st.tuples(st.integers(-3, 6), st.integers(0, 5)).map(
        lambda p: (p[0], p[0] + p[1])
    )
    members = draw(st.lists(st.lists(interval, min_size=t, max_size=t), max_size=7))
    return coloring_from_intervals(TIntervalFamily(t, members))


@st.composite
def subtrees(draw):
    """A host tree with each vertex below a smaller one, and subtrees grown
    down from a top vertex."""
    h = draw(st.integers(1, 7))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, h)]
    t = draw(st.integers(1, 3))

    def subtree():
        top = draw(st.integers(0, h - 1))
        inside = {top}
        for v in range(top + 1, h):
            if parent[v] in inside and draw(st.booleans()):
                inside.add(v)
        return frozenset(inside)

    members = [[subtree() for _ in range(t)] for _ in range(draw(st.integers(0, 7)))]
    host = [(parent[v], v) for v in range(1, h)]
    return coloring_from_subtrees(TSubtreeFamily(host, t, members))


@st.composite
def blow_up(draw):
    col = draw(constructor())
    sizes = draw(st.lists(st.integers(1, 3), min_size=col.n, max_size=col.n))
    return constructions.blow_up(col, constructions.BlowupSpec(sizes))


@st.composite
def clique_substitute(draw):
    n, t, edges = draw(edge_lists(min_n=1))
    col = MultiColoring.from_edges(n, t, edges)
    return constructions.clique_substitute(
        col, draw(st.integers(0, n - 1)), draw(st.integers(1, 3))
    )


@st.composite
def named_constructions(draw):
    name = draw(
        st.sampled_from(("k5star", "k4paths", "k8c4free", "onefourth", "partition"))
    )
    if name == "k5star":
        return constructions.construct_k5star()
    if name == "k4paths":
        return constructions.construct_k4_two_paths()
    if name == "k8c4free":
        return constructions.construct_k8_c4free_3col()
    if name == "onefourth":
        fam = constructions.construct_onefourth(draw(st.integers(2, 4)))
        return coloring_from_intervals(fam)
    t = draw(st.integers(1, 4))
    n = draw(st.integers(t, 9))
    return coloring_from_intervals(constructions.construct_partition_coloring(n, t))


@st.composite
def seeded_instances(draw):
    kind = draw(st.sampled_from(("interval", "subtree")))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 8))
    t = draw(st.integers(2, 3))
    return corpus.seeded_tk_instance(kind, n, t, k, draw(st.integers(0, 50))).coloring


WRITERS = {
    f.__name__: f
    for f in (
        constructor, from_edges, writes, from_dict, select_colors, intervals,
        subtrees, blow_up, clique_substitute, named_constructions, seeded_instances,
    )
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_every_writer_keeps_the_rows_well_formed(writer, data):
    assert_rows_hold(data.draw(WRITERS[writer]()))

