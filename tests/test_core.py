"""Colorings, interval and subtree families, covers, and the predicates
connecting them."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import strongcover.core as core
from corpora import complete_coloring
from strongcover.constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
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
    _interval_coloring,
    _right_end_order,
    coloring_from_intervals,
    coloring_from_subtrees,
    is_kwise_intersecting,
    is_tk_coloring,
    kfold_min_colors,
    piercing_points,
    verify_cover,
)
from strongcover.chordal import (
    chordal_edge_bound_check,
    clique_cutset,
    induced_c4_free,
    is_chordal,
    max_clique_chordal,
    maximal_cliques_chordal,
    mcs_order,
)
from strongcover.covers import (
    counting_chain_check,
    exact_cover_and_theta,
    exact_max_strong_cover,
    find_k5star,
    greedy_strong_cover,
    grow_blowup,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
    two_clique_cover_exact,
)
from strongcover.errors import InputError
from strongcover.graphs import Graph


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
        col = complete_coloring(4, 2)
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


class _Seq(list):
    """A list subclass, which an edges document may use for any list."""


def _bad_color(rng, t):
    return rng.choice((0, -1, t + 1, None, "1", True, 1.0, 2.5))


def _inject(rng, edges, n, t):
    """Put one fault of a seeded kind into ``edges``; returns the kind."""
    whole = [j for j, e in enumerate(edges) if isinstance(e, (list, tuple)) and len(e) == 3
             and isinstance(e[2], (list, tuple))]
    if not whole:
        edges.append([0, 1, [1]] if n < 2 else [n - 1, n, [1]])
        return "range"
    kind = rng.choice(("alias", "repeat", "repeat-then-color", "color", "range",
                       "order", "ints", "shape", "container"))
    i = rng.choice(whole)
    u, v, cs = edges[i]
    if kind == "alias":  # an equal color list after a valid one: True or 1.0
        later = [j for j in whole if j > i and tuple(edges[j][:2]) != (u, v)]
        if not cs or not later:
            return _inject(rng, edges, n, t)
        j = rng.choice(later)
        alias = [True if c == 1 else float(c) for c in cs[:1]] + list(cs[1:])
        edges[j] = [edges[j][0], edges[j][1], alias]
    elif kind in ("repeat", "repeat-then-color"):
        j = rng.randint(i + 1, len(edges))
        edges.insert(j, [u, v, rng.sample(range(1, t + 1), rng.randint(0, t))])
        if kind == "repeat-then-color":
            k = rng.randint(j + 1, len(edges))
            edges.insert(k, [n, n + 1, [_bad_color(rng, t)]] if n < 2 else
                         [0, n - 1, [_bad_color(rng, t)]])
    elif kind == "color":
        edges[i] = [u, v, list(cs) + [_bad_color(rng, t)]]
    elif kind == "range":
        edges[i] = rng.choice(([-1, v, cs], [u, n, cs], [u, n + 3, cs]))
    elif kind == "order":
        edges[i] = rng.choice(([v, u, cs], [u, u, cs]))
    elif kind == "ints":
        bad = rng.choice((True, 1.0, "0", None))
        edges[i] = [bad, v, cs] if rng.random() < 0.5 else [u, bad, cs]
    elif kind == "shape":
        edges[i] = rng.choice(([u, v], [u, v, cs, 0], 5, "abc", None, (u,), {u: v}))
    else:
        edges[i] = [u, v, rng.choice((set(cs), 3, None, "12"))]
    return kind


def _edges_document(rng):
    """A seeded edges document: shuffled edges, mostly dense enough to be
    grouped, with tuples and list subclasses, empty color lists, colors
    listed twice, up to 2**t distinct color sets, and often a fault."""
    n, t = rng.randint(0, 9), rng.randint(1, 4)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = rng.sample(pairs, round(len(pairs) * rng.choice((0.2, 0.6, 1.0))))
    sets = [rng.sample(range(1, t + 1), rng.randint(0, t)) for _ in range(rng.choice((1, 3, 9)))]
    edges = []
    for u, v in pairs:
        cs = list(rng.choice(sets))
        if cs and rng.random() < 0.05:
            cs.append(cs[0])
        shape = rng.random()
        cs = tuple(cs) if shape < 0.1 else _Seq(cs) if shape < 0.15 else cs
        shape = rng.random()
        edges.append((u, v, cs) if shape < 0.1 else _Seq((u, v, cs)) if shape < 0.15 else [u, v, cs])
    kinds = [_inject(rng, edges, n, t) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
    return {"n": n, "t": t, "edges": edges}, kinds


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of documents read by ``core._write_edges``, the edge by
    edge path, so far."""
    calls = []
    write = core._write_edges

    def spy(col, raw):
        calls.append(len(raw))
        return write(col, raw)

    monkeypatch.setattr(core, "_write_edges", spy)
    return calls


class TestEdgesParse:
    """``MultiColoring.from_dict`` reads a dense document in one grouped
    pass and anything else edge by edge; both give the rows written edge
    by edge, or the first fault's message."""

    def test_agrees_with_the_edge_by_edge_oracles(self, fallbacks):
        rng = random.Random(20240601)
        grouped = faults = 0
        kinds = set()
        for _ in range(6000):
            doc, injected = _edges_document(rng)
            kinds.update(injected)
            fault = oracles.first_edges_fault(doc)
            before = len(fallbacks)
            if fault is None:
                assert MultiColoring.from_dict(doc).rows == oracles.edges_rows(doc)
                grouped += len(fallbacks) == before
            else:
                with pytest.raises(InputError) as info:
                    MultiColoring.from_dict(doc)
                assert str(info.value) == fault
                assert len(fallbacks) == before + 1
                faults += 1
        assert grouped > 1000 and faults > 1500
        assert len(kinds) == 9

    @pytest.mark.parametrize("doc", [
        complete_coloring(96, 3).to_dict(),
        blow_up(construct_k5star(), BlowupSpec([12] * 5)).to_dict(),
    ], ids=["complete-n96-t3", "k5star-blowup-n60"])
    def test_benchmark_shapes_are_grouped(self, fallbacks, doc):
        random.Random(5).shuffle(doc["edges"])
        assert MultiColoring.from_dict(doc).rows == oracles.edges_rows(doc)
        assert fallbacks == []

    def test_a_fault_is_read_edge_by_edge_once(self, fallbacks):
        doc = complete_coloring(96, 3).to_dict()
        doc["edges"][-1][2] = [True]
        with pytest.raises(InputError, match=r"^color True out of range 1\.\.3$"):
            MultiColoring.from_dict(doc)
        assert fallbacks == [len(doc["edges"])]

    def test_the_size_rule_on_either_side(self, fallbacks):
        # g accumulators need g * n**2 <= 16 * len(edges) and g <= t + 1
        path = [[u, v, [1]] for u, v in ((0, 1), (1, 2), (2, 3), (3, 4))]
        MultiColoring.from_dict({"n": 8, "t": 1, "edges": path})  # 64 <= 64
        assert fallbacks == []
        MultiColoring.from_dict({"n": 8, "t": 1, "edges": path[:3]})  # 64 > 48
        assert fallbacks == [3]
        k4 = [[0, 1, []], [0, 2, [1]], [0, 3, [2]], [1, 2, [1]], [1, 3, [2]]]
        MultiColoring.from_dict({"n": 4, "t": 2, "edges": k4})  # 3 sets, t + 1
        assert fallbacks == [3]
        k4.append([2, 3, [1, 2]])
        col = MultiColoring.from_dict({"n": 4, "t": 2, "edges": k4})  # 4 sets
        assert fallbacks == [3, 6]
        assert col.rows == oracles.edges_rows({"n": 4, "t": 2, "edges": k4})


class TestPlainIntSizes:
    """The public constructors take t (and a coloring's n) as a plain int,
    as ``from_dict`` does, so what one builds the other reads back."""

    BUILDS = [
        ("t", lambda t: MultiColoring(2, t)),
        ("n", lambda n: MultiColoring(n, 1)),
        ("t", lambda t: TIntervalFamily(t, [[(0, 1)]])),
        ("t", lambda t: TSubtreeFamily([(0, 1)], t, [[{0, 1}]])),
    ]

    @pytest.mark.parametrize("key, build", BUILDS)
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_only_plain_ints_are_built_and_round_trip(self, key, build, value):
        built = build(1)
        doc = built.to_dict()
        assert type(built).from_dict(doc) == built
        with pytest.raises(InputError) as info:
            build(value)
        assert str(info.value) == f"{key} must be int, got {value!r}"
        with pytest.raises(InputError, match=f"{key} must be int"):
            type(built).from_dict({**doc, key: value})


_FAM = construct_onefourth(3)  # t = 3, n = 7
_COL = coloring_from_intervals(_FAM)
_TRACE = greedy_strong_cover(_COL)[1]
_STAR = construct_k5star()  # t = 2, n = 5


def _cover(color=1, vertex=0):
    return StrongCover({color: frozenset({vertex})})


# an entry point taking a color, vertex or size, its message when that is not
# a plain int, an int it refuses (or None) with that int's message, and an
# int it takes
ENTRY_POINTS = {
    "verify_cover-color": (
        lambda c: verify_cover(_COL, _cover(color=c)),
        "cover color {!r} out of range 1..3", 4, 1,
    ),
    "verify_cover-vertex": (
        lambda v: verify_cover(_COL, _cover(vertex=v)),
        "cover vertex {!r} out of range for n=7", 7, 0,
    ),
    "piercing_points-color": (
        lambda c: piercing_points(_FAM, _cover(color=c)),
        "cover color {!r} out of range 1..3", 0, 1,
    ),
    "piercing_points-vertex": (
        lambda v: piercing_points(_FAM, _cover(vertex=v)),
        "cover vertex {!r} out of range for n=7", -1, 0,
    ),
    "greedy_strong_cover-order": (
        lambda c: greedy_strong_cover(_COL, (c, 2, 3)),
        "order ({!r}, 2, 3) is not a permutation of 1..3", 2, 1,
    ),
    "blow_up-size": (
        lambda size: blow_up(_STAR, BlowupSpec([size] * 5)),
        "size must be int, got {!r}", 0, 1,
    ),
    "clique_substitute-vertex": (
        lambda v: clique_substitute(_STAR, v, 2),
        "v must be int, got {!r}", 5, 1,
    ),
    "clique_substitute-size": (
        lambda size: clique_substitute(_STAR, 0, size),
        "size must be int, got {!r}", 0, 1,
    ),
    "select_colors": (
        lambda c: _STAR.select_colors([c]),
        "color {!r} out of range 1..2", 3, 1,
    ),
    "vertex_mask": (
        lambda v: _STAR.vertex_mask([v]),
        "vertex {!r} out of range for n=5", 5, 1,
    ),
    "color_graph": (
        lambda c: _STAR.color_graph(c),
        "color {!r} out of range 1..2", 0, 1,
    ),
    "add_colors-color": (
        lambda c: MultiColoring(3, 2).add_colors(0, 1, [c]),
        "color {!r} out of range 1..2", 3, 1,
    ),
    "add_colors-vertex": (
        lambda u: MultiColoring(3, 2).add_colors(u, 2, [1]),
        "bad edge ({!r},2) for n=3", 3, 1,
    ),
    "exact_max_strong_cover-max_n": (
        lambda m: exact_max_strong_cover(_STAR, max_n=m),
        "max_n must be int, got {!r}", None, 5,
    ),
    "theta-max_n": (
        lambda m: theta(_STAR, max_n=m), "max_n must be int, got {!r}", None, 5,
    ),
    "counting_chain_check-k": (
        lambda k: counting_chain_check(_COL, _TRACE, k),
        "k must be int, got {!r}", None, 2,
    ),
    "Graph-n": (Graph, "n must be int, got {!r}", -1, 1),
}

# the message of each int ENTRY_POINTS refuses, as before the plain-int rule
INT_MESSAGES = {
    "blow_up-size": "every blow-up size must be at least 1",
    "clique_substitute-vertex": "vertex 5 out of range for n=5",
    "clique_substitute-size": "size must be at least 1, got 0",
    "greedy_strong_cover-order": "order (2, 2, 3) is not a permutation of 1..3",
    "Graph-n": "vertex count must be nonnegative, got -1",
}


class TestPlainIntEntryPoints:
    """Colors, vertices and sizes handed to the library are plain ints: a
    bool, a float, a string or None is an InputError, not taken as the int
    it equals nor left to fail as a bare TypeError."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_other_values_are_input_errors(self, name, value):
        call, message, _bad, _good = ENTRY_POINTS[name]
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == message.format(value)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_ints_keep_their_messages(self, name):
        call, message, bad, good = ENTRY_POINTS[name]
        call(good)
        if bad is not None:
            with pytest.raises(InputError) as info:
                call(bad)
            assert str(info.value) == INT_MESSAGES.get(name, message.format(bad))


# an entry point taking a collection of colors, vertices, sizes or edges,
# given what stands in the collection's place, and a collection it takes;
# these are lists, tuples, sets, frozensets and ranges between them
COLLECTION_ARGS = {
    "greedy_strong_cover-order": (
        lambda x: greedy_strong_cover(_COL, x), range(3, 0, -1),
    ),
    "blow_up-sizes": (lambda x: blow_up(_STAR, BlowupSpec(x)), (1, 2, 1, 1, 1)),
    "select_colors": (lambda x: _STAR.select_colors(x), frozenset({2})),
    "vertex_mask": (lambda x: _STAR.vertex_mask(x), {0, 2}),
    "add_colors": (lambda x: MultiColoring(3, 2).add_colors(0, 1, x), range(1, 3)),
    "MultiColoring-edge_colors": (lambda x: MultiColoring(3, 2, {(0, 1): x}), (2,)),
    "from_edges": (lambda x: MultiColoring.from_edges(3, 2, x), [(0, 1, [2])]),
    "verify_cover": (lambda x: verify_cover(_COL, StrongCover({1: x})), [0]),
    "piercing_points": (
        lambda x: piercing_points(_FAM, StrongCover({1: x})), range(1),
    ),
    "two_clique_cover_exact-vertices": (
        lambda x: two_clique_cover_exact(_STAR, (1, 2), x), (0, 1),
    ),
    "grow_blowup-seed": (lambda x: grow_blowup(_STAR, x), range(5)),
}
_NONE_IS_THE_DEFAULT = {"greedy_strong_cover-order", "two_clique_cover_exact-vertices"}


class TestCollectionArguments:
    """A bare int, a bool or None where a collection belongs is an
    InputError, not a TypeError from the loop that reads it."""

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in COLLECTION_ARGS for value in (3, True, None)
        if not (value is None and name in _NONE_IS_THE_DEFAULT)
    ])
    def test_collections_are_taken_and_others_refused(self, name, value):
        call, taken = COLLECTION_ARGS[name]
        call(taken)
        with pytest.raises(InputError, match="must be a list"):
            call(value)


# an entry point handed an item or a mapping of the wrong shape, with the
# message of its InputError (a bare TypeError, ValueError or AttributeError
# from the loop that reads it, before these checks)
SHAPE_ARGS = {
    "from_edges-item": (
        lambda: MultiColoring.from_edges(3, 2, [5]),
        r"an edge \[u, v, colors\] must be a list of 3",
    ),
    "from_edges-short-item": (
        lambda: MultiColoring.from_edges(3, 2, [(0, 1)]),
        r"an edge \[u, v, colors\] must be a list of 3",
    ),
    "MultiColoring-edge_colors": (
        lambda: MultiColoring(3, 2, [(0, 1)]),
        r"edge colors must be a mapping, got \[\(0, 1\)\]",
    ),
    "blow_up-spec": (
        lambda: blow_up(_STAR, 5), "spec must be a BlowupSpec, got 5",
    ),
    "blow_up-sizes-as-spec": (
        lambda: blow_up(_STAR, [1] * 5),
        r"spec must be a BlowupSpec, got \[1, 1, 1, 1, 1\]",
    ),
    "verify_cover-assignments": (
        lambda: verify_cover(_COL, StrongCover(5)),
        "cover assignments must be a mapping, got 5",
    ),
    "piercing_points-assignments": (
        lambda: piercing_points(_FAM, StrongCover(5)),
        "cover assignments must be a mapping, got 5",
    ),
    "TIntervalFamily-members": (
        lambda: TIntervalFamily(2, None), "members must be a list",
    ),
    "TSubtreeFamily-members": (
        lambda: TSubtreeFamily([], 2, None), "members must be a list",
    ),
    "TSubtreeFamily-host_edges": (
        lambda: TSubtreeFamily(None, 2, []), "host_edges must be a list",
    ),
}


@pytest.mark.parametrize("name", SHAPE_ARGS)
def test_items_and_mappings_of_the_wrong_shape_are_input_errors(name):
    call, message = SHAPE_ARGS[name]
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


# the 12 values of the ROADMAP's bad-argument probe
BAD_VALUES = [
    None, "x", 3.5, True, -1, 10**6, [], [1], {1: 2}, (0, 1, 2), object(), float("nan"),
]
_SUBTREES = TSubtreeFamily([(0, 1)], 3, [[[0], [1], [0, 1]], [[0, 1], [1], [0]]])

# an entry point given what stands in one argument's place, the kind its
# message names, an argument it takes, and objects of the package of the
# wrong kind
KIND_ARGS = {
    "coloring_from_intervals": (
        coloring_from_intervals, "an interval family", _FAM, [_STAR, _SUBTREES],
    ),
    "coloring_from_subtrees": (
        coloring_from_subtrees, "a subtree family", _SUBTREES, [_STAR, _FAM],
    ),
    "verify_cover-coloring": (
        lambda x: verify_cover(x, _cover()), "a coloring", _COL, [_FAM, _cover()],
    ),
    "verify_cover-cover": (
        lambda x: verify_cover(_COL, x), "a strong cover", _cover(),
        [_STAR, _FAM, {1: frozenset({0})}],
    ),
    "piercing_points-family": (
        lambda x: piercing_points(x, _cover()), "an interval or subtree family",
        _SUBTREES, [_COL, _cover()],
    ),
    "piercing_points-cover": (
        lambda x: piercing_points(_FAM, x), "a strong cover", _cover(), [_STAR, _FAM],
    ),
    "counting_chain_check-trace": (
        lambda x: counting_chain_check(_COL, x, 2), "a greedy trace", _TRACE,
        [_STAR, _cover()],
    ),
}
# each entry point taking a coloring: its call on the coloring given, and a
# coloring it takes
_COLORING_ARGS = {
    "greedy_strong_cover": (greedy_strong_cover, _COL),
    "counting_chain_check-coloring": (lambda x: counting_chain_check(x, _TRACE, 2), _COL),
    "exact_max_strong_cover": (exact_max_strong_cover, _STAR),
    "theta": (theta, _STAR),
    "exact_cover_and_theta": (exact_cover_and_theta, _STAR),
    "strong_cover_33": (strong_cover_33, complete_coloring(4, 3)),
    "strong_cover_tt": (strong_cover_tt, complete_coloring(4, 2)),
    "strong_cover_c4free_22": (strong_cover_c4free_22, _STAR),
    "two_clique_cover_exact": (two_clique_cover_exact, _STAR),
    "find_k5star": (lambda x: find_k5star(x, 1, 2), _STAR),
    "grow_blowup": (lambda x: grow_blowup(x, (0, 1, 2, 3, 4)), _STAR),
    "is_tk_coloring": (lambda x: is_tk_coloring(x, 2), _COL),
    "kfold_min_colors": (kfold_min_colors, _COL),
    "clique_substitute": (lambda x: clique_substitute(x, 0, 2), _STAR),
    "blow_up": (lambda x: blow_up(x, BlowupSpec([1] * 5)), _STAR),
}
KIND_ARGS.update(
    (name, (call, "a coloring", taken, [_FAM, _cover(), _STAR.color_graph(1)]))
    for name, (call, taken) in _COLORING_ARGS.items()
)
_GRAPH = _COL.color_graph(2)  # connected and chordal
_PEO = mcs_order(_GRAPH)[::-1]
KIND_ARGS.update(
    (name, (call, "a graph", _GRAPH, [_COL, _FAM]))
    for name, call in {
        "is_chordal": is_chordal,
        "mcs_order": mcs_order,
        "induced_c4_free": induced_c4_free,
        "chordal_edge_bound_check": chordal_edge_bound_check,
        "max_clique_chordal": lambda x: max_clique_chordal(x, _PEO),
        "maximal_cliques_chordal": lambda x: maximal_cliques_chordal(x, _PEO),
        "clique_cutset": lambda x: clique_cutset(x, _PEO),
    }.items()
)


@pytest.mark.parametrize("name", KIND_ARGS)
def test_arguments_of_the_wrong_kind_are_input_errors(name):
    """A family, coloring, graph, trace or cover argument of another type
    is an InputError naming the kind, not an AttributeError from its first
    read."""
    call, kind, taken, others = KIND_ARGS[name]
    call(taken)
    for value in BAD_VALUES + others:
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == f"need {kind}, got {type(value).__name__}"


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


def _distinct_path_document(seed, h=400, n=60, t=3):
    """A subtree family document whose n * t subtrees are all distinct:
    subpaths of 1-5 vertices of a path host on h vertices laid out in a
    seeded order, so that host vertex 0 lies inside the path."""
    rng = random.Random(seed)
    order = list(range(h))
    rng.shuffle(order)
    host = [[order[j], order[j + 1]] for j in range(h - 1)]
    spans = rng.sample(
        [(a, size) for a in range(h) for size in range(1, 6) if a + size <= h], n * t
    )
    members = [
        [order[a:a + size] for a, size in spans[v * t:(v + 1) * t]] for v in range(n)
    ]
    return {"host_edges": host, "t": t, "members": members}


def _assert_rooted_by_brute_force(fam):
    """The family's depths and subtree tops are the BFS distances from host
    vertex 0 and each subtree's least deep vertex."""
    dist = oracles.host_distances(fam.host_edges)
    assert fam._depth == [dist[x] for x in range(fam.host_size)]
    assert fam._tops == [
        [min(s, key=dist.__getitem__) for s in tracks] for tracks in fam.members
    ]


class TestSubtreeRooting:
    """A parsed subtree family checks and roots each distinct subtree once,
    with the tops, depths, host size and messages of a check per member."""

    _EDGES = [(0, 1), (1, 2), (2, 3)]
    _GOOD = [[0, 1], [2, 1]]

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_subtrees_are_rooted_as_the_brute_force(self, seed):
        drawn, _ = random_subtree_family(
            200, 3, seed, host_size=6, max_size=4, anchor=0.9, k=2
        )
        fam = TSubtreeFamily.from_dict(drawn.to_dict())
        assert len(set().union(*fam.members)) < 60  # 600 subtrees
        _assert_rooted_by_brute_force(fam)
        assert (fam._depth, fam._tops) == (drawn._depth, drawn._tops)

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_subtrees_are_rooted_as_the_brute_force(self, seed):
        fam = TSubtreeFamily.from_dict(_distinct_path_document(seed))
        assert len(set().union(*fam.members)) == 180
        _assert_rooted_by_brute_force(fam)
        assert fam.host_size == 400

    @pytest.mark.parametrize("bad, message", [
        ([], "empty subtree"),
        ([0, -1], "negative subtree vertex -1"),
        ([0, 2], "subtree vertices not connected"),
    ])
    def test_a_repeated_bad_subtree_is_reported_at_its_first_member(self, bad, message):
        good = self._GOOD
        members = [good] * 4 + [[[1, 2], bad], good, [bad, [3]], [[3], bad]]
        doc = {"host_edges": self._EDGES, "t": 2, "members": members}
        with pytest.raises(InputError, match=f"^member 4: {message}$"):
            TSubtreeFamily.from_dict(doc)
        later_count = members[:6] + [[[3]]] + members[6:]
        with pytest.raises(InputError, match=f"^member 4: {message}$"):
            TSubtreeFamily(self._EDGES, 2, later_count)
        earlier_count = [good, [[3]], *members]
        with pytest.raises(InputError, match=r"^member 1 has 1 subtree\(s\), expected 2$"):
            TSubtreeFamily(self._EDGES, 2, earlier_count)

    def test_host_size_counts_vertices_of_repeated_subtrees(self):
        assert TSubtreeFamily([], 1, [[[0]], [[0]], [[0]]]).host_size == 1
        assert TSubtreeFamily([(0, 1)], 1, []).host_size == 2
        fam = TSubtreeFamily([(0, 1), (1, 2)], 1, [[[2]], [[2, 1]], [[1, 2]], [[2]]])
        assert fam.host_size == 3 and fam._tops == [[2], [1], [1], [2]]
        with pytest.raises(InputError, match="^host is not a tree$"):
            TSubtreeFamily([(0, 1)], 1, [[[0]], [[4]], [[4]]])
        for h in (1, 2, 7):
            assert random_subtree_family(9, 2, h, host_size=h)[0].host_size == h

    def test_a_subtree_in_either_order_is_checked_once(self, monkeypatch):
        checked = []  # the check takes each subtree's least vertex once

        def spy(s, *args, **kwargs):
            checked.append(sorted(s))
            return min(s, *args, **kwargs)

        monkeypatch.setattr(core, "min", spy, raising=False)
        doc = {"host_edges": [[0, 1], [1, 2]], "t": 2,
               "members": [[[2, 1], [0]], [[1, 2], [0]], [[0], [1, 2]]]}
        fam = TSubtreeFamily.from_dict(doc)
        assert checked == [[1, 2], [0]]
        assert fam._tops == [[1, 0], [1, 0], [0, 1]]


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

    def test_kwise_intersecting_takes_both_kinds_of_family(self):
        seen = set()
        for seed in range(40):
            anchor = (seed % 4) * 0.3
            intervals, _ = random_interval_family(6, 2, seed, anchor=anchor)
            subtrees, _ = random_subtree_family(6, 2, seed, host_size=5, anchor=anchor)
            for k in range(2, 7):
                assert is_kwise_intersecting(intervals, k) == oracles.kwise_intersecting(
                    intervals, k)
                direct = is_kwise_intersecting(subtrees, k)
                assert direct == oracles.kwise_intersecting_subtrees(subtrees, k)
                seen.add(direct)
        assert seen == {True, False}
        for bad in (None, frozenset({1}), construct_k5star(), [[(0, 1)]]):
            with pytest.raises(InputError, match="^need an interval or subtree family"):
                is_kwise_intersecting(bad, 2)

    def test_kfold_bounds(self):
        assert kfold_min_colors(complete_coloring(4, 3)) == 3
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


    def test_subtree_points_are_the_brute_force_intersections(self):
        rng = random.Random(11)
        outcomes = set()
        for seed in range(40):
            drawn, _ = random_subtree_family(
                8, 3, seed, host_size=rng.randint(1, 9), anchor=rng.choice((0, 0.5, 0.9))
            )
            fam = TSubtreeFamily.from_dict(drawn.to_dict())
            col = coloring_from_subtrees(fam)
            covers = [greedy_strong_cover(col)[0]]
            for _ in range(15):
                colors = rng.sample(range(1, 4), rng.randint(1, 3))
                covers.append(StrongCover({
                    c: frozenset(rng.sample(range(8), rng.randint(0, 4))) for c in colors
                }))
            for cov in covers:
                want = oracles.subtree_piercing_points(
                    fam.host_edges, fam.members, cov.assignments
                )
                assert (want is not None) == verify_cover(col, cov).valid
                outcomes.add(want is not None)
                if want is None:
                    with pytest.raises(InputError, match="^cover is not valid"):
                        piercing_points(fam, cov)
                else:
                    assert piercing_points(fam, cov) == want
                    assert piercing_points(drawn, cov) == want
        assert outcomes == {True, False}

    def test_subtree_point_is_the_deepest_top(self):
        # host 0-1-2 and 1-3, rooted at 0: vertices 2 and 3 are both at depth 2
        fam = TSubtreeFamily(
            [(0, 1), (1, 2), (1, 3)], 2,
            [[[0, 1, 2], [2]], [[1, 3], [3]], [[1], [0, 1, 2]]],
        )
        cov = StrongCover({2: frozenset({0, 2}), 1: frozenset({0, 1, 2})})
        assert piercing_points(fam, cov) == [(1, 1), (2, 2)]
        for bad in ({0, 1}, {1, 2}):  # tops 2 and 3 tie in depth; 3 and 0
            with pytest.raises(InputError, match="^cover is not valid"):
                piercing_points(fam, StrongCover({1: frozenset({0}), 2: frozenset(bad)}))


_FORMS = {  # an assignment's vertices written as each collection a cover takes
    "list": list,
    "list-repeats": lambda vs: [*vs, *vs[::-1], *vs[:1]],
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
}


def _drawn_case(kind, seed, rng):
    """(family, coloring, oracle of its piercing points) of a seeded draw,
    a subtree family as parsed from its document."""
    anchor = rng.choice((0, 0.5, 0.9))
    if kind == "interval":
        fam, _ = random_interval_family(8, 3, seed, anchor=anchor)
        return fam, coloring_from_intervals(fam), lambda sets: (
            oracles.interval_piercing_points(fam.members, sets)
        )
    drawn, _ = random_subtree_family(
        8, 3, seed, host_size=rng.randint(1, 7), anchor=anchor
    )
    fam = TSubtreeFamily.from_dict(drawn.to_dict())
    return fam, coloring_from_subtrees(fam), lambda sets: (
        oracles.subtree_piercing_points(fam.host_edges, fam.members, sets)
    )


class TestCoverWalk:
    """``verify_cover``, ``piercing_points`` and the family check of
    ``cover`` (``core._pierced``) walk each assignment's vertices as
    written: every form of a vertex set, repeats and the empty set
    included, gives the results and messages of the set it holds."""

    @pytest.mark.parametrize("kind", ["interval", "subtree"])
    def test_every_form_gives_the_results_of_its_set(self, kind):
        rng = random.Random(17)
        outcomes = set()
        for seed in range(30):
            fam, col, points_of = _drawn_case(kind, seed, rng)
            for _ in range(8):
                sets = {
                    c: rng.sample(range(8), rng.randint(0, 4))
                    for c in rng.sample(range(1, 4), rng.randint(1, 3))
                }
                valid = all(oracles.is_clique(col.rows[c - 1], s) for c, s in sets.items())
                covered = len(set().union(*sets.values()))
                points = points_of(sets)
                assert (points is not None) == valid
                outcomes.add((valid, any(not s for s in sets.values())))
                for form in _FORMS.values():
                    cov = StrongCover({c: form(s) for c, s in sets.items()})
                    assert verify_cover(col, cov) == (valid, covered)
                    assert core._pierced(fam, cov) == (points, covered)
                    if points is None:
                        with pytest.raises(InputError, match="^cover is not valid"):
                            piercing_points(fam, cov)
                    else:
                        assert piercing_points(fam, cov) == points
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("form", _FORMS)
    def test_pinned_cases_in_every_form(self, form):
        write = _FORMS[form]
        intervals = TIntervalFamily(
            2, [[(0, 4), (0, 1)], [(2, 6), (5, 6)], [(4, 4), (1, 5)]]
        )
        subtrees = TSubtreeFamily(
            [(0, 1), (1, 2), (1, 3)], 2,
            [[[0, 1, 2], [2]], [[1, 3], [3]], [[1], [0, 1, 2]]],
        )
        for fam, col, points in (
            (intervals, coloring_from_intervals(intervals), [(1, 4)]),
            (subtrees, coloring_from_subtrees(subtrees), [(1, 1)]),
        ):
            # a clique, repeated vertices aside, and an empty assignment
            cov = StrongCover({1: write([0, 1, 2]), 2: write([])})
            assert verify_cover(col, cov) == (True, 3)
            assert piercing_points(fam, cov) == points
            assert core._pierced(fam, cov) == (points, 3)
            # members 0 and 1 do not meet on track 2
            cov = StrongCover({1: write([2]), 2: write([1, 0])})
            assert verify_cover(col, cov) == (False, 3)
            assert core._pierced(fam, cov) == (None, 3)
            with pytest.raises(
                InputError, match="^cover is not valid for the coloring of this family$"
            ):
                piercing_points(fam, cov)
            for bad in (3, -1):
                cov = StrongCover({1: write([0]), 2: write([1, bad])})
                message = f"^cover vertex {bad} out of range for n=3$"
                with pytest.raises(InputError, match=message):
                    verify_cover(col, cov)
                with pytest.raises(InputError, match=message):
                    piercing_points(fam, cov)


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


# a short range, so ends are shared and intervals repeat and nest
_INTERVAL = st.builds(
    lambda lo, length: (lo, lo + length),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from((0, 0, 1, 2, 9)),
)


@st.composite
def _interval_members(draw):
    """(t, members): n in {1, 2} half the time, and each track interval
    either drawn afresh or repeated from a small pool."""
    n = draw(st.sampled_from((1, 2)) | st.integers(min_value=1, max_value=12))
    t = draw(st.integers(min_value=1, max_value=3))
    pool = draw(st.lists(_INTERVAL, min_size=1, max_size=3))
    track = st.sampled_from(pool) | _INTERVAL
    members = draw(st.lists(
        st.lists(track, min_size=t, max_size=t), min_size=n, max_size=n
    ))
    return t, members


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

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_interval_members())
    @example((1, [[(3, 3)]]))
    @example((1, [[(0, 2)], [(2, 5)]]))
    @example((1, [[(2, 5)], [(0, 2)]]))
    @example((2, [[(-3, -1), (0, 0)], [(-1, 4), (0, 0)]]))
    def test_pointer_walk_boundaries(self, drawn):
        """Both pointer walks of the interval sweep, as ``coloring_from_intervals``
        and the draws (``_interval_coloring`` on per-track lists) call it: a
        right end equal to another member's left end meets it (the ``<=``
        walk), and a left end one past a right end does not (the ``<``
        walk), with points, negative ends, repeated and nested intervals
        and ties in both orders."""
        t, members = drawn
        expected = oracles.family_color_adjacency(members, t, _intervals_meet)
        assert coloring_from_intervals(TIntervalFamily(t, members)).rows == expected
        los = [[tracks[i][0] for tracks in members] for i in range(t)]
        his = [[tracks[i][1] for tracks in members] for i in range(t)]
        col = _interval_coloring(los, his, list(map(_right_end_order, his)))
        assert col.rows == expected

    def test_subtree_families(self):
        for seed in range(60):
            n = seed % 3 if seed < 9 else 2 + seed % 11
            fam, _ = random_subtree_family(
                max(n, 1), 1 + seed % 3, seed, host_size=2 + seed % 6
            )
            if n == 0:
                fam = TSubtreeFamily(fam.host_edges, fam.t, [])
            col = coloring_from_subtrees(fam)
            expected = oracles.family_color_adjacency(
                fam.members, fam.t, lambda a, b: bool(a & b)
            )
            assert col.rows == expected
            assert oracles.color_adjacency(col) == expected


def _grown_subtree(rng, neighbors, size):
    """A connected vertex set of up to ``size`` host vertices, grown from a
    random one."""
    grown = [rng.randrange(len(neighbors))]
    while len(grown) < size:
        frontier = [y for x in grown for y in neighbors[x] if y not in grown]
        if not frontier:
            break
        grown.append(rng.choice(frontier))
    return grown


class TestGroupedSubtreeRows:
    """A parsed family holds one set per distinct subtree as written, and
    ``coloring_from_subtrees`` sweeps each distinct subtree of a track once:
    its rows equal the pairwise test, and the per-member sweep of the
    draws, on every way of writing a subtree."""

    @pytest.mark.parametrize("seed", range(40))
    def test_rows_equal_the_pairwise_test(self, seed):
        rng = random.Random(seed)
        h, n, t = rng.randint(1, 9), rng.randint(0, 40), rng.randint(1, 3)
        host = [[rng.randrange(v), v] for v in range(1, h)]
        neighbors = [[] for _ in range(h)]
        for u, v in host:
            neighbors[u].append(v)
            neighbors[v].append(u)
        # a few subtrees repeated many times, or about as many as members
        pool = [
            _grown_subtree(rng, neighbors, rng.randint(1, 4))
            for _ in range(rng.randint(1, 3) if seed % 2 else 3 * n + 1)
        ]

        def written(s):  # in any order, with some vertices repeated
            s = s + rng.choices(s, k=rng.choice((0, 0, 2)))
            rng.shuffle(s)
            return s

        members = [[written(rng.choice(pool)) for _ in range(t)] for _ in range(n)]
        expected = oracles.family_color_adjacency(
            members, t, lambda a, b: bool(set(a) & set(b))
        )
        doc = {"host_edges": host, "t": t, "members": members}
        kinds = (list, tuple, set, frozenset)
        mixed = [[rng.choice(kinds)(s) for s in tracks] for tracks in members]
        for fam in (TSubtreeFamily.from_dict(doc), TSubtreeFamily(host, t, mixed)):
            assert coloring_from_subtrees(fam).rows == expected
        tracks = [[m[i] for m in members] for i in range(t)]
        assert core._subtree_coloring(h, tracks).rows == expected

    def test_equal_subtrees_as_written_share_one_set(self):
        doc = {"host_edges": [[0, 1], [1, 2]], "t": 2,
               "members": [[[0, 1], [2]], [[0, 1], [1, 2]], [[1, 0], [2]]]}
        (a, b), (c, d), (e, f) = TSubtreeFamily.from_dict(doc).members
        assert a is c and b is f and a == e == {0, 1} and d == {1, 2}
        assert coloring_from_subtrees(TSubtreeFamily.from_dict(doc)).rows == [
            [0b110, 0b101, 0b011], [0b110, 0b101, 0b011],
        ]

    @pytest.mark.parametrize("later", [[0, True], [True, 0], [0, 1.0], (0, False)])
    def test_vertices_are_checked_before_the_lookup(self, later):
        """(0, True) equals (0, 1), so a lookup made first would take it."""
        for first in ([0, 1], [1, 0]):
            doc = {"host_edges": [[0, 1]], "t": 1, "members": [[first], [later]]}
            with pytest.raises(
                InputError, match="^member 1: subtree vertices must be integers$"
            ):
                TSubtreeFamily.from_dict(doc)


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

    @pytest.mark.parametrize("key", [5, (0, 1, 2), (0,), "01", ("a", "b"), (False, True)])
    def test_keys_that_are_not_vertex_pairs(self, key):
        col = MultiColoring(3, 2, {(0, 1): [1]})
        view = col.edge_colors
        assert key not in view and view.get(key) is None
        with pytest.raises(KeyError):
            view[key]
        pair = isinstance(key, tuple) and len(key) == 2
        message = "^bad edge" if pair else r"^an edge \(u, v\) must be a list of 2$"
        with pytest.raises(InputError, match=message):
            MultiColoring(3, 2, {key: [1]})
        with pytest.raises(InputError, match=message):
            view[key] = [1]
        with pytest.raises(KeyError if pair else InputError):
            del view[key]
        assert col == MultiColoring(3, 2, {(0, 1): [1]})

    def test_copy_between_colorings(self):
        star = construct_k5star()
        col = MultiColoring(5, 2, star.edge_colors)
        assert col == star and col.edge_colors == star.edge_colors
        assert MultiColoring.from_dict(star.to_dict()) == star


class TestMaskPredicates:
    def test_kfold_matches_pairwise_count(self):
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
