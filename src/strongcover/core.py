"""Edge-multicolorings of complete graphs and their geometric sources.

A multicoloring assigns each edge of K_n a subset of colors 1..t.  It is a
(t,k)-coloring when every k vertices span a clique that is monochromatic in
some color.  Families of t-intervals (one closed integer interval per track)
and t-subtrees (one subtree of a host tree per track) induce such colorings:
member u and member v share color i exactly when their track-i objects
intersect.  Because intervals on a line and subtrees of a tree both have the
Helly property, a monochromatic clique in color i corresponds to a single
point piercing all track-i objects of the clique.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from . import _kernels as kernels
from .errors import InputError
from .graphs import Graph, bits, is_clique_mask

Edge = tuple[int, int]

# Largest coloring accepted.  The rows take n*t slots before any edge is
# read, so a few bytes of document could otherwise ask for gigabytes; the
# limits are checked first.  A dense coloring at the slot limit holds at
# most MAX_SLOTS * MAX_VERTICES / 8 bytes = 512 MiB of row bits.
MAX_VERTICES = 1 << 14
MAX_COLORS = 1 << 10
MAX_SLOTS = 1 << 18


def check_size(n: int, t: int) -> None:
    """InputError unless n vertices and t colors are within the limits."""
    if n > MAX_VERTICES:
        raise InputError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    if t > MAX_COLORS:
        raise InputError(f"t={t} exceeds the limit of {MAX_COLORS} colors")
    if n * t > MAX_SLOTS:
        raise InputError(f"n*t={n * t} exceeds the limit of {MAX_SLOTS} row slots")


def edge_key(u: int, v: int) -> Edge:
    if u == v:
        raise InputError(f"self-loop at {u}")
    return (u, v) if u < v else (v, u)


_SEQ = (list, tuple)


def _list(value, what: str, size: int = 0):
    """``value`` if it is a list (or tuple), of exactly ``size`` items when
    ``size`` is given, else an InputError naming ``what``."""
    if not isinstance(value, _SEQ) or size and len(value) != size:
        raise InputError(f"{what} must be a list" + (f" of {size}" if size else ""))
    return value


def _fields(data: Mapping, doc: str, **kinds: type) -> list:
    """The named fields of a parsed document, in order, each a list or a
    plain int as ``kinds`` says: a bool or a float is refused, not coerced."""
    try:
        values = [data[key] for key in kinds]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad {doc} document: {exc}") from exc
    for (key, kind), value in zip(kinds.items(), values):
        if not (isinstance(value, _SEQ) if kind is list else type(value) is int):
            raise InputError(f"bad {doc} document: {key} must be {kind.__name__}")
    return values


_COLOR_SETS: dict[int, frozenset[int]] = {}


def _color_set(mask: int) -> frozenset[int]:
    """Frozenset of the 1-based colors whose bits (color c at bit c-1) are
    set, interned so equal color sets share one object."""
    cs = _COLOR_SETS.get(mask)
    if cs is None:
        if len(_COLOR_SETS) >= 1 << 16:
            _COLOR_SETS.clear()
        cs = _COLOR_SETS[mask] = frozenset(c + 1 for c in bits(mask))
    return cs


class EdgeColors(MutableMapping):
    """Live ``(u, v) -> frozenset of colors`` view over a coloring's rows.

    Keys are the edges u < v carrying at least one color, in lexicographic
    order.  Assigning a set replaces the edge's colors (an empty set
    removes it); deleting clears them.
    """

    __slots__ = ("_col",)

    def __init__(self, col: "MultiColoring"):
        self._col = col

    def __getitem__(self, edge: Edge) -> frozenset[int]:
        u, v = edge
        if not (0 <= u < v < self._col.n):
            raise KeyError(edge)
        cs = self._col.colors_of(u, v)
        if not cs:
            raise KeyError(edge)
        return cs

    def __setitem__(self, edge: Edge, colors: Iterable[int]) -> None:
        u, v = edge
        col = self._col
        col._check_edge(u, v)
        want = col._color_mask(colors)
        bu, bv = 1 << u, 1 << v
        for c, row in enumerate(col.rows):
            if want >> c & 1:
                row[u] |= bv
                row[v] |= bu
            else:
                row[u] &= ~bv
                row[v] &= ~bu

    def __delitem__(self, edge: Edge) -> None:
        if edge not in self:
            raise KeyError(edge)
        self[edge] = ()

    def __iter__(self) -> Iterator[Edge]:
        col = self._col
        for u in range(col.n):
            for v in bits(col._later_neighbors(u)):
                yield u, v

    def __len__(self) -> int:
        col = self._col
        return sum(col._later_neighbors(u).bit_count() for u in range(col.n))


class MultiColoring:
    """Multicolored K_n stored as per-color adjacency rows.

    ``rows[c - 1][v]`` is the bitmask of vertices joined to v by an edge
    carrying color c; colors are 1-based, 1..t.  The rows are the only
    state: ``edge_colors`` is a live mapping view over them, and color
    graphs and documents are read off them.
    """

    __slots__ = ("n", "t", "rows")

    def __init__(
        self, n: int, t: int, edge_colors: Mapping[Edge, Iterable[int]] | None = None
    ):
        if n < 0:
            raise InputError(f"n must be nonnegative, got {n}")
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        check_size(n, t)
        self.n = n
        self.t = t
        self.rows: list[list[int]] = [[0] * n for _ in range(t)]
        if edge_colors:
            view = self.edge_colors
            for edge, cs in edge_colors.items():
                view[edge] = cs

    @property
    def edge_colors(self) -> EdgeColors:
        return EdgeColors(self)

    def _check_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InputError(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"bad edge ({u},{v}) for n={self.n}")

    def _color_mask(self, colors: Iterable[int]) -> int:
        m = 0
        for c in colors:
            if not (1 <= c <= self.t):
                raise InputError(f"color {c} out of range 1..{self.t}")
            m |= 1 << (c - 1)
        return m

    def _row(self, color: int) -> list[int]:
        if not (1 <= color <= self.t):
            raise InputError(f"color {color} out of range 1..{self.t}")
        return self.rows[color - 1]

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex set, each vertex checked against 0..n-1."""
        m = 0
        for v in vertices:
            if not (0 <= v < self.n):
                raise InputError(f"vertex {v} out of range for n={self.n}")
            m |= 1 << v
        return m

    def validate(self) -> None:
        """Check the rows' shape in O(t n): t rows of n masks, no bit at or
        beyond n, no self-loop.  Every writer of the package keeps this shape,
        with both endpoints' rows in step, so no algorithm calls this: it
        checks rows assigned by hand."""
        if self.n < 0:
            raise InputError(f"n must be nonnegative, got {self.n}")
        if self.t < 1 or len(self.rows) != self.t:
            raise InputError(f"t must be positive and match the rows, got {self.t}")
        n = self.n
        for row in self.rows:
            if len(row) != n:
                raise InputError(f"color row has {len(row)} entries for n={n}")
            bit = 1
            for v, r in enumerate(row):
                if r >> n or r & bit:
                    raise InputError(f"vertex {v} has a bad adjacency row")
                bit <<= 1

    @classmethod
    def from_edges(
        cls, n: int, t: int, edges: Iterable[tuple[int, int, Iterable[int]]]
    ) -> "MultiColoring":
        col = cls(n, t)
        for u, v, cs in edges:
            col.add_colors(u, v, cs)
        return col

    def add_colors(self, u: int, v: int, colors: Iterable[int]) -> None:
        self._check_edge(u, v)
        add = self._color_mask(colors)
        bu, bv = 1 << u, 1 << v
        for c in bits(add):
            row = self.rows[c]
            row[u] |= bv
            row[v] |= bu

    def colors_of(self, u: int, v: int) -> frozenset[int]:
        self._check_edge(u, v)
        m = 0
        bit = 1
        for row in self.rows:
            if row[u] >> v & 1:
                m |= bit
            bit <<= 1
        return _color_set(m)

    def _later_neighbors(self, u: int) -> int:
        """Vertices v > u joined to u in at least one color."""
        union = 0
        for row in self.rows:
            union |= row[u]
        return union >> u + 1 << u + 1

    def color_graph(self, i: int) -> Graph:
        """Graph of edges carrying color i."""
        g = Graph(self.n)
        g.adj = list(self._row(i))
        return g

    def is_clique_mask(self, mask: int, color: int) -> bool:
        """True if the vertices of ``mask`` are pairwise joined in ``color``."""
        return is_clique_mask(self._row(color), mask)

    def select_colors(self, colors: Sequence[int]) -> "MultiColoring":
        """Coloring keeping only the listed colors, relabeled to 1..len(colors).

        New color j+1 is old ``colors[j]``.  Edges losing all colors drop out.
        """
        seen = set()
        for c in colors:
            if not (1 <= c <= self.t):
                raise InputError(f"color {c} out of range 1..{self.t}")
            if c in seen:
                raise InputError(f"duplicate color {c}")
            seen.add(c)
        sel = MultiColoring(self.n, len(colors))
        sel.rows = [list(self.rows[c - 1]) for c in colors]
        return sel

    def to_dict(self) -> dict:
        edges = [[u, v, sorted(cs)] for (u, v), cs in self.edge_colors.items()]
        return {"n": self.n, "t": self.t, "edges": edges}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MultiColoring":
        """Parse ``{"n": n, "t": t, "edges": [[u, v, [colors]], ...]}``; every
        number must be a plain int."""
        n, t, raw = _fields(data, "coloring", n=int, t=int, edges=list)
        col = cls(n, t)
        rows = col.rows
        listed = [0] * n  # listed[u]: the v > u of the edges (u, v) read so far
        for item in raw:
            if not isinstance(item, _SEQ) or len(item) != 3:
                _list(item, "an edge [u, v, colors]", 3)
            u, v, cs = item
            if type(u) is not int or type(v) is not int or not isinstance(cs, _SEQ):
                raise InputError(f"an edge must be [int, int, list], got {item!r}")
            if not u < v:
                raise InputError(f"edge ({u},{v}) must satisfy u < v")
            if u < 0 or v >= n:
                raise InputError(f"bad edge ({u},{v}) for n={n}")
            # a repeated edge passed the range check on its first listing
            bv = 1 << v
            if listed[u] & bv:
                raise InputError(f"edge ({u},{v}) listed twice")
            listed[u] |= bv
            bu = 1 << u
            for c in cs:
                if type(c) is not int or not 1 <= c <= t:
                    raise InputError(f"color {c!r} out of range 1..{t}")
                row = rows[c - 1]
                row[u] |= bv
                row[v] |= bu
        return col

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiColoring)
            and self.n == other.n
            and self.t == other.t
            and self.rows == other.rows
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"MultiColoring(n={self.n}, t={self.t}, edges={len(self.edge_colors)})"


@dataclass
class TIntervalFamily:
    """n members, each a tuple of t closed integer intervals (one per track)."""

    t: int
    members: list[list[tuple[int, int]]]

    @property
    def n(self) -> int:
        return len(self.members)

    def validate(self) -> None:
        if self.t < 1:
            raise InputError(f"t must be positive, got {self.t}")
        for idx, tracks in enumerate(self.members):
            if len(tracks) != self.t:
                raise InputError(
                    f"member {idx} has {len(tracks)} interval(s), expected {self.t}"
                )
            for lo, hi in tracks:
                if type(lo) is not int or type(hi) is not int:
                    raise InputError(f"member {idx}: endpoints must be integers")
                if lo > hi:
                    raise InputError(f"member {idx}: empty interval [{lo},{hi}]")

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "members": [[[lo, hi] for lo, hi in tracks] for tracks in self.members],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TIntervalFamily":
        """Parse ``{"t": t, "members": [[[lo, hi], ...], ...]}``; ``validate``
        requires plain int endpoints."""
        t, raw = _fields(data, "interval family", t=int, members=list)
        members = []
        # the checks are inlined so that the messages are formatted (by
        # ``_list``) only for a member that fails them
        for idx, tracks in enumerate(raw):
            if not isinstance(tracks, _SEQ):
                _list(tracks, f"member {idx}")
            ivs = []
            for iv in tracks:
                if not isinstance(iv, _SEQ) or len(iv) != 2:
                    _list(iv, f"member {idx}: an interval [lo, hi]", 2)
                ivs.append(tuple(iv))
            members.append(ivs)
        fam = cls(t, members)
        fam.validate()
        return fam


@dataclass
class TSubtreeFamily:
    """n members, each a tuple of t vertex sets inducing subtrees of a host tree."""

    host_edges: list[Edge]
    t: int
    members: list[list[frozenset[int]]]

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def host_size(self) -> int:
        """One more than the largest vertex of a host edge or subtree."""
        ends = chain.from_iterable(self.host_edges)
        vertices = chain.from_iterable(chain.from_iterable(self.members))
        return max(0, 1 + max(chain(ends, vertices), default=-1))

    def validate(self) -> None:
        self._rooted()

    def _rooted(self) -> tuple[list[int], list[list[int]]]:
        """Check the family with its host rooted at 0.

        Returns the depth of every host vertex and, per member, the top
        vertex (the one nearest the root) of each of its subtrees.  One BFS
        of the host gives every vertex its parent; a vertex set of a tree is
        connected iff exactly one of its vertices has its parent outside
        the set, and that vertex is its top, so each subtree is checked in
        O(|s|).
        """
        if self.t < 1:
            raise InputError(f"t must be positive, got {self.t}")
        # the edge count comes first: it bounds the host by the document
        h = self.host_size
        if h > 0 and len(self.host_edges) != h - 1:
            raise InputError("host is not a tree")
        host = Graph(h, self.host_edges)
        parent = [-1] * h
        depth = [0] * h
        seen = 1 if h else 0
        frontier = [0] if h else []
        while frontier:
            nxt = []
            for u in frontier:
                for v in bits(host.adj[u] & ~seen):
                    seen |= 1 << v
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    nxt.append(v)
            frontier = nxt
        if seen != host.full_mask():
            raise InputError("host is not a tree")
        tops = []
        for idx, tracks in enumerate(self.members):
            if len(tracks) != self.t:
                raise InputError(
                    f"member {idx} has {len(tracks)} subtree(s), expected {self.t}"
                )
            mine = []
            for s in tracks:
                if not s:
                    raise InputError(f"member {idx}: empty subtree")
                start = min(s)
                if start < 0:
                    raise InputError(f"member {idx}: negative subtree vertex {start}")
                top = -1
                for x in s:
                    if parent[x] not in s:
                        if top >= 0:
                            raise InputError(
                                f"member {idx}: subtree vertices not connected"
                            )
                        top = x
                mine.append(top)
            tops.append(mine)
        return depth, tops

    def to_dict(self) -> dict:
        return {
            "host_edges": [[u, v] for u, v in self.host_edges],
            "t": self.t,
            "members": [[sorted(s) for s in tracks] for tracks in self.members],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TSubtreeFamily":
        """Parse ``{"host_edges": [[u, v], ...], "t": t, "members": [[[vertex,
        ...], ...], ...]}``; every number must be a plain int."""
        raw_edges, t, raw = _fields(
            data, "subtree family", host_edges=list, t=int, members=list
        )
        host_edges = []
        for e in raw_edges:
            u, v = _list(e, "a host edge [u, v]", 2)
            if type(u) is not int or type(v) is not int:
                raise InputError(f"host edge ends must be integers, got {u!r}, {v!r}")
            host_edges.append(edge_key(u, v))
        members = []
        # as in TIntervalFamily.from_dict, a message is formatted only for a
        # member that fails a check
        for idx, tracks in enumerate(raw):
            if not isinstance(tracks, _SEQ):
                _list(tracks, f"member {idx}")
            for s in tracks:
                if not isinstance(s, _SEQ):
                    _list(s, f"member {idx}: a subtree")
            if not set(map(type, chain.from_iterable(tracks))) <= {int}:
                raise InputError(f"member {idx}: subtree vertices must be integers")
            members.append([frozenset(s) for s in tracks])
        fam = cls(host_edges, t, members)
        fam.validate()
        return fam


@dataclass
class StrongCover:
    """Partial map color -> vertex set; each set is a clique in its color."""

    assignments: dict[int, frozenset[int]] = field(default_factory=dict)

    def vertices(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for s in self.assignments.values():
            out |= s
        return out

    def covered(self) -> int:
        return len(self.vertices())

    def size(self) -> int:
        """Number of cliques used (empty assignments do not count)."""
        return sum(1 for s in self.assignments.values() if s)

    def to_dict(self) -> dict:
        return {
            "assignments": [
                [c, sorted(s)] for c, s in sorted(self.assignments.items())
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StrongCover":
        """Parse ``{"assignments": [[color, [vertex, ...]], ...]}``; every
        number must be a plain int."""
        (raw,) = _fields(data, "cover", assignments=list)
        pairs = {}
        for item in raw:
            c, vs = _list(item, "an assignment [color, vertices]", 2)
            vs = _list(vs, "an assignment's vertices")
            if type(c) is not int or not set(map(type, vs)) <= {int}:
                raise InputError(
                    f"an assignment must be [int, [int, ...]], got {item!r}"
                )
            if c in pairs:
                raise InputError("cover assigns the same color twice")
            pairs[c] = frozenset(vs)
        return cls(pairs)


@dataclass
class CoverReport:
    valid: bool
    covered: int


def _interval_rows(los: list[int], his: list[int]) -> tuple[list[int], list[int]]:
    """One track's rows from its members' left and right ends, and the
    members by right end (stably sorted, as ``family_peos`` orders them).

    Member u meets exactly the members whose left end is at most u's right
    end (a prefix of the members sorted by left end) and whose right end is
    at least u's left end (a suffix of the members sorted by right end), so
    each row is one prefix mask AND one suffix mask.
    """
    n = len(los)
    by_lo = sorted(range(n), key=los.__getitem__)
    by_hi = sorted(range(n), key=his.__getitem__)
    sorted_los = [los[v] for v in by_lo]
    sorted_his = [his[v] for v in by_hi]
    prefix = [0] * (n + 1)  # prefix[j]: the j members with least left ends
    for j, v in enumerate(by_lo):
        prefix[j + 1] = prefix[j] | 1 << v
    suffix = [0] * (n + 1)  # suffix[j]: by_hi[j:], the latest right ends
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] | 1 << by_hi[j]
    rows = [
        (prefix[bisect_right(sorted_los, hi)] & suffix[bisect_left(sorted_his, lo)])
        ^ 1 << v
        for v, lo, hi in zip(range(n), los, his)
    ]
    return rows, by_hi


def coloring_from_intervals(fam: TIntervalFamily) -> MultiColoring:
    """Edge (u, v) gets color i when track-i intervals of u and v intersect.

    One ``_interval_rows`` sweep per track.
    """
    fam.validate()
    col = MultiColoring(fam.n, fam.t)
    for i in range(fam.t):
        col.rows[i] = _interval_rows(
            [tracks[i][0] for tracks in fam.members],
            [tracks[i][1] for tracks in fam.members],
        )[0]
    return col


def _subtree_rows(h: int, subtrees: Sequence[Iterable[int]]) -> list[int]:
    """One track's rows from its members' subtrees (host vertices below h).

    Each host vertex gets the mask of members whose subtree holds it; a
    member's row is the OR of those masks over its subtree.
    """
    holders = [0] * h
    for v, s in enumerate(subtrees):
        bit = 1 << v
        for x in s:
            holders[x] |= bit
    rows = []
    for v, s in enumerate(subtrees):
        meets = 0
        for x in s:
            meets |= holders[x]
        rows.append(meets ^ 1 << v)
    return rows


def coloring_from_subtrees(fam: TSubtreeFamily) -> MultiColoring:
    """Edge (u, v) gets color i when track-i subtrees of u and v share a vertex.

    One ``_subtree_rows`` sweep per track.
    """
    h = len(fam._rooted()[0])
    col = MultiColoring(fam.n, fam.t)
    for i in range(fam.t):
        col.rows[i] = _subtree_rows(h, [tracks[i] for tracks in fam.members])
    return col


def family_peos(fam: TIntervalFamily | TSubtreeFamily) -> list[list[int]]:
    """One perfect elimination ordering per color of a family's coloring.

    Interval tracks: the members by right end (Fulkerson and Gross 1965);
    a member's later neighbors all contain its right end, so they pairwise
    meet.  Subtree tracks: the members by the depth of their subtree's top
    vertex, deepest first, with the host rooted at 0 (Gavril 1974); a later
    neighbor's top is no deeper, so it contains the member's top.  The
    family is validated as ``coloring_from_*`` validate it.
    """
    if isinstance(fam, TSubtreeFamily):
        depth, tops = fam._rooted()
        return [
            sorted(range(fam.n), key=[-depth[top[i]] for top in tops].__getitem__)
            for i in range(fam.t)
        ]
    fam.validate()
    return [
        sorted(range(fam.n), key=[tracks[i][1] for tracks in fam.members].__getitem__)
        for i in range(fam.t)
    ]


def is_tk_coloring(
    col: MultiColoring, k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Check that every k-subset spans a monochromatic clique in some color.

    Returns (True, None) or (False, witness) with the lexicographically
    first violating k-subset.
    """
    if not (2 <= k <= col.n):
        raise InputError(f"need 2 <= k <= n, got k={k}, n={col.n}")
    witness = kernels.first_tk_violation(col.n, k, col.rows)
    return (witness is None, witness)


def is_kwise_intersecting(fam: TIntervalFamily, k: int) -> bool:
    """True if every k members share a point on some track.

    By the Helly property of intervals on a line, k members share a point
    on a track exactly when they pairwise meet there, so this is the (t,k)
    check on the derived coloring.
    """
    return is_tk_coloring(coloring_from_intervals(fam), k)[0]


def count_layers(masks: Iterable[int], top: int) -> list[int]:
    """``layers[j]``: bits set in at least j of ``masks``, for j = 0..top.

    ``layers[0]`` is -1 (every bit).  With one mask per color of a vertex's
    rows, ``layers[j]`` holds the neighbors joined to it by j or more colors.
    """
    layers = [-1] + [0] * top
    for m in masks:
        for j in range(top, 0, -1):
            layers[j] |= layers[j - 1] & m
    return layers


def kfold_min_colors(col: MultiColoring) -> int:
    """Minimum number of colors carried by any edge."""
    n = col.n
    if n < 2:
        raise InputError(f"need at least two vertices, got n={n}")
    full = (1 << n) - 1
    best = col.t
    for u in range(n - 1):
        later = full >> u + 1 << u + 1
        layers = count_layers([row[u] for row in col.rows], best)
        while later & ~layers[best]:
            best -= 1
        if best == 0:
            return 0
    return best


def verify_cover(col: MultiColoring, cov: StrongCover) -> CoverReport:
    """Check that each assigned set is a clique in its color; count coverage."""
    seen = 0
    valid = True
    for c, s in cov.assignments.items():
        if not (1 <= c <= col.t):
            raise InputError(f"cover color {c} out of range 1..{col.t}")
        m = 0
        for v in s:
            if not (0 <= v < col.n):
                raise InputError(f"cover vertex {v} out of range for n={col.n}")
            m |= 1 << v
        if not col.is_clique_mask(m, c):
            valid = False
        seen |= m
    return CoverReport(valid=valid, covered=seen.bit_count())


def piercing_points(
    fam: TIntervalFamily, cov: StrongCover
) -> list[tuple[int, int]]:
    """One piercing point per assigned color of a valid cover.

    For each clique of color i the point is the maximum left endpoint of the
    members' track-i intervals.  The cover is checked on the intervals
    themselves: by the Helly property of intervals on a line, a set is a
    clique of color i exactly when that maximum left end is at most the
    minimum right end, so the check and the point are one computation.
    Returns (track, point) pairs sorted by track; empty assignments are
    skipped.
    """
    fam.validate()
    for c, s in cov.assignments.items():
        if not (1 <= c <= fam.t):
            raise InputError(f"cover color {c} out of range 1..{fam.t}")
        for v in s:
            if not (0 <= v < fam.n):
                raise InputError(f"cover vertex {v} out of range for n={fam.n}")
    out = []
    for c in sorted(cov.assignments):
        s = cov.assignments[c]
        if not s:
            continue
        lo = max(fam.members[v][c - 1][0] for v in s)
        hi = min(fam.members[v][c - 1][1] for v in s)
        if lo > hi:
            raise InputError("cover is not valid for the coloring of this family")
        out.append((c, lo))
    return out
