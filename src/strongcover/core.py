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

from collections.abc import (
    Collection, Iterable, Iterator, Mapping, MutableMapping, Sequence,
)
from itertools import accumulate, chain, compress
from operator import or_, xor
from typing import NamedTuple

from . import _kernels as kernels
from .errors import InputError
from .graphs import Graph, _require_ints, bits, is_clique_mask

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


_SEQ = (list, tuple)
_SUBTREE = (*_SEQ, set, frozenset)  # what a family member's subtree may be
_COLLECTION = (*_SUBTREE, range)  # what a vertex, color or edge argument may be


def _list(value, what: str, size: int = 0):
    """``value`` if it is a list (or tuple), of exactly ``size`` items when
    ``size`` is given, else an InputError naming ``what``."""
    if not isinstance(value, _SEQ) or size and len(value) != size:
        raise InputError(f"{what} must be a list" + (f" of {size}" if size else ""))
    return value


def _collection(value, what: str):
    """``value`` if it is a list, tuple, set, frozenset or range, else an
    InputError naming ``what``."""
    if not isinstance(value, _COLLECTION):
        raise InputError(f"{what} must be a list or set, got {value!r}")
    return value


def _mapping(value, what: str):
    """``value`` if it is a mapping, else an InputError naming ``what``."""
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a mapping, got {value!r}")
    return value


def _instance(value, kinds: type | tuple[type, ...], what: str):
    """``value`` if it is an instance of ``kinds``, else an InputError
    naming ``what`` and the type given."""
    if not isinstance(value, kinds):
        raise InputError(f"need {what}, got {type(value).__name__}")
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


class EdgeColors(MutableMapping):
    """Live ``(u, v) -> frozenset of colors`` view over a coloring's rows.

    Keys are the edges u < v carrying at least one color, in lexicographic
    order; a key that is not such a pair of ints is absent.  Assigning a
    set replaces the edge's colors (an empty set removes it); deleting
    clears them.  Both writes take only a pair (u, v).
    """

    __slots__ = ("_col",)

    def __init__(self, col: "MultiColoring"):
        self._col = col

    def __getitem__(self, edge: Edge) -> frozenset[int]:
        if isinstance(edge, _SEQ) and len(edge) == 2:
            u, v = edge
            if type(u) is type(v) is int and 0 <= u < v < self._col.n:
                cs = self._col.colors_of(u, v)
                if cs:
                    return cs
        raise KeyError(edge)

    def __setitem__(self, edge: Edge, colors: Iterable[int]) -> None:
        u, v = _list(edge, "an edge (u, v)", 2)
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
        if _list(edge, "an edge (u, v)", 2) not in self:
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
    carrying color c; colors are 1-based, 1..t.  ``edge_colors`` is a live
    mapping view over the rows, and color graphs and documents are read off
    them.  A coloring built from a family (``coloring_from_*``) also keeps
    one perfect elimination ordering per color, valid while its rows are
    unchanged (``_peos``).
    """

    __slots__ = ("n", "t", "rows", "_orders")

    def __init__(
        self, n: int, t: int, edge_colors: Mapping[Edge, Iterable[int]] | None = None
    ):
        _require_ints(n=n, t=t)
        if n < 0:
            raise InputError(f"n must be nonnegative, got {n}")
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        check_size(n, t)
        self.n = n
        self.t = t
        self.rows: list[list[int]] = [[0] * n for _ in range(t)]
        self._orders = None  # (PEOs, the rows they were kept for): _keep_peos
        if edge_colors is not None:
            view = self.edge_colors
            for edge, cs in _mapping(edge_colors, "edge colors").items():
                view[edge] = cs

    @property
    def edge_colors(self) -> EdgeColors:
        return EdgeColors(self)

    def _check_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InputError(f"self-loop at {u}")
        if not (type(u) is type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"bad edge ({u!r},{v!r}) for n={self.n}")

    def _color_mask(self, colors: Iterable[int]) -> int:
        m = 0
        for c in _collection(colors, "colors"):
            if type(c) is not int or not 1 <= c <= self.t:
                raise InputError(f"color {c!r} out of range 1..{self.t}")
            m |= 1 << (c - 1)
        return m

    def _row(self, color: int) -> list[int]:
        if type(color) is not int or not 1 <= color <= self.t:
            raise InputError(f"color {color!r} out of range 1..{self.t}")
        return self.rows[color - 1]

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex set, each vertex checked against 0..n-1."""
        m = 0
        for v in _collection(vertices, "vertices"):
            if type(v) is not int or not 0 <= v < self.n:
                raise InputError(f"vertex {v!r} out of range for n={self.n}")
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
        for item in _collection(edges, "edges"):
            u, v, cs = _list(item, "an edge [u, v, colors]", 3)
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
        return frozenset(c for c, row in enumerate(self.rows, 1) if row[u] >> v & 1)

    def _later_neighbors(self, u: int) -> int:
        """Vertices v > u joined to u in at least one color."""
        union = 0
        for row in self.rows:
            union |= row[u]
        return union >> u + 1 << u + 1

    def _keep_peos(self, orders: Iterable[Sequence[int]]) -> "MultiColoring":
        """Keep ``orders``, one PEO per color of the rows as they are now,
        with a copy of those rows; returns the coloring."""
        self._orders = (tuple(map(tuple, orders)), [row.copy() for row in self.rows])
        return self

    def _peos(self) -> tuple[tuple[int, ...], ...] | None:
        """The PEOs kept by ``_keep_peos`` while the rows still equal the
        ones they were kept for, else None."""
        kept = self._orders
        return kept[0] if kept is not None and kept[1] == self.rows else None

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
        for c in _collection(colors, "colors"):
            if type(c) is not int or not 1 <= c <= self.t:
                raise InputError(f"color {c!r} out of range 1..{self.t}")
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
        number must be a plain int.

        A dense document is read in one pass that checks each edge and ORs
        it into its color set's accumulator (n neighbor masks), each of
        which is ORed into its colors' rows once at the end.  No edge is
        listed twice exactly when the accumulators' union holds two bits per
        edge.  The g-th accumulator opens only while g <= t + 1 and
        g * n * n <= 16 * E for E edges, so the pass's ``1 << v`` table and
        accumulators cost O(1) words per edge.  A sparse document, one past
        that cap or one with a fault is read edge by edge by
        ``_write_edges``, which raises the first fault in document order:
        for each edge its shape, its ints and color list, u < v, its range,
        a repeat of an earlier edge, then its colors in turn.
        """
        n, t, raw = _fields(data, "coloring", n=int, t=int, edges=list)
        col = cls(n, t)
        groups = _edge_groups(n, t, raw)
        if groups is None:
            _write_edges(col, raw)
        else:
            _drain(col.rows, groups)
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


def _edge_groups(n: int, t: int, raw: Sequence) -> dict[int, list[int]] | None:
    """The accumulators of ``from_dict``'s grouped pass, keyed by color
    mask: ``groups[m][u]`` holds the v joined to u by the edges whose colors
    make m.  None on a fault, on a repeated edge or past the cap."""
    cap = min(t + 1, 16 * len(raw) // (n * n or 1))
    if not cap:
        return None
    bit = [1 << i for i in range(max(n, t))]
    groups: dict[int, list[int]] = {}
    try:
        for item in raw:
            if not isinstance(item, _SEQ):
                return None
            u, v, cs = item  # ValueError unless three items
            if (type(u) is not int or type(v) is not int or not isinstance(cs, _SEQ)
                    or not 0 <= u < v < n):
                return None
            m = 0
            for c in cs:
                if type(c) is not int or not 1 <= c <= t:
                    return None
                m |= bit[c - 1]
            acc = groups.get(m)
            if acc is None:
                if len(groups) == cap:
                    return None
                acc = groups[m] = [0] * n
            acc[u] |= bit[v]
            acc[v] |= bit[u]
    except ValueError:
        return None
    # each distinct edge sets two bits of the union
    accs = iter(groups.values())
    union = next(accs, ())
    for acc in accs:
        union = map(or_, union, acc)
    return groups if sum(map(int.bit_count, union)) == 2 * len(raw) else None


def _drain(rows: list[list[int]], groups: dict[int, list[int]]) -> None:
    """OR each accumulator into its colors' rows.  A row no group has
    reached yet becomes a copy of the list (the masks are shared, not
    copied); a row already reached takes the accumulator's nonzero masks."""
    reached = 0
    for m, acc in groups.items():
        hits = list(compress(range(len(acc)), acc)) if m & reached else ()
        for c in bits(m):
            if reached >> c & 1:
                row = rows[c]
                for x in hits:
                    row[x] |= acc[x]
            else:
                rows[c] = acc.copy()
        reached |= m


def _write_edges(col: MultiColoring, raw: Sequence) -> None:
    """Write the edges into the rows one by one, raising the first fault
    in document order: ``from_dict``'s path for what it cannot group."""
    n, t, rows = col.n, col.t, col.rows
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


def _right_end_order(his: Sequence[int]) -> list[int]:
    """A track's members stably sorted by right end (its sweep order)."""
    return sorted(range(len(his)), key=his.__getitem__)


class _Record:
    """``==`` and ``repr`` over the fields ``_FIELDS`` names, as a dataclass
    has them."""

    _FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({args})"


class _Frozen(_Record):
    """A ``_Record`` hashed by its fields whose attributes, as a frozen
    dataclass's, can be neither assigned nor deleted."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # here, not at start-up
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def _of(cls, **attributes: object) -> "_Frozen":
        """An instance holding ``attributes`` as given, checked by no one:
        the path for arrays a draw built well formed."""
        obj = cls.__new__(cls)
        obj.__dict__.update(attributes)
        return obj


class TIntervalFamily(_Frozen):
    """n members, each a tuple of t closed integer intervals (one per track).

    A family is checked when built and cannot change, so no later layer
    checks it again.  It holds its members and their tracks as tuples, and
    each track's right-end order for its coloring's sweep and ``family_peos``.
    """

    _FIELDS = ("t", "members")

    def __init__(self, t: int, members: Sequence) -> None:
        _require_ints(t=t)
        self.__dict__.update(t=t, members=_list(members, "members"))
        members = self.validate()
        check_size(len(members), t)
        self.__dict__.update(members=members, _by_hi=tuple(
            _right_end_order([tracks[i][1] for tracks in members]) for i in range(t)
        ))

    @property
    def n(self) -> int:
        return len(self.members)

    def validate(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The checks the constructor runs, in one pass; returns the members
        as tuples.  A member or interval of the wrong shape raises at once,
        the first other fault (t, an interval count, an endpoint's type or
        order) after the pass, so a shape fault anywhere is reported first."""
        t = self.t
        fault = None if t >= 1 else f"t must be positive, got {t}"
        members = []
        # the checks are inlined so that the messages are formatted (by
        # ``_list``) only for a member that fails them
        for idx, tracks in enumerate(self.members):
            if not isinstance(tracks, _SEQ):
                _list(tracks, f"member {idx}")
            if fault is None and len(tracks) != t:
                fault = f"member {idx} has {len(tracks)} interval(s), expected {t}"
            member = []
            for iv in tracks:
                if not isinstance(iv, _SEQ) or len(iv) != 2:
                    _list(iv, f"member {idx}: an interval [lo, hi]", 2)
                lo, hi = iv
                if fault is None and not (type(lo) is type(hi) is int and lo <= hi):
                    fault = (
                        f"member {idx}: empty interval [{lo},{hi}]"
                        if type(lo) is type(hi) is int
                        else f"member {idx}: endpoints must be integers"
                    )
                member.append((lo, hi))
            members.append(tuple(member))
        if fault:
            raise InputError(fault)
        return tuple(members)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "members": [[[lo, hi] for lo, hi in tracks] for tracks in self.members],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TIntervalFamily":
        """Parse ``{"t": t, "members": [[[lo, hi], ...], ...]}``; the
        constructor requires plain int endpoints."""
        return cls(*_fields(data, "interval family", t=int, members=list))


class TSubtreeFamily(_Frozen):
    """n members, each a tuple of t vertex sets inducing subtrees of a host tree.

    Checked when built, as ``TIntervalFamily``: one pass over the host edges
    and the members checks their shapes and vertex types, then one rooting
    of the host (``_rooted``) checks the tree and the subtrees and gives the
    depths and subtree tops the family keeps.
    """

    _FIELDS = ("host_edges", "t", "members")

    def __init__(self, host_edges: Sequence, t: int, members: Sequence) -> None:
        _require_ints(t=t)
        checked = []
        for e in _list(host_edges, "host_edges"):
            if not isinstance(e, _SEQ) or len(e) != 2:
                _list(e, "a host edge [u, v]", 2)
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise InputError(f"host edge ends must be integers, got {u!r}, {v!r}")
            if u == v:
                raise InputError(f"self-loop at {u}")
            checked.append((u, v) if u < v else (v, u))
        subtrees = []
        shared = {}  # vertex tuple as written -> the one frozenset made of it
        # as in TIntervalFamily.validate, a message is formatted only for a
        # member that fails a check
        for idx, tracks in enumerate(_list(members, "members")):
            if not isinstance(tracks, _SEQ):
                _list(tracks, f"member {idx}")
            for s in tracks:
                if not isinstance(s, _SUBTREE):
                    _list(s, f"member {idx}: a subtree")
            mine = []
            for s in tracks:  # subtrees are small: a plain loop beats a set of types
                for x in s:
                    if type(x) is not int:
                        raise InputError(
                            f"member {idx}: subtree vertices must be integers"
                        )
                # looked up only once checked, as (0, True) == (0, 1)
                key = tuple(s)
                shared_s = shared.get(key)
                if shared_s is None:
                    shared_s = shared[key] = frozenset(key)
                mine.append(shared_s)
            subtrees.append(tuple(mine))
        self.__dict__.update(host_edges=tuple(checked), t=t, members=tuple(subtrees))
        depth, tops = self._rooted()
        check_size(len(subtrees), t)
        self.__dict__.update(_depth=depth, _tops=tops)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def host_size(self) -> int:
        """One more than the largest vertex of a host edge or subtree."""
        return len(self._depth)

    def validate(self) -> None:
        """The tree and subtree checks the constructor runs (``_rooted``)."""
        self._rooted()

    def _rooted(self) -> tuple[list[int], list[list[int]]]:
        """Check the family with its host rooted at 0.

        Returns the depth of every host vertex and, per member, the top
        vertex (the one nearest the root) of each of its subtrees.  One BFS
        of the host gives every vertex its parent; a vertex set of a tree is
        connected iff exactly one of its vertices has its parent outside
        the set, and that vertex is its top, so a subtree is checked in
        O(|s|).  A family of a small host repeats few subtrees many times,
        so each distinct subtree is checked once, at its first member in
        member order (where a fault in it is reported), and its top is
        looked up for the others.
        """
        t = self.t
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        top_of = dict.fromkeys(chain.from_iterable(self.members), -1)
        vertices = chain(
            chain.from_iterable(self.host_edges), chain.from_iterable(top_of)
        )
        h = max(0, 1 + max(vertices, default=-1))
        # the edge count comes first: it bounds the host by the document
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
            if len(tracks) != t:
                raise InputError(
                    f"member {idx} has {len(tracks)} subtree(s), expected {t}"
                )
            mine = []
            for s in tracks:
                top = top_of[s]
                if top < 0:  # s is first seen here
                    if not s:
                        raise InputError(f"member {idx}: empty subtree")
                    start = min(s)
                    if start < 0:
                        raise InputError(
                            f"member {idx}: negative subtree vertex {start}"
                        )
                    for x in s:
                        if parent[x] not in s:
                            if top >= 0:
                                raise InputError(
                                    f"member {idx}: subtree vertices not connected"
                                )
                            top = x
                    top_of[s] = top
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
        return cls(
            *_fields(data, "subtree family", host_edges=list, t=int, members=list)
        )


_FAMILY = (TIntervalFamily, TSubtreeFamily)


class StrongCover(_Record):
    """Partial map color -> vertex set; each set is a clique in its color."""

    _FIELDS = ("assignments",)

    def __init__(self, assignments: dict[int, frozenset[int]] | None = None) -> None:
        self.assignments = {} if assignments is None else assignments

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


class CoverReport(NamedTuple):
    valid: bool
    covered: int


def _interval_rows(
    los: list[int], his: list[int], by_hi: list[int], singles: list[int]
) -> list[int]:
    """One track's rows from its members' left ends, right ends,
    ``_right_end_order`` and the table ``singles[v] == 1 << v``.

    Member u meets exactly the members whose left end is at most u's right
    end (a prefix of the members sorted by left end) and whose right end is
    at least u's left end (a suffix of the members sorted by right end), so
    each row is one prefix mask AND one suffix mask.  One pointer per order
    finds each: by right end the prefix grows, by left end the suffix shrinks.
    """
    n = len(los)
    by_lo = sorted(range(n), key=los.__getitem__)
    sorted_los = list(map(los.__getitem__, by_lo))
    sorted_his = list(map(his.__getitem__, by_hi))
    # prefix[j]: the j members with least left ends
    prefix = list(accumulate(map(singles.__getitem__, by_lo), or_, initial=0))
    # suffix[j]: by_hi[j:], the members with the latest right ends
    suffix = list(accumulate(map(singles.__getitem__, reversed(by_hi)), or_, initial=0))
    suffix.reverse()
    rows = [0] * n
    j = 0
    for v, hi in zip(by_hi, sorted_his):
        while j < n and sorted_los[j] <= hi:
            j += 1
        rows[v] = prefix[j]
    j = 0
    for v, lo in zip(by_lo, sorted_los):
        while sorted_his[j] < lo:  # stops at v's own right end at the latest
            j += 1
        rows[v] = rows[v] & suffix[j] ^ singles[v]
    return rows


def _interval_coloring(
    los: list[list[int]], his: list[list[int]], by_his: Sequence[list[int]]
) -> MultiColoring:
    """The coloring of an interval family given per track as left-end and
    right-end arrays and ``_right_end_order``: one ``_interval_rows`` sweep
    per track."""
    col = MultiColoring(len(los[0]), len(los))
    singles = [1 << v for v in range(col.n)]
    for i, by_hi in enumerate(by_his):
        col.rows[i] = _interval_rows(los[i], his[i], by_hi, singles)
    return col


def coloring_from_intervals(fam: TIntervalFamily) -> MultiColoring:
    """Edge (u, v) gets color i when track-i intervals of u and v intersect,
    swept in the family's right-end order, which the coloring keeps as its
    PEOs (``family_peos``)."""
    _instance(fam, TIntervalFamily, "an interval family")
    return _interval_coloring(
        [[tracks[i][0] for tracks in fam.members] for i in range(fam.t)],
        [[tracks[i][1] for tracks in fam.members] for i in range(fam.t)],
        fam._by_hi,
    )._keep_peos(fam._by_hi)


def _subtree_meets(
    h: int, subtrees: Collection[Iterable[int]], masks: Iterable[int]
) -> list[int]:
    """Per subtree of one track (host vertices below h), held by the
    members in its entry of ``masks``: the mask of the members whose
    subtree shares a vertex with it, its own members included.

    Each host vertex gets the OR of the masks of the subtrees holding it; a
    subtree's meet mask is the OR of those over its vertices.
    """
    holders = [0] * h
    for bit, s in zip(masks, subtrees):
        for x in s:
            holders[x] |= bit
    out = []
    for s in subtrees:
        meets = 0
        for x in s:
            meets |= holders[x]
        out.append(meets)
    return out


def _subtree_coloring(h: int, subtrees: list[list[Iterable[int]]]) -> MultiColoring:
    """The coloring of a subtree family given per track as one subtree (host
    vertices below h) per member: one ``_subtree_meets`` sweep per track,
    each member's subtree on its own.  A seeded draw's subtrees are lists,
    mostly distinct, which grouping (``coloring_from_subtrees``) would
    only slow down."""
    col = MultiColoring(len(subtrees[0]), len(subtrees))
    singles = [1 << v for v in range(col.n)]
    for i, track in enumerate(subtrees):
        col.rows[i] = list(map(xor, _subtree_meets(h, track, singles), singles))
    return col


def coloring_from_subtrees(fam: TSubtreeFamily) -> MultiColoring:
    """Edge (u, v) gets color i when track-i subtrees of u and v share a
    vertex; the coloring keeps ``family_peos(fam)`` as its PEOs.

    A parsed family repeats few distinct subtrees many times, so each track
    is swept once per distinct subtree, held by the mask of its members:
    member v's row is its subtree's meet mask less v itself.
    """
    _instance(fam, TSubtreeFamily, "a subtree family")
    col = MultiColoring(fam.n, fam.t)
    h = fam.host_size
    singles = [1 << v for v in range(fam.n)]
    for i in range(fam.t):
        track = [tracks[i] for tracks in fam.members]
        groups = dict.fromkeys(track, 0)
        for s, bit in zip(track, singles):
            groups[s] |= bit
        meets = dict(zip(groups, _subtree_meets(h, groups, groups.values())))
        col.rows[i] = list(map(xor, map(meets.__getitem__, track), singles))
    return col._keep_peos(family_peos(fam))


def family_peos(fam: TIntervalFamily | TSubtreeFamily) -> list[list[int]]:
    """One perfect elimination ordering per color of a family's coloring.

    Interval tracks: the members by right end (Fulkerson and Gross 1965),
    the order the family holds; a member's later neighbors all contain its
    right end, so they pairwise meet.  Subtree tracks: the members by the
    depth of their subtree's top vertex, deepest first, with the host
    rooted at 0 (Gavril 1974), from the rooting the family holds; a later
    neighbor's top is no deeper, so it contains the member's top.
    """
    if isinstance(fam, TSubtreeFamily):
        depth = fam._depth
        return [
            sorted(range(fam.n), key=[-depth[top[i]] for top in fam._tops].__getitem__)
            for i in range(fam.t)
        ]
    return [list(by_hi) for by_hi in fam._by_hi]


def is_tk_coloring(
    col: MultiColoring, k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Check that every k-subset spans a monochromatic clique in some color.

    Returns (True, None) or (False, witness) with the lexicographically
    first violating k-subset.
    """
    _instance(col, MultiColoring, "a coloring")
    _require_ints(k=k)
    if not (2 <= k <= col.n):
        raise InputError(f"need 2 <= k <= n, got k={k}, n={col.n}")
    witness = kernels.first_tk_violation(col.n, k, col.rows)
    return (witness is None, witness)


def is_kwise_intersecting(fam: TIntervalFamily | TSubtreeFamily, k: int) -> bool:
    """True if every k members share a point on some track.

    Intervals on a line and subtrees of a tree (Gavril 1974) have the Helly
    property: k members share a point on a track exactly when they pairwise
    meet there, so this is the (t,k) check on the derived coloring.
    """
    _instance(fam, _FAMILY, "an interval or subtree family")
    if isinstance(fam, TSubtreeFamily):
        col = coloring_from_subtrees(fam)
    else:
        col = coloring_from_intervals(fam)
    return is_tk_coloring(col, k)[0]


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
    _instance(col, MultiColoring, "a coloring")
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


def _cover_masks(
    cov: StrongCover, t: int, n: int
) -> list[tuple[int, int, list[int]]]:
    """(color, vertex mask, vertices as listed) of each assignment of a
    cover, every color a plain int in 1..t and every vertex a plain int in
    0..n-1; the list is the one the check walked, repeats and all."""
    out = []
    assignments = _instance(cov, StrongCover, "a strong cover").assignments
    for c, s in _mapping(assignments, "cover assignments").items():
        if type(c) is not int or not 1 <= c <= t:
            raise InputError(f"cover color {c!r} out of range 1..{t}")
        m = 0
        vs = []
        for v in _collection(s, f"cover color {c}'s vertices"):
            if type(v) is not int or not 0 <= v < n:
                raise InputError(f"cover vertex {v!r} out of range for n={n}")
            m |= 1 << v
            vs.append(v)
        out.append((c, m, vs))
    return out


def verify_cover(col: MultiColoring, cov: StrongCover) -> CoverReport:
    """Check that each assigned set is a clique in its color; count coverage."""
    _instance(col, MultiColoring, "a coloring")
    seen = 0
    valid = True
    for c, m, vs in _cover_masks(cov, col.t, col.n):
        row = col.rows[c - 1]
        valid = valid and all(not m & ~(row[v] | 1 << v) for v in vs)
        seen |= m
    return CoverReport(valid=valid, covered=seen.bit_count())


def piercing_points(
    fam: TIntervalFamily | TSubtreeFamily, cov: StrongCover
) -> list[tuple[int, int]]:
    """One piercing point per assigned color of a valid cover.

    The cover is checked on the family's tracks themselves, so the check
    and the point are one computation.  On interval tracks the point for a
    clique of color i is the maximum left endpoint of the members' track-i
    intervals: by the Helly property of intervals on a line, a set is a
    clique of color i exactly when that maximum left end is at most the
    minimum right end.  On subtree tracks it is the deepest of the members'
    track-i subtree tops, with the host rooted at 0: pairwise-meeting
    subtrees share a subtree (Helly for subtrees of a tree), every member
    top is an ancestor of that shared subtree's top or the top itself, and
    so the deepest member top is that top.  A set is then a clique of color
    i exactly when the deepest member top lies in every member's subtree.

    Returns (track, point) pairs sorted by track; empty assignments are
    skipped.
    """
    points = _pierced(fam, cov)[0]
    if points is None:
        raise InputError("cover is not valid for the coloring of this family")
    return points


def _pierced(
    fam: TIntervalFamily | TSubtreeFamily, cov: StrongCover
) -> tuple[list[tuple[int, int]] | None, int]:
    """``piercing_points(fam, cov)``, or None when the cover is not valid,
    and the number of vertices the cover reaches, from one walk over it."""
    _instance(fam, _FAMILY, "an interval or subtree family")
    subtrees = isinstance(fam, TSubtreeFamily)
    points = []
    seen = 0
    valid = True
    for c, m, vs in sorted(_cover_masks(cov, fam.t, fam.n)):
        seen |= m
        if not (vs and valid):
            continue
        i = c - 1
        if subtrees:
            point = max((fam._tops[v][i] for v in vs), key=fam._depth.__getitem__)
            valid = all(point in fam.members[v][i] for v in vs)
        else:
            point = max(fam.members[v][i][0] for v in vs)
            valid = point <= min(fam.members[v][i][1] for v in vs)
        points.append((c, point))
    return (points if valid else None), seen.bit_count()
