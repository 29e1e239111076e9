"""Small undirected simple graphs with per-vertex bitset adjacency.

Vertices are 0..n-1 and adjacency rows are Python integers used as bitsets,
which keeps subset and neighborhood arithmetic to single int operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit set per vertex."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_FLIP = str.maketrans("01", "10")


def lex_key(mask: int) -> str:
    """Sort key ordering masks as their vertex tuples ``tuple(bits(mask))``.

    The key is the binary string read from bit 0 up, with 0 and 1 swapped,
    so its i-th character is "0" when vertex i is in the mask; the empty
    mask maps to "".  Let i be the first vertex in one mask a but not in the
    other, b.  If b has a vertex above i, a's tuple is the smaller, and a's
    key has "0" at i against b's "1".  Otherwise b's tuple is a prefix of
    a's, and b's key, which ends before i, is a prefix of a's key; strings,
    like tuples, put a prefix first.  The key takes a few C-level string
    operations and no Python loop over the vertices.
    """
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


def _require_ints(**values: object) -> None:
    """InputError unless every value is a plain int: a bool or a float is
    refused, not coerced."""
    for key, value in values.items():
        if type(value) is not int:
            raise InputError(f"{key} must be int, got {value!r}")


def is_clique_mask(adj: list[int], mask: int) -> bool:
    """True if the vertices of ``mask`` are pairwise adjacent in ``adj``."""
    for v in bits(mask):
        if mask & ~adj[v] & ~(1 << v):
            return False
    return True


class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _require_ints(n=n)
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self.adj: list[int] = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InputError(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            later = self.adj[u] >> (u + 1)
            for off in bits(later):
                yield u, u + 1 + off

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_clique(self, mask: int) -> bool:
        """True if the vertices of ``mask`` are pairwise adjacent."""
        return is_clique_mask(self.adj, mask)

    def component_mask(self, start: int) -> int:
        """Bitmask of the connected component containing ``start``."""
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.component_mask(0) == self.full_mask()

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph relabeled to 0..m-1 preserving vertex order.

        Returns the subgraph and the list mapping new labels to old ones.
        """
        old = sorted(set(vertices))
        if old and not (0 <= old[0] and old[-1] < self.n):
            raise InputError("subgraph vertices out of range")
        index = {v: i for i, v in enumerate(old)}
        sub = Graph(len(old))
        for i, v in enumerate(old):
            row = 0
            for w in bits(self.adj[v]):
                j = index.get(w)
                if j is not None:
                    row |= 1 << j
            sub.adj[i] = row
        return sub, old

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = list(self.adj)
        return g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"
