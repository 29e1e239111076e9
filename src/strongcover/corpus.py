"""Seeded instances behind the ``verify`` suites.

Every function here is pure in its arguments: the same call always yields
the same instances, so a failing ``verify`` row can be replayed by name.
Interval- and subtree-derived colorings are chordal per color by
construction, which is what the cover routines expect.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import (
    _draw_intervals,
    _draw_subtrees,
    random_interval_family,
    random_subtree_family,
)
from .core import (
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
)
from .errors import GuaranteeError, InputError
from .graphs import Graph


class ColoringInstance(NamedTuple):
    """A named coloring together with the k level it is guaranteed to meet.

    A family-derived instance also carries its family and one perfect
    elimination ordering per color (``family_peos``'s, handed out by the
    draw), so the covers check its chordality in O(n) mask steps instead of
    searching for it.
    """

    name: str
    coloring: MultiColoring
    t: int
    k: int
    peos: list[list[int]] | None = None
    family: TIntervalFamily | TSubtreeFamily | None = None


def _interval_instance(
    name: str, n: int, t: int, k: int, seed: int, anchor: float
) -> ColoringInstance:
    fam, ok, col, peos = _draw_intervals(n, t, seed, anchor, k)
    if not ok:
        fam, ok, col, peos = _draw_intervals(n, t, seed, 1.0, k)
    if not ok:
        raise GuaranteeError(
            "fully anchored interval family failed k-wise intersection", name
        )
    return ColoringInstance(name, col, t, k, peos, fam)


def _subtree_instance(
    name: str, n: int, t: int, k: int, seed: int, anchor: float, host_size: int
) -> ColoringInstance:
    max_size = min(4, host_size)
    fam, ok, col, peos = _draw_subtrees(n, t, seed, host_size, max_size, anchor, k)
    if not ok:
        fam, ok, col, peos = _draw_subtrees(n, t, seed, host_size, max_size, 1.0, k)
    if not ok:
        raise GuaranteeError(
            "fully anchored subtree family failed k-wise intersection", name
        )
    return ColoringInstance(name, col, t, k, peos, fam)


def seeded_tk_instance(
    kind: str, n: int, t: int, k: int, seed: int
) -> ColoringInstance:
    """One seeded (t,k)-coloring of the requested derivation kind, 85% of
    each track anchored.

    Falls back to full anchoring when the first draw misses the k-wise
    requirement, so the result is always a genuine (t,k)-coloring.
    """
    name = f"{kind}-n{n}-t{t}-k{k}-seed{seed}"
    if kind == "interval":
        return _interval_instance(name, n, t, k, seed, 0.85)
    if kind == "subtree":
        return _subtree_instance(name, n, t, k, seed, 0.85, host_size=6)
    raise InputError(f"unknown instance kind {kind!r}")


def random_chordal_graphs(count: int = 500, *, seed: int = 7000) -> list[Graph]:
    """Seeded chordal graphs via single-track interval and subtree families."""
    graphs = []
    for i in range(count):
        n = 2 + (seed + 3 * i) % 13
        if i % 2 == 0:
            fam, _ = random_interval_family(n, 1, seed + i)
            col = coloring_from_intervals(fam)
        else:
            sfam, _ = random_subtree_family(
                n, 1, seed + i, host_size=3 + i % 6, max_size=3
            )
            col = coloring_from_subtrees(sfam)
        graphs.append(col.color_graph(1))
    return graphs
