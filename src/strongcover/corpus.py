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

    A family-derived instance also carries its family; its coloring keeps
    the family's PEOs, which the covers take as its chordality certificates
    without a search or a check.
    """

    name: str
    coloring: MultiColoring
    t: int
    k: int
    family: TIntervalFamily | TSubtreeFamily | None = None


def _instance(
    kind: str, name: str, n: int, t: int, k: int, seed: int, anchor: float,
    host_size: int = 6,
) -> ColoringInstance:
    """The seeded ``kind`` ("interval" or "subtree") family drawn with
    ``anchor``, or fully anchored when that draw misses the k-wise
    requirement, so the result is always a genuine (t,k)-coloring."""
    if kind == "interval":
        draw, args = _draw_intervals, (n, t, seed)
    elif kind == "subtree":
        draw, args = _draw_subtrees, (n, t, seed, host_size, min(4, host_size))
    else:
        raise InputError(f"unknown instance kind {kind!r}")
    fam, ok, col = draw(*args, anchor, k)
    if not ok:
        fam, ok, col = draw(*args, 1.0, k)
    if not ok:
        raise GuaranteeError(
            f"fully anchored {kind} family failed k-wise intersection", name
        )
    return ColoringInstance(name, col, t, k, fam)


def seeded_tk_instance(
    kind: str, n: int, t: int, k: int, seed: int
) -> ColoringInstance:
    """One seeded (t,k)-coloring of the requested derivation kind, 85% of
    each track anchored (see ``_instance``)."""
    return _instance(kind, f"{kind}-n{n}-t{t}-k{k}-seed{seed}", n, t, k, seed, 0.85)


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
