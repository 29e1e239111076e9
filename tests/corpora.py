"""Fixed seeded corpora for the tests, drawn by the same samplers as the
``verify`` suites; the same call always yields the same named instances,
and ``test_corpora.py`` pins each one by digest."""

from itertools import product
from typing import NamedTuple

from strongcover.constructions import (
    BlowupSpec, blow_up, construct_k4_two_paths, construct_k5star, random_interval_family
)
from strongcover.core import MultiColoring, TIntervalFamily
from strongcover.corpus import ColoringInstance, _interval_instance, _subtree_instance


class SubstitutionCase(NamedTuple):
    """A base coloring plus one vertex-to-clique substitution to apply."""

    name: str
    base: MultiColoring
    vertex: int
    size: int


_ANCHORS = (0.8, 0.9, 1.0)


def chordal_tk_corpus() -> list[ColoringInstance]:
    """216 chordal (t,k)-colorings for t, k in {2,3,4}, n in 5..15.

    Twelve interval-derived and twelve subtree-derived instances per (t,k)
    pair, rejection-sampled so every one passes the k-wise check.
    """
    items = []
    seed = 1000
    for t in (2, 3, 4):
        for k in (2, 3, 4):
            for i in range(12):
                n = 5 + (seed + 7 * i) % 11
                items.append(
                    _interval_instance(
                        f"tk-int-t{t}k{k}-{i}", n, t, k, seed + i, _ANCHORS[i % 3]
                    )
                )
            seed += 50
            for i in range(12):
                n = 5 + (seed + 7 * i) % 11
                items.append(
                    _subtree_instance(
                        f"tk-sub-t{t}k{k}-{i}",
                        n,
                        t,
                        k,
                        seed + i,
                        _ANCHORS[i % 3],
                        host_size=5 + i % 4,
                    )
                )
            seed += 50
    return items


def chordal_33_corpus() -> list[ColoringInstance]:
    """104 chordal (3,3)-colorings with n in 5..12."""
    items = []
    for i in range(52):
        n = 5 + (3 * i) % 8
        items.append(
            _interval_instance(f"33-int-{i}", n, 3, 3, 3000 + i, _ANCHORS[i % 3])
        )
    for i in range(52):
        n = 5 + (3 * i + 1) % 8
        items.append(
            _subtree_instance(
                f"33-sub-{i}", n, 3, 3, 3100 + i, _ANCHORS[i % 3], host_size=5 + i % 4
            )
        )
    return items


def chordal_tt_corpus() -> list[ColoringInstance]:
    """48 chordal (t,t)-colorings for t in {2,3,4,5}, n in 6..12."""
    items = []
    seed = 4000
    for t in (2, 3, 4, 5):
        for i in range(6):
            n = max(t + 1, 6 + (seed + 5 * i) % 7)
            items.append(
                _interval_instance(f"tt-int-t{t}-{i}", n, t, t, seed + i, _ANCHORS[i % 3])
            )
        seed += 20
        for i in range(6):
            n = max(t + 1, 6 + (seed + 5 * i) % 7)
            items.append(
                _subtree_instance(
                    f"tt-sub-t{t}-{i}", n, t, t, seed + i, _ANCHORS[i % 3], host_size=6
                )
            )
        seed += 20
    return items


def _k5star_plus_red_apex() -> MultiColoring:
    """K5* with a sixth vertex joined to the cycle entirely in color 1."""
    col = MultiColoring(6, 2)
    for edge, cs in construct_k5star().edge_colors.items():
        col.edge_colors[edge] = cs
    for v in range(5):
        col.add_colors(v, 5, [1])
    return col


def c4free_22_corpus() -> list[ColoringInstance]:
    """Induced-C4-free (2,2)-colorings: every K5* blow-up with class sizes
    in {1,2,3} (243 instances, n up to 15), one K5* with a color-1 apex,
    and 26 chordal instances that contain no K5* at all."""
    items = []
    base = construct_k5star()
    for sizes in product((1, 2, 3), repeat=5):
        name = "k5star-blowup-" + "".join(str(s) for s in sizes)
        items.append(
            ColoringInstance(name, blow_up(base, BlowupSpec(list(sizes))), 2, 2)
        )
    items.append(ColoringInstance("k5star-red-apex", _k5star_plus_red_apex(), 2, 2))
    for i in range(26):
        n = 5 + (5 * i) % 10
        items.append(
            _interval_instance(f"c4free-int-{i}", n, 2, 2, 5000 + i, _ANCHORS[i % 3])
        )
    return items


def substitution_corpus() -> list[SubstitutionCase]:
    """50 substitution cases, every result staying at n <= 9."""
    cases = []
    star = construct_k5star()
    for v in range(5):
        cases.append(SubstitutionCase(f"sub-k5star-v{v}-s2", star, v, 2))
    for size in (3, 4, 5):
        cases.append(SubstitutionCase(f"sub-k5star-v0-s{size}", star, 0, size))
    paths = construct_k4_two_paths()
    for v in range(4):
        for size in (2, 3):
            cases.append(SubstitutionCase(f"sub-k4paths-v{v}-s{size}", paths, v, size))
    for i in range(34):
        n = 4 + i % 4
        t = 2 + i % 2
        inst = _interval_instance(f"sub-base-{i}", n, t, 2, 6000 + i, _ANCHORS[i % 3])
        vertex = i % n
        size = 2 + i % 2
        cases.append(
            SubstitutionCase(f"sub-rand-{i}-v{vertex}-s{size}", inst.coloring, vertex, size)
        )
    return cases


def helly_corpus(count: int = 500, *, seed: int = 8000) -> list[TIntervalFamily]:
    """Seeded interval families with n in 2..10 and t in 1..4, anchored to
    varying degrees so the k-wise predicate comes out both true and false."""
    families = []
    anchors = (0.0, 0.3, 0.7, 1.0)
    for i in range(count):
        n = 2 + (seed + 5 * i) % 9
        t = 1 + i % 4
        fam, _ = random_interval_family(n, t, seed + i, anchor=anchors[i % 4])
        families.append(fam)
    return families
