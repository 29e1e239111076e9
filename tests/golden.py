"""Golden digests of ``strongcover`` reports on fixed documents.

Documents are drawn with the standard library's ``random`` only, never
with the package's generators, so a change to a generator cannot move
them.  ``golden_cover_exact.json`` pins ``cover exact`` on edges
documents:

* K5* blow-ups (a red 5-cycle and a blue 5-cycle on five classes, every
  edge inside a class in both colors) with classes of 1-4 vertices, under
  a random relabeling;
* complete multipartite graphs whose cross edges each carry a random
  nonempty subset of the colors, under a random relabeling;
* random colorings with n <= 12 and t <= 3, some pairs carrying no color;
* instances with n = 0 and n = 1.

``golden_families.json`` pins ``cover greedy --k 2``, ``cover t33``,
``cover tt``, ``cover c4free22`` and ``check --tk 2 --chordal --c4free``
on family documents:

* interval families: anchored tracks, point intervals on a short range
  (many ties in right ends), nested intervals about a common center,
  intervals on an even grid (many shared endpoints), all with some
  negative endpoints;
* subtree families on random, path and star hosts under a random vertex
  relabeling, each subtree grown from a track hub or a random root;
* families with n = 0 and n = 1;
* malformed variants of the above, each with one or two faults, which
  must exit 2 under every command line.

``golden_edges.json`` pins ``check --chordal``, ``check --c4free``,
``check --chordal --c4free --kfold 1``, ``cover greedy --k 2``,
``cover t33``, ``cover tt`` and ``cover c4free22`` on edges documents:
the documents of ``golden_cover_exact.json`` and the colorings of the
well-formed family documents, derived here from the members (no package
code builds them).  Many of them are not chordal, so these runs pin the
holes that ``check --chordal`` reports.  It also pins command lines that
read no document: ``gen intervals`` and ``gen subtrees`` over a grid of
sizes, anchors, k and seeds, the named constructions, and every
``verify`` suite on a small corpus.

``golden_kernels.json`` pins, for every edges document, the order in
which the pivoted Bron-Kerbosch kernel (``_kernels.maximal_cliques``)
emits each color's maximal cliques.  Every caller sorts the cliques or
takes their largest, so no report shows that order, but the pivot rule
(most candidates, ties to the smallest index) fixes it.

Each run is pinned by a truncated sha256 of its document, its exit code,
a truncated sha256 of the report less ``times`` (the only part of a report
that differs between identical runs) when there is a report, and a
truncated sha256 of the standard error text when there is one.
``test_golden.py`` checks them.  To print the cases whose digests moved
(the exit code is then 1), or to write new files after an intended output
change, run (it imports the package from this checkout's ``src``):

    python tests/golden.py          # list changed cases
    python tests/golden.py --write  # rewrite the digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":  # a script imports the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strongcover import _kernels as kernels
from strongcover.cli import main
from strongcover.core import MultiColoring

DIGESTS = Path(__file__).with_name("golden_cover_exact.json")
ARGV = ["cover", "exact", "-"]
FAMILY_DIGESTS = Path(__file__).with_name("golden_families.json")
FAMILY_ARGV = {
    "cover-greedy-k2": ["cover", "greedy", "-", "--k", "2"],
    "cover-t33": ["cover", "t33", "-"],
    "cover-tt": ["cover", "tt", "-"],
    "cover-c4free22": ["cover", "c4free22", "-"],
    "check-tk2-chordal-c4free": ["check", "-", "--tk", "2", "--chordal", "--c4free"],
}
EDGES_DIGESTS = Path(__file__).with_name("golden_edges.json")
KERNEL_DIGESTS = Path(__file__).with_name("golden_kernels.json")
EDGES_ARGV = {
    "check-chordal": ["check", "-", "--chordal"],
    "check-c4free": ["check", "-", "--c4free"],
    "check-chordal-c4free-kfold1": ["check", "-", "--chordal", "--c4free", "--kfold", "1"],
    "cover-greedy-k2": ["cover", "greedy", "-", "--k", "2"],
    "cover-t33": ["cover", "t33", "-"],
    "cover-tt": ["cover", "tt", "-"],
    "cover-c4free22": ["cover", "c4free22", "-"],
}


def _relabeled(n: int, t: int, pairs: dict, rng: random.Random) -> dict:
    """Edges document of ``pairs`` ((u, v) -> color list) with the vertices
    renamed by a seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(
        [*sorted((perm[u], perm[v])), sorted(cs)] for (u, v), cs in pairs.items()
    )
    return {"n": n, "t": t, "edges": edges}


def k5star_blowup(rng: random.Random) -> dict:
    sizes = [rng.randint(1, 4) for _ in range(5)]
    cls = [c for c, s in enumerate(sizes) for _ in range(s)]
    n = len(cls)
    pairs = {}
    for u in range(n):
        for v in range(u + 1, n):
            d = (cls[v] - cls[u]) % 5
            pairs[u, v] = [1, 2] if d == 0 else [1] if d in (1, 4) else [2]
    return _relabeled(n, 2, pairs, rng)


def multipartite(rng: random.Random) -> dict:
    part = [p for p in range(rng.randint(2, 4)) for _ in range(rng.randint(1, 4))]
    n = len(part)
    t = rng.randint(1, 3)
    pairs = {}
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] != part[v]:
                k = rng.randint(1, t)
                pairs[u, v] = rng.sample(range(1, t + 1), k)
    return _relabeled(n, t, pairs, rng)


def random_coloring(rng: random.Random) -> dict:
    n = rng.randint(2, 12)
    t = rng.randint(1, 3)
    density = rng.choice((0.3, 0.6, 0.9))
    pairs = {}
    for u in range(n):
        for v in range(u + 1, n):
            cs = [c for c in range(1, t + 1) if rng.random() < density]
            if cs:
                pairs[u, v] = cs
    return _relabeled(n, t, pairs, rng)


def documents() -> dict[str, dict]:
    """Every case's document, by case name."""
    docs = {
        "n0-t1": {"n": 0, "t": 1, "edges": []},
        "n0-t3": {"n": 0, "t": 3, "edges": []},
        "n1-t1": {"n": 1, "t": 1, "edges": []},
        "n1-t2": {"n": 1, "t": 2, "edges": []},
    }
    for kind, draw, count in (
        ("k5star-blowup", k5star_blowup, 24),
        ("multipartite", multipartite, 32),
        ("random", random_coloring, 64),
    ):
        for seed in range(count):
            docs[f"{kind}-{seed}"] = draw(random.Random(f"{kind}:{seed}"))
    return docs


def _interval(rng: random.Random, shape: str, anchor: int) -> list[int]:
    """One track interval of an interval family of the given shape."""
    if shape == "anchored" and rng.random() < 0.85:
        return [anchor - rng.randint(0, 3), anchor + rng.randint(0, 3)]
    if shape == "points":
        lo = rng.randint(-2, 3)
        return [lo, lo + rng.choice((0, 0, 0, 1))]
    if shape == "nested":
        r = rng.randint(0, 6)
        return [anchor - r, anchor + r + rng.choice((0, 0, 1))]
    if shape == "grid":
        lo = 2 * rng.randint(-2, 3)
        return [lo, lo + 2 * rng.randint(0, 2)]
    lo = rng.randint(-8, 8)
    return [lo, lo + rng.choice((0, 0, 1, 2, 4, 9))]


INTERVAL_SHAPES = ("anchored", "points", "nested", "grid", "random")


def interval_family(rng: random.Random, shape: str) -> dict:
    n = rng.randint(2, 12)
    t = rng.choice((1, 2, 2, 3, 3, 4))
    anchors = [rng.randint(-4, 4) for _ in range(t)]
    members = [[_interval(rng, shape, a) for a in anchors] for _ in range(n)]
    return {"t": t, "members": members}


def _host(rng: random.Random, shape: str, h: int) -> list[list[int]]:
    """Edges of a tree on vertices 0..h-1 of the given shape, relabeled at
    random, each edge in a random orientation, in random order."""
    if shape == "path":
        edges = [(v - 1, v) for v in range(1, h)]
    elif shape == "star":
        edges = [(0, v) for v in range(1, h)]
    else:
        edges = [(rng.randrange(v), v) for v in range(1, h)]
    perm = list(range(h))
    rng.shuffle(perm)
    out = [[perm[u], perm[v]] if rng.random() < 0.5 else [perm[v], perm[u]]
           for u, v in edges]
    rng.shuffle(out)
    return out


def _subtree(rng: random.Random, adj: list[set], root: int, size: int) -> list[int]:
    grown = [root]
    frontier = set(adj[root])
    while len(grown) < size and frontier:
        x = rng.choice(sorted(frontier))
        grown.append(x)
        frontier = (frontier | adj[x]) - set(grown)
    rng.shuffle(grown)
    return grown


HOST_SHAPES = ("random", "path", "star")


def subtree_family(rng: random.Random, shape: str) -> dict:
    h = rng.randint(1, 9)
    host = _host(rng, shape, h)
    adj = [set() for _ in range(h)]
    for u, v in host:
        adj[u].add(v)
        adj[v].add(u)
    n = rng.randint(2, 12)
    t = rng.choice((1, 2, 2, 3, 3, 4))
    hubs = [rng.randrange(h) for _ in range(t)]
    anchored = rng.choice((0.5, 0.9, 1.0))
    members = [
        [
            _subtree(
                rng,
                adj,
                hub if rng.random() < anchored else rng.randrange(h),
                rng.randint(1, 4),
            )
            for hub in hubs
        ]
        for _ in range(n)
    ]
    return {"host_edges": host, "t": t, "members": members}


# Faults 0-6 keep the shape of a document that another fault needs; the
# rest replace a whole field or member and come last.
_SHAPE_KEEPING = 7
_FAULTS = 10


def _break_intervals(rng: random.Random, doc: dict, fault: int) -> None:
    """Put fault number ``fault`` into an interval family document."""
    members = doc["members"]
    m = rng.randrange(len(members))
    i = rng.randrange(len(members[m]))
    lo, hi = members[m][i][:2]
    if fault == 0:
        members[m][i] = [hi + 1, lo]  # empty interval
    elif fault == 1:
        members[m].pop()  # a track short
    elif fault == 2:
        members[m].append([lo, hi])  # a track too many
    elif fault == 3:
        members[m][i] = [lo + 0.5, hi]
    elif fault == 4:
        members[m][i] = [lo, True]
    elif fault == 5:
        members[m][i] = [str(lo), hi]
    elif fault == 6:
        members[m][i] = [lo, hi, hi]
    elif fault == 7:
        members[m] = lo
    elif fault == 8:
        doc["t"] = rng.choice((0, -1, float(doc["t"])))
    else:
        doc["members"] = {"0": members[0]}


def _break_subtrees(rng: random.Random, doc: dict, fault: int) -> None:
    """Put fault number ``fault`` into a subtree family document; a fault
    that the document cannot take replaces its host edges instead."""
    host, members = doc["host_edges"], doc["members"]
    vertices = [v for e in host for v in e] + [
        v for tracks in members for s in tracks for v in s
    ]
    h = 1 + max(vertices)
    m = rng.randrange(len(members))
    i = rng.randrange(len(members[m]))
    adjacent = {frozenset(e) for e in host}
    apart = [(a, b) for a in range(h) for b in range(a + 1, h)
             if frozenset((a, b)) not in adjacent]
    if fault == 0:
        host.append([0, h])  # the host gains a vertex no member holds
        host.append([h, 0])  # and a parallel edge: too many edges
    elif fault == 1 and host:
        host[rng.randrange(len(host))] = list(rng.choice(host))  # a repeated edge
    elif fault == 2 and host:
        v = rng.randrange(h)
        host[rng.randrange(len(host))] = [v, v]
    elif fault == 3 and apart:
        members[m][i] = list(rng.choice(apart))  # not connected
    elif fault == 4:
        members[m][i] = []
    elif fault == 5:
        members[m][i] = members[m][i] + [-1]
    elif fault == 6:
        members[m].append(members[m][0])
    elif fault == 7:
        members[m][i] = [rng.choice(("x", 1.5, None))]
    elif fault == 8 and host:
        host[0] = host[0] + [0]
    else:
        doc["host_edges"] = "x" if fault == 9 else None


def family_documents() -> dict[str, dict]:
    """Every family case's document, by case name."""
    docs = {
        "intervals-n0-t2": {"t": 2, "members": []},
        "intervals-n1-t1": {"t": 1, "members": [[[3, 3]]]},
        "intervals-n1-t3": {"t": 3, "members": [[[-1, 2], [0, 0], [5, 9]]]},
        "subtrees-n0-t1": {"host_edges": [], "t": 1, "members": []},
        "subtrees-n1-t2": {"host_edges": [[1, 0]], "t": 2, "members": [[[0], [1, 0]]]},
        "subtrees-n1-t3": {"host_edges": [], "t": 3, "members": [[[0], [0], [0]]]},
    }
    for shape in INTERVAL_SHAPES:
        for seed in range(8):
            rng = random.Random(f"intervals-{shape}:{seed}")
            docs[f"intervals-{shape}-{seed}"] = interval_family(rng, shape)
    for shape in HOST_SHAPES:
        for seed in range(12):
            rng = random.Random(f"subtrees-{shape}:{seed}")
            docs[f"subtrees-{shape}-{seed}"] = subtree_family(rng, shape)
    for seed in range(48):
        rng = random.Random(f"malformed:{seed}")
        if seed % 2 == 0:
            doc = interval_family(rng, rng.choice(INTERVAL_SHAPES))
            breaks = _break_intervals
        else:
            doc = subtree_family(rng, rng.choice(HOST_SHAPES))
            breaks = _break_subtrees
        if seed % 4 == 3:  # a quarter get two faults
            breaks(rng, doc, rng.randrange(_SHAPE_KEEPING))
            breaks(rng, doc, rng.randrange(_FAULTS))
        else:  # every fault of both kinds at least once
            breaks(rng, doc, seed // 4 % _FAULTS)
        docs[f"malformed-{seed}"] = doc
    return docs


def family_coloring(doc: dict) -> dict:
    """The edges document of a well-formed family document's coloring:
    members u and v share color i when their track-i intervals meet, or
    their track-i subtrees share a host vertex."""
    members, t = doc["members"], doc["t"]

    def meet(a: list[int], b: list[int]) -> bool:
        if "host_edges" in doc:
            return not set(a).isdisjoint(b)
        return max(a[0], b[0]) <= min(a[1], b[1])

    edges = []
    for u, v in itertools.combinations(range(len(members)), 2):
        cs = [i + 1 for i in range(t) if meet(members[u][i], members[v][i])]
        if cs:
            edges.append([u, v, cs])
    return {"n": len(members), "t": t, "edges": edges}


def edges_documents() -> dict[str, dict]:
    """Every edges case's document, by case name: the ``cover exact``
    documents and the colorings of the well-formed family documents."""
    docs = documents()
    for name, doc in family_documents().items():
        if not name.startswith("malformed"):
            docs[f"{name}-coloring"] = family_coloring(doc)
    return docs


def argv_cases() -> dict[str, list[str]]:
    """Every command line that reads no document, by its text."""
    cases = [
        ["gen", kind, "--n", str(n), "--t", str(t), "--anchor", str(anchor),
         "--seed", str(seed)] + ([] if k is None else ["--k", str(k)])
        for kind, n, t, k, anchor, seed in itertools.product(
            ("intervals", "subtrees"), (5, 12, 30), (2, 3), (None, 2, 3), (0, 0.85),
            (0, 1),
        )
    ]
    cases += [["gen", name] for name in
              ("onefourth", "k5star", "k4paths", "k8c4free", "partition")]
    cases += [
        ["verify", suite, "--samples", "4", "--seed", str(seed)]
        for suite in ("lower", "t33", "tt", "c4free22", "constructions")
        for seed in (0, 1)
    ]
    return {" ".join(argv): argv for argv in cases}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_output(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """The exit code, standard output and standard error of one command
    line reading ``stdin``."""
    out = io.StringIO()
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_argv(argv: list[str], stdin: str = "") -> dict:
    """The pinned digests of one command line reading ``stdin``."""
    code, out, err = run_output(argv, stdin)
    pinned = {"exit": code}
    if out:
        report = json.loads(out)
        report.pop("times", None)  # a generated document has none
        pinned["report"] = _sha(json.dumps(report, sort_keys=True, separators=(",", ":")))
    if err:
        pinned["stderr"] = _sha(err)
    return pinned


def run_case(doc: dict, argv: list[str] = ARGV) -> dict:
    """The pinned digests of one document under one command line."""
    text = json.dumps(doc, sort_keys=True)
    return {"doc": _sha(text), **run_argv(argv, text)}


def run_family_case(doc: dict) -> dict:
    """The pinned digests of one family document under every command line."""
    return {label: run_case(doc, argv) for label, argv in FAMILY_ARGV.items()}


def run_edges_case(doc: dict) -> dict:
    """The pinned digests of one edges document under every command line."""
    return {label: run_case(doc, argv) for label, argv in EDGES_ARGV.items()}


def run_kernel_case(doc: dict) -> str:
    """The digest of each color's maximal cliques in the kernel's order."""
    col = MultiColoring.from_dict(doc)
    cliques = [kernels.maximal_cliques(col.n, row) for row in col.rows]
    return _sha(json.dumps(cliques))


def compute() -> dict[str, dict]:
    return {name: run_case(doc) for name, doc in documents().items()}


def compute_families() -> dict[str, dict]:
    return {name: run_family_case(doc) for name, doc in family_documents().items()}


def compute_edges() -> dict[str, dict]:
    got = {name: run_edges_case(doc) for name, doc in edges_documents().items()}
    got.update((text, run_argv(argv)) for text, argv in argv_cases().items())
    return got


def compute_kernels() -> dict[str, str]:
    return {name: run_kernel_case(doc) for name, doc in edges_documents().items()}


if __name__ == "__main__":
    moved = False
    for path, compute_file in (
        (DIGESTS, compute),
        (FAMILY_DIGESTS, compute_families),
        (EDGES_DIGESTS, compute_edges),
        (KERNEL_DIGESTS, compute_kernels),
    ):
        got = compute_file()
        if "--write" in sys.argv[1:]:
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
            continue
        want = json.loads(path.read_text())
        changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        moved = moved or bool(changed)
        print(f"{path.name}:", ", ".join(changed) or "no case changed")
    sys.exit(1 if moved else 0)
