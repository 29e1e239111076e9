"""Golden digests of ``strongcover cover exact`` reports.

Documents are drawn with the standard library's ``random`` only, never
with the package's generators, so a change to a generator cannot move
them:

* K5* blow-ups (a red 5-cycle and a blue 5-cycle on five classes, every
  edge inside a class in both colors) with classes of 1-4 vertices, under
  a random relabeling;
* complete multipartite graphs whose cross edges each carry a random
  nonempty subset of the colors, under a random relabeling;
* random colorings with n <= 12 and t <= 3, some pairs carrying no color;
* instances with n = 0 and n = 1.

Each case is pinned by a truncated sha256 of its document, and by the exit
code and a truncated sha256 of the report less ``times`` (the only part of
a report that differs between identical runs).  ``test_golden.py`` checks
them.  To print the cases whose digests moved, or to write a new file
after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/golden.py          # list changed cases
    PYTHONPATH=src python tests/golden.py --write  # rewrite the digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from strongcover.cli import main

DIGESTS = Path(__file__).with_name("golden_cover_exact.json")
ARGV = ["cover", "exact", "-"]


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(doc: dict) -> dict:
    """The pinned digests of one document under ``cover exact``."""
    text = json.dumps(doc, sort_keys=True)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(ARGV)
    finally:
        sys.stdin = saved
    report = json.loads(out.getvalue())
    report.pop("times")
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return {"doc": _sha(text), "exit": code, "report": _sha(canon)}


def compute() -> dict[str, dict]:
    return {name: run_case(doc) for name, doc in documents().items()}


if __name__ == "__main__":
    got = compute()
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    else:
        want = json.loads(DIGESTS.read_text())
        changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        print("\n".join(changed) or "no case changed")
