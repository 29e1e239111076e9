"""Seeded operation lists for the four benchmark workloads, and an
independent check of each operation's report.

An operation is one ``strongcover`` command line plus the instance document
it reads on standard input.  Documents are generated here from the workload
seed with the library's own generators, so a change to a generator shows up
as a changed input digest instead of as a change in speed.  The program
under test receives only the serialized documents.

The size and structure of each document are drawn once, from a seed fixed
per workload; the run seed then renames its vertices and reorders its
members.  Every seed so gives different documents that cost the same work
(on certify-scan every seed makes the same number of Python calls), and a
difference between runs on two seeds is the program's or the
machine's, not a lucky draw of smaller families.  The ``verify`` suites
draw their own corpora, whose cost depends on how many rejection draws
each instance takes, so their corpus seeds are fixed too and the run seed
orders the suites.  The searches of ``search-small`` follow vertex labels,
and a renaming moves the time of a c4free22 search by up to 40% (n=30
intervals: 204-302 ms over eight seeds; n=60 blow-up: 80 or 130 ms), so
there the seed shifts the interval positions, which leaves every
intersection and vertex label as it is, and the n=60 blow-up keeps one
fixed labeling.

Two limits shape the lists and are stated rather than hidden:

* ``cover c4free22`` on an instance without a red/blue double 5-cycle
  (K5*) refuses n > 40: ``two_clique_cover_exact`` has ``max_n=40`` and
  raises ``SizeLimitError``.  The n=60 c4free22 operation is therefore a
  K5* blow-up, the only kind of n=60 instance that command accepts.
* A family with ``anchor=1.0`` makes every color graph complete, so greedy
  finishes in one step.  ``greedy-families`` uses anchors below 1 (greedy
  takes 2-3 steps) and the onefourth construction (t steps).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import ceil

WORKLOADS = ("greedy-families", "search-small", "certify-scan", "verify-corpus")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``strongcover <argv>`` with ``doc`` on stdin."""

    name: str
    argv: tuple[str, ...]
    doc: str = ""

    @property
    def input_sha(self) -> str:
        payload = json.dumps([list(self.argv), self.doc])
        return hashlib.sha256(payload.encode()).hexdigest()


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _relabel(doc: dict, rng: random.Random) -> dict:
    """Edges document with vertices renamed by a seeded permutation."""
    n = doc["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for u, v, cs in doc["edges"]:
        a, b = sorted((perm[u], perm[v]))
        edges.append([a, b, cs])
    edges.sort()
    return {"n": n, "t": doc["t"], "edges": edges}


def _shuffled(doc: dict, rng: random.Random) -> dict:
    """Family document with its members in seeded order."""
    members = list(doc["members"])
    rng.shuffle(members)
    return dict(doc, members=members)


def _shifted(doc: dict, rng: random.Random) -> dict:
    """Interval family document with every endpoint moved by one seeded
    offset: the same intersections under the same member order."""
    offset = rng.randrange(1, 10**4)
    members = [[[lo + offset, hi + offset] for lo, hi in tracks] for tracks in doc["members"]]
    return dict(doc, members=members)


def _accepted(sample, seed: int):
    """First family ``sample(seed + i)`` accepts.  Each call already makes
    its own rejection draws; a miss moves on to the next seed, so the
    family's parameters, and with them its cost, stay the same."""
    for i in range(100):
        fam, ok = sample(seed + i)
        if ok:
            return fam
    raise RuntimeError(f"no accepted family from seed {seed}")


def _intervals(sc, n: int, t: int, seed: int, anchor: float):
    return _accepted(
        lambda s: sc.random_interval_family(n, t, s, anchor=anchor, k=2), seed
    )


def _subtrees(sc, n: int, t: int, seed: int, anchor: float):
    return _accepted(
        lambda s: sc.random_subtree_family(
            n, t, s, host_size=6, max_size=4, anchor=anchor, k=2
        ),
        seed,
    )


def _greedy_families(sc, shape: random.Random, labels: random.Random) -> list[Op]:
    argv = ("cover", "greedy", "-", "--k", "2")
    docs = {}
    for n, t in ((300, 3), (200, 4)):
        fam = _intervals(sc, n, t, shape.randrange(10**6), 0.95)
        docs[f"intervals-n{n}-t{t}"] = fam.to_dict()
    for n, t in ((300, 3), (200, 4)):
        fam = _subtrees(sc, n, t, shape.randrange(10**6), 0.9)
        docs[f"subtrees-n{n}-t{t}"] = fam.to_dict()
    for t in (30, 35, 40):
        docs[f"onefourth-t{t}"] = sc.construct_onefourth(t).to_dict()
    return [Op(name, argv, _dump(_shuffled(doc, labels))) for name, doc in docs.items()]


def _k5star_blowup(sc, sizes: list[int], labels: random.Random) -> dict:
    col = sc.blow_up(sc.construct_k5star(), sc.BlowupSpec(sizes))
    return _relabel(col.to_dict(), labels)


def _multipartite(parts: int, size: int, t: int, rng: random.Random) -> dict:
    """Complete multipartite graph with every cross edge in all t colors."""
    n = parts * size
    colors = list(range(1, t + 1))
    edges = [
        [u, v, colors]
        for u in range(n)
        for v in range(u + 1, n)
        if u // size != v // size
    ]
    return _relabel({"n": n, "t": t, "edges": edges}, rng)


def _search_small(sc, shape: random.Random, labels: random.Random) -> list[Op]:
    c4 = ("cover", "c4free22", "-")
    exact = ("cover", "exact", "-")
    # Interval colorings are chordal per color, so they never contain the
    # double 5-cycle and c4free22 takes the two-clique search path.
    ops = [
        Op(f"c4free22-intervals-n{n}", c4, _dump(_shifted(
            _intervals(sc, n, 2, shape.randrange(10**6), 0.9).to_dict(), labels)))
        for n in (30, 36)
    ]
    blowup_sizes = [4, 5, 5, 5, 5]
    shape.shuffle(blowup_sizes)
    return ops + [
        Op("c4free22-k5star-blowup-n60", c4, _dump(_k5star_blowup(sc, [12] * 5, shape))),
        Op("exact-k5star-blowup-n24", exact,
           _dump(_k5star_blowup(sc, blowup_sizes, labels))),
        Op("exact-multipartite-3x7-t2", exact, _dump(_multipartite(7, 3, 2, labels))),
    ]


def _certify_scan(sc, shape: random.Random, labels: random.Random) -> list[Op]:
    checks = ("check", "-", "--tk", "3", "--chordal", "--c4free")
    # Fully anchored families are k-wise intersecting for every k, so every
    # check passes and every scan runs to its end.
    fams = {
        n: sc.random_interval_family(n, 3, shape.randrange(10**6), anchor=1.0)[0]
        for n in (96, 128)
    }
    subtrees = sc.random_subtree_family(
        112, 3, shape.randrange(10**6), host_size=6, max_size=4, anchor=1.0
    )[0]
    edges96 = sc.coloring_from_intervals(fams[96]).to_dict()
    edges128 = sc.coloring_from_intervals(fams[128]).to_dict()
    kfold = checks + ("--kfold", "1")
    return [
        Op("intervals-n96", checks, _dump(_shuffled(fams[96].to_dict(), labels))),
        Op("intervals-n128", checks, _dump(_shuffled(fams[128].to_dict(), labels))),
        Op("subtrees-n112", checks, _dump(_shuffled(subtrees.to_dict(), labels))),
        Op("edges-n96-kfold", kfold, _dump(_relabel(edges96, labels))),
        Op("edges-n128-kfold", kfold, _dump(_relabel(edges128, labels))),
    ]


def _verify_corpus(sc, shape: random.Random, labels: random.Random) -> list[Op]:
    def seed() -> str:
        return str(shape.randrange(10**6))

    suites = [
        ("lower", ("verify", "lower", "--n", "30", "--samples", "20", "--seed", seed())),
        ("t33", ("verify", "t33", "--seed", seed())),
        ("tt", ("verify", "tt", "--seed", seed())),
        ("c4free22", ("verify", "c4free22", "--n", "20", "--samples", "40", "--seed", seed())),
        ("constructions", ("verify", "constructions", "--seed", seed())),
    ]
    labels.shuffle(suites)
    return [Op(name, argv) for name, argv in suites]


_BUILDERS = {
    "greedy-families": _greedy_families,
    "search-small": _search_small,
    "certify-scan": _certify_scan,
    "verify-corpus": _verify_corpus,
}


def build(sc, workload: str, seed: int) -> list[Op]:
    """The operation list of one workload pass; ``sc`` is the strongcover
    package, passed in so this module imports nothing from the program."""
    shape = random.Random(f"{workload}:shape")
    labels = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](sc, shape, labels)


def output_sha(report_text: str) -> str:
    """Digest of a report without its ``times`` field, the only part of a
    report that may differ between identical runs."""
    doc = json.loads(report_text)
    doc.pop("times", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Independent checks.  They use only the instance document and the report,
# never the library, so a wrong answer cannot check itself.


def _pair_colors(doc: dict):
    """Function (u, v) -> set of colors shared by u and v in the document."""
    if "edges" in doc:
        table = {(u, v): set(cs) for u, v, cs in doc["edges"]}
        return lambda u, v: table.get((min(u, v), max(u, v)), set())
    if "host_edges" in doc:
        tracks = [[set(s) for s in m] for m in doc["members"]]
        return lambda u, v: {
            i + 1 for i, (a, b) in enumerate(zip(tracks[u], tracks[v])) if a & b
        }
    members = doc["members"]
    return lambda u, v: {
        i + 1
        for i, (a, b) in enumerate(zip(members[u], members[v]))
        if max(a[0], b[0]) <= min(a[1], b[1])
    }


def _check_cover(op: Op, doc: dict, report: dict) -> str | None:
    n = len(doc["members"]) if "members" in doc else doc["n"]
    colors_of = _pair_colors(doc)
    cover = {c: s for c, s in report["results"]["cover"]["assignments"]}
    union: set[int] = set()
    for c, clique in cover.items():
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                if c not in colors_of(u, v):
                    return f"color {c} set is not a clique at ({u},{v})"
        union.update(clique)
    covered = len(union)
    if report["results"]["covered"] != covered:
        return "reported coverage differs from the cover"
    algorithm = op.argv[1]
    if algorithm == "greedy":
        k = int(op.argv[op.argv.index("--k") + 1])
        if covered * (k + 1) < (k - 1) * n:
            return "greedy cover is below (k-1)n/(k+1)"
    if algorithm == "c4free22" and covered < ceil(4 * n / 5):
        return "c4free22 cover is below ceil(4n/5)"
    if "members" in doc and "host_edges" not in doc:
        points = report["results"].get("piercing_points")
        if points is None or len(points) != sum(1 for s in cover.values() if s):
            return "missing piercing points"
        for track, point in points:
            for v in cover[track]:
                lo, hi = doc["members"][v][track - 1]
                if not lo <= point <= hi:
                    return f"point {point} misses member {v} on track {track}"
    return None


def check_report(op: Op, exit_code: int, report_text: str) -> str | None:
    """Reason the report is wrong, or None.  Every operation in the lists
    above is built so that all of its checks pass."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    report = json.loads(report_text)
    if report.get("pass") is not True:
        return "report does not pass"
    command = op.argv[0]
    if command == "cover":
        return _check_cover(op, json.loads(op.doc), report)
    if command == "check":
        # each --flag requests the check of the same name
        wanted = {a[2:] for a in op.argv if a.startswith("--")}
        if {c["name"] for c in report["checks"]} != wanted:
            return "report lacks a requested check"
    if command == "verify" and op.argv[1] != "constructions":
        if not report["results"].get("instances"):
            return "suite ran no instances"
    return None
