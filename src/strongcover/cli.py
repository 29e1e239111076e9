"""Batch front end: generate instances, check properties, run cover
algorithms, and verify the library's coverage bounds over seeded corpora.

All commands read instances as JSON (file path or ``-`` for standard input)
and write a JSON report to standard output.  Exit codes: 0 when every
requested check passes, 1 when a property or bound fails, 2 on usage or
parse errors.  Instance output is byte-identical for identical seeds;
report timing fields are the only nondeterministic part.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from math import ceil
from random import Random

from . import constructions, corpus
from ._kernels import maximal_cliques
from .chordal import chordal_edge_bound_check, induced_c4_free, is_chordal
from .core import (
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    is_tk_coloring,
    kfold_min_colors,
    piercing_points,
    verify_cover,
)
from .covers import (
    counting_chain_check,
    exact_max_strong_cover,
    greedy_strong_cover,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
)
from .errors import GuaranteeError, InputError, PreconditionError, SizeLimitError


@dataclass
class RunReport:
    """Machine-readable outcome of one command invocation."""

    meta: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    times: dict = field(default_factory=dict)

    def add_check(self, name: str, inequality: str, expected, observed, ok: bool,
                  **extra) -> None:
        rec = {
            "name": name,
            "inequality": inequality,
            "expected": expected,
            "observed": observed,
            "pass": bool(ok),
        }
        rec.update(extra)
        self.checks.append(rec)

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def emit(self) -> None:
        doc = {
            "meta": self.meta,
            "results": self.results,
            "checks": self.checks,
            "times": self.times,
            "pass": self.ok,
        }
        json.dump(doc, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")


class _Timed:
    """Context manager recording one wall-time step into a report."""

    def __init__(self, report: RunReport, name: str):
        self.report = report
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.times[self.name] = time.perf_counter() - self.start
        return False


def _load_instance(path: str) -> tuple[MultiColoring, TIntervalFamily | None]:
    """Parse a coloring, interval family, or subtree family document.

    Families are converted to their derived coloring; the interval family is
    kept around so covers can be translated back into piercing points.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        data = json.loads(text)
    except (UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"unreadable instance document: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("instance document must be a JSON object")
    if "edges" in data:
        return MultiColoring.from_dict(data), None
    if "host_edges" in data:
        return coloring_from_subtrees(TSubtreeFamily.from_dict(data)), None
    if "members" in data:
        fam = TIntervalFamily.from_dict(data)
        return coloring_from_intervals(fam), fam
    raise InputError("unrecognized instance document")


def _emit_instance(doc: dict, meta: dict) -> None:
    doc = dict(doc)
    doc["meta"] = meta
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def cmd_gen(args: argparse.Namespace) -> int:
    name = args.construction
    if name == "onefourth":
        fam = constructions.construct_onefourth(args.t)
        _emit_instance(fam.to_dict(), {"generator": name, "t": args.t})
    elif name == "k5star":
        _emit_instance(constructions.construct_k5star().to_dict(), {"generator": name})
    elif name == "k4paths":
        _emit_instance(
            constructions.construct_k4_two_paths().to_dict(), {"generator": name}
        )
    elif name == "k8c4free":
        _emit_instance(
            constructions.construct_k8_c4free_3col().to_dict(), {"generator": name}
        )
    elif name == "partition":
        fam = constructions.construct_partition_coloring(args.n, args.t)
        _emit_instance(fam.to_dict(), {"generator": name, "n": args.n, "t": args.t})
    elif name in ("intervals", "subtrees"):
        meta = {
            "generator": name,
            "n": args.n,
            "t": args.t,
            "seed": args.seed,
            "anchor": args.anchor,
            "k": args.k,
        }
        if name == "intervals":
            fam, ok = constructions.random_interval_family(
                args.n, args.t, args.seed, anchor=args.anchor, k=args.k
            )
        else:
            meta["host_size"] = args.host_size
            fam, ok = constructions.random_subtree_family(
                args.n,
                args.t,
                args.seed,
                host_size=args.host_size,
                anchor=args.anchor,
                k=args.k,
            )
        meta["k_ok"] = ok
        _emit_instance(fam.to_dict(), meta)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown construction {name!r}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    col, _fam = _load_instance(args.instance)
    report = RunReport(meta={"source": args.instance, "n": col.n, "t": col.t})
    if args.tk is not None:
        with _Timed(report, "tk"):
            ok, witness = is_tk_coloring(col, args.tk)
        report.add_check(
            "tk",
            f"every {args.tk}-subset spans a monochromatic clique",
            True,
            ok,
            ok,
            witness=sorted(witness) if witness else None,
        )
    if args.chordal:
        with _Timed(report, "chordal"):
            holes = {}
            for i in range(1, col.t + 1):
                cert = is_chordal(col.color_graph(i))
                if not cert.is_chordal:
                    holes[i] = cert.hole
        report.add_check(
            "chordal",
            "every color graph is chordal",
            True,
            not holes,
            not holes,
            witness={str(c): h for c, h in holes.items()} or None,
        )
    if args.c4free:
        with _Timed(report, "c4free"):
            squares = {}
            for i in range(1, col.t + 1):
                ok, square = induced_c4_free(col.color_graph(i))
                if not ok:
                    squares[i] = list(square)
        report.add_check(
            "c4free",
            "no color graph has an induced 4-cycle",
            True,
            not squares,
            not squares,
            witness={str(c): s for c, s in squares.items()} or None,
        )
    if args.kfold is not None:
        with _Timed(report, "kfold"):
            observed = kfold_min_colors(col)
        report.add_check(
            "kfold",
            f"min colors per edge >= {args.kfold}",
            args.kfold,
            observed,
            observed >= args.kfold,
        )
    report.emit()
    return 0 if report.ok else 1


def _greedy_lower_bound_ok(covered: int, n: int, k: int) -> bool:
    return covered * (k + 1) >= (k - 1) * n


def cmd_cover(args: argparse.Namespace) -> int:
    col, fam = _load_instance(args.instance)
    report = RunReport(
        meta={
            "source": args.instance,
            "algorithm": args.algorithm,
            "n": col.n,
            "t": col.t,
            "k": args.k,
        }
    )
    try:
        cover = _run_cover(args, col, report)
    except (PreconditionError, GuaranteeError, SizeLimitError, InputError) as exc:
        report.results["error"] = f"{type(exc).__name__}: {exc}"
        report.add_check("precondition", "algorithm precondition holds", True, False, False)
        report.emit()
        return 1
    rep = verify_cover(col, cover)
    report.results["cover"] = cover.to_dict()
    report.results["covered"] = rep.covered
    report.add_check(
        "cover-valid",
        "each assigned set is a clique in its color",
        True,
        rep.valid,
        rep.valid,
    )
    _add_bound_checks(args, col, cover, rep.covered, report)
    if fam is not None and rep.valid:
        report.results["piercing_points"] = [
            [track, point] for track, point in piercing_points(fam, cover)
        ]
    report.emit()
    return 0 if report.ok else 1


def _run_cover(
    args: argparse.Namespace, col: MultiColoring, report: RunReport
) -> StrongCover:
    algorithm = args.algorithm
    if algorithm == "greedy":
        with _Timed(report, "greedy"):
            cover, trace = greedy_strong_cover(col)
        report.results["uncovered"] = sorted(trace.uncovered)
        return cover
    if algorithm == "exact":
        with _Timed(report, "exact"):
            cover = exact_max_strong_cover(col, max_n=args.max_exact)
        with _Timed(report, "theta"):
            report.results["theta"] = theta(col, max_n=args.max_exact)
        return cover
    if algorithm == "t33":
        with _Timed(report, "t33"):
            return strong_cover_33(col)
    if algorithm == "tt":
        with _Timed(report, "tt"):
            return strong_cover_tt(col)
    if algorithm == "c4free22":
        with _Timed(report, "c4free22"):
            return strong_cover_c4free_22(col)
    raise InputError(f"unknown algorithm {algorithm!r}")  # pragma: no cover


def _add_bound_checks(
    args: argparse.Namespace,
    col: MultiColoring,
    cover: StrongCover,
    covered: int,
    report: RunReport,
) -> None:
    n = col.n
    algorithm = args.algorithm
    if algorithm == "greedy" and args.k is not None:
        ok, witness = is_tk_coloring(col, args.k)
        report.add_check(
            "tk-precondition",
            f"instance is a (t,{args.k})-coloring",
            True,
            ok,
            ok,
            witness=sorted(witness) if witness else None,
        )
        bound = ceil((args.k - 1) * n / (args.k + 1))
        report.add_check(
            "greedy-lower-bound",
            f"covered*(k+1) >= (k-1)*n with k={args.k}",
            bound,
            covered,
            _greedy_lower_bound_ok(covered, n, args.k),
        )
    elif algorithm == "t33":
        report.add_check(
            "three-cliques", "at most 3 cliques cover all vertices",
            3, cover.size(), cover.size() <= 3 and covered == n,
        )
    elif algorithm == "tt":
        limit = 2 if col.t % 2 == 0 else 3
        report.add_check(
            "few-cliques",
            f"at most {limit} cliques cover all vertices (t={col.t})",
            limit,
            cover.size(),
            cover.size() <= limit and covered == n,
        )
    elif algorithm == "c4free22":
        bound = ceil(4 * n / 5)
        report.add_check(
            "four-fifths", "covered >= ceil(4n/5)", bound, covered, covered >= bound
        )


def _run_suite(args, report, inequality, make, check) -> None:
    """One row per sample: ``make(i, seed)`` gives (name, coloring) and
    ``check(coloring)`` the row's findings, ``pass`` included.  A failed
    precondition, guarantee or size limit marks its row failed with the
    error and the suite goes on."""
    rows = []
    for i in range(args.samples):
        seed = args.seed + i
        row = {"name": f"{args.suite}-seed{seed}", "seed": seed}
        try:
            row["name"], col = make(i, seed)
            row["n"] = col.n
            row.update(check(col))
        except (PreconditionError, GuaranteeError, SizeLimitError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["pass"] = False
        rows.append(row)
    _finish_suite(report, rows, inequality)


def _alternating(n: int, t: int, k: int):
    """``make`` for suites alternating interval and subtree instances."""

    def make(i, seed):
        kind = "interval" if i % 2 == 0 else "subtree"
        inst = corpus.seeded_tk_instance(kind, n, t, k, seed)
        return inst.name, inst.coloring

    return make


def _verify_lower(args: argparse.Namespace, report: RunReport) -> None:
    def check(col):
        cover, trace = greedy_strong_cover(col)
        rep = verify_cover(col, cover)
        chain = counting_chain_check(col, trace, args.k)
        ok = (
            rep.valid
            and _greedy_lower_bound_ok(rep.covered, col.n, args.k)
            and chain.ok
        )
        return {
            "covered": rep.covered,
            "chain": [chain.lower, chain.m, chain.upper],
            "pass": ok,
        }

    _run_suite(
        args, report, "greedy covers at least (k-1)n/(k+1) vertices",
        _alternating(args.n, args.t, args.k), check,
    )


def _verify_t33(args: argparse.Namespace, report: RunReport) -> None:
    def check(col):
        cover = strong_cover_33(col)
        rep = verify_cover(col, cover)
        ok = rep.valid and rep.covered == col.n and cover.size() <= 3
        return {"cliques": cover.size(), "pass": ok}

    _run_suite(
        args, report, "three monochromatic cliques cover everything",
        _alternating(args.n, 3, 3), check,
    )


def _verify_tt(args: argparse.Namespace, report: RunReport) -> None:
    limit = 2 if args.t % 2 == 0 else 3

    def check(col):
        cover = strong_cover_tt(col)
        rep = verify_cover(col, cover)
        ok = rep.valid and rep.covered == col.n and cover.size() <= limit
        return {"cliques": cover.size(), "pass": ok}

    _run_suite(
        args, report, f"at most {limit} cliques cover everything",
        _alternating(args.n, args.t, args.t), check,
    )


def _verify_c4free22(args: argparse.Namespace, report: RunReport) -> None:
    star = constructions.construct_k5star()

    def make(i, seed):
        if i % 2 == 0:
            rng = Random(seed)
            sizes = [1 + rng.randrange(3) for _ in range(5)]
            col = constructions.blow_up(star, constructions.BlowupSpec(sizes))
            return "k5star-blowup-" + "".join(map(str, sizes)), col
        inst = corpus.seeded_tk_instance("interval", args.n, 2, 2, seed)
        return inst.name, inst.coloring

    def check(col):
        cover = strong_cover_c4free_22(col)
        rep = verify_cover(col, cover)
        bound = ceil(4 * col.n / 5)
        ok = rep.valid and rep.covered >= bound
        return {"covered": rep.covered, "bound": bound, "pass": ok}

    _run_suite(
        args, report, "cover reaches at least ceil(4n/5) vertices", make, check
    )


def _verify_constructions(args: argparse.Namespace, report: RunReport) -> None:
    col8 = constructions.construct_k8_c4free_3col()
    classes = [col8.color_graph(i) for i in (1, 2, 3)]
    edge_total = sum(g.edge_count() for g in classes)
    disjoint = all(len(cs) == 1 for cs in col8.edge_colors.values())
    report.add_check(
        "k8-partition",
        "28 edges, each in exactly one class",
        28,
        edge_total,
        edge_total == 28 and len(col8.edge_colors) == 28 and disjoint,
    )
    squares = [induced_c4_free(g)[0] for g in classes]
    triangle_free = [_triangle_free(g) for g in classes]
    report.add_check(
        "k8-classes",
        "each class triangle-free and induced-C4-free",
        True,
        all(squares) and all(triangle_free),
        all(squares) and all(triangle_free),
    )
    ham_ok = all(_hamilton_paths_ok(t) for t in range(2, 9))
    report.add_check(
        "hamilton-paths",
        "paths decompose all [A,B] pairs exactly once for t <= 8",
        True,
        ham_ok,
        ham_ok,
    )
    paths = constructions.construct_k4_two_paths()
    th = theta(paths)
    omegas = [
        max(m.bit_count() for m in maximal_cliques(paths.n, row))
        for row in paths.rows
    ]
    report.add_check(
        "k4-two-paths", "theta == 2 and per-color omega == 2",
        [2, [2, 2]], [th, omegas], th == 2 and omegas == [2, 2],
    )
    graphs = corpus.random_chordal_graphs(args.samples, seed=args.seed)
    bad = sum(1 for g in graphs if not chordal_edge_bound_check(g).ok)
    report.add_check(
        "chordal-edge-bound",
        "|E| <= (omega-1)n - C(omega,2) and |E| <= omega(n-1)",
        0,
        bad,
        bad == 0,
    )


def _triangle_free(g) -> bool:
    return all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())


def _hamilton_paths_ok(t: int) -> bool:
    n = 4 * t - 5
    size_a = 2 * t - 2
    paths = constructions.hamilton_paths_for_construction(t)
    seen = set()
    for path in paths:
        if sorted(path) != list(range(n)):
            return False
        for u, v in zip(path, path[1:]):
            if (u < size_a) == (v < size_a):
                return False
            seen.add((min(u, v), max(u, v)))
    want = {(a, b) for a in range(size_a) for b in range(size_a, n)}
    total = sum(len(p) - 1 for p in paths)
    return seen == want and total == len(want)


def _finish_suite(report: RunReport, rows: list[dict], inequality: str) -> None:
    rows.sort(key=lambda r: r["seed"])
    report.results["instances"] = rows
    failures = [r["name"] for r in rows if not r["pass"]]
    report.add_check(
        "suite",
        inequality,
        len(rows),
        len(rows) - len(failures),
        not failures,
        failures=failures or None,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    report = RunReport(
        meta={
            "suite": args.suite,
            "seed": args.seed,
            "samples": args.samples,
            "n": args.n,
            "t": args.t,
            "k": args.k,
        }
    )
    with _Timed(report, args.suite):
        if args.suite == "lower":
            _verify_lower(args, report)
        elif args.suite == "t33":
            _verify_t33(args, report)
        elif args.suite == "tt":
            _verify_tt(args, report)
        elif args.suite == "c4free22":
            _verify_c4free22(args, report)
        else:
            _verify_constructions(args, report)
    report.emit()
    return 0 if report.ok else 1


def _int_at_least(low: int):
    """argparse ``type`` for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() refuses the text
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongcover",
        description="Strong covers of multicolored complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a named instance as JSON")
    gen.add_argument(
        "construction",
        choices=[
            "onefourth",
            "k5star",
            "k4paths",
            "k8c4free",
            "partition",
            "intervals",
            "subtrees",
        ],
    )
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--t", type=int, default=3)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--anchor", type=float, default=0.0)
    gen.add_argument("--host-size", type=int, default=6)
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="run property checks on an instance")
    check.add_argument("instance", help="path to instance JSON, or - for stdin")
    check.add_argument("--tk", type=int, default=None, metavar="K")
    check.add_argument("--kfold", type=int, default=None, metavar="K")
    check.add_argument("--chordal", action="store_true")
    check.add_argument("--c4free", action="store_true")
    check.set_defaults(func=cmd_check)

    cover = sub.add_parser("cover", help="run a cover algorithm on an instance")
    cover.add_argument(
        "algorithm", choices=["greedy", "exact", "t33", "tt", "c4free22"]
    )
    cover.add_argument("instance", help="path to instance JSON, or - for stdin")
    cover.add_argument("--k", type=int, default=None)
    cover.add_argument("--max-exact", type=_int_at_least(0), default=40)
    cover.set_defaults(func=cmd_cover)

    verify = sub.add_parser(
        "verify", help="run a coverage guarantee suite over a seeded corpus"
    )
    verify.add_argument(
        "suite", choices=["lower", "t33", "tt", "c4free22", "constructions"]
    )
    verify.add_argument("--n", type=int, default=10)
    verify.add_argument("--t", type=int, default=3)
    verify.add_argument("--k", type=int, default=3)
    verify.add_argument("--samples", type=_int_at_least(1), default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
