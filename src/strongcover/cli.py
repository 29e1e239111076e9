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
import functools
import json
import marshal
import os
import sys
import threading
import time
from math import ceil
from random import Random

from . import constructions, corpus
from ._kernels import maximal_cliques
from .chordal import chordal_edge_bound_check, induced_c4_free
from .core import (
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
    _Record,
    _pierced,
    coloring_from_intervals,
    coloring_from_subtrees,
    is_tk_coloring,
    kfold_min_colors,
    verify_cover,
)
from .covers import (
    color_certificates,
    counting_chain_check,
    exact_cover_and_theta,
    greedy_strong_cover,
    induced_c4s,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
)
from .errors import GuaranteeError, InputError, PreconditionError, SizeLimitError


class RunReport(_Record):
    """Machine-readable outcome of one command invocation."""

    _FIELDS = ("meta", "results", "checks", "times")

    def __init__(self, meta: dict, results: dict | None = None,
                 checks: list | None = None, times: dict | None = None) -> None:
        self.meta = meta
        self.results = {} if results is None else results
        self.checks = [] if checks is None else checks
        self.times = {} if times is None else times

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

    def add_holds(self, name: str, inequality: str, ok: bool, **extra) -> None:
        """A yes/no check: expected True, observed and passed ``ok``."""
        self.add_check(name, inequality, True, ok, ok, **extra)

    def add_witness(self, name: str, inequality: str, witness) -> None:
        """A yes/no check that holds when ``witness`` of a failure is empty."""
        self.add_holds(name, inequality, not witness, witness=witness or None)

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
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


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


Family = TIntervalFamily | TSubtreeFamily


def _load_instance(path: str) -> tuple[MultiColoring, Family | None]:
    """Parse a coloring, interval family, or subtree family document.

    A family document gives its derived coloring, which keeps the family's
    PEOs, and the family itself (an interval family translates covers back
    into piercing points); an edges document has no family.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        data = json.loads(text)
    except json.JSONDecodeError:
        raise  # reported by ``main`` as it is
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, or an integer past Python's int-to-str digit limit
        raise InputError(f"unreadable instance document: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("instance document must be a JSON object")
    if "edges" in data:
        return MultiColoring.from_dict(data), None
    if "host_edges" in data:
        fam = TSubtreeFamily.from_dict(data)
        return coloring_from_subtrees(fam), fam
    if "members" in data:
        fam = TIntervalFamily.from_dict(data)
        return coloring_from_intervals(fam), fam
    raise InputError("unrecognized instance document")


# each generator of ``gen``: its constructor in ``constructions``, looked up
# per call so that it can be replaced there, and the arguments it takes
_GENERATORS = {
    "onefourth": ("construct_onefourth", ("t",)),
    "k5star": ("construct_k5star", ()),
    "k4paths": ("construct_k4_two_paths", ()),
    "k8c4free": ("construct_k8_c4free_3col", ()),
    "partition": ("construct_partition_coloring", ("n", "t")),
    "intervals": ("random_interval_family", ("n", "t", "seed", "anchor", "k")),
    "subtrees": (
        "random_subtree_family", ("n", "t", "seed", "host_size", "anchor", "k")
    ),
}


def cmd_gen(args: argparse.Namespace) -> int:
    """Emit the instance with ``meta`` holding the generator, the arguments
    it ran with, and ``k_ok`` for a seeded draw."""
    constructor, params = _GENERATORS[args.construction]
    passed = {p: getattr(args, p) for p in params}
    made = getattr(constructions, constructor)(**passed)
    meta = {"generator": args.construction, **passed}
    if isinstance(made, tuple):  # a seeded draw: (family, k-wise check held)
        made, meta["k_ok"] = made
    doc = {**made.to_dict(), "meta": meta}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    col, _fam = _load_instance(args.instance)
    report = RunReport(meta={"source": args.instance, "n": col.n, "t": col.t})
    if args.tk is not None:
        with _Timed(report, "tk"):
            witness = _tk_witness(col, args.tk)
        report.add_witness(
            "tk", f"every {args.tk}-subset spans a monochromatic clique", witness
        )
    # one certificate per color, searched by the first check that needs it
    certificates = functools.cache(lambda: list(color_certificates(col)))
    if args.chordal:
        with _Timed(report, "chordal"):
            holes = {
                str(i): cert.hole
                for i, (_g, cert) in enumerate(certificates(), start=1)
                if not cert.is_chordal
            }
        report.add_witness("chordal", "every color graph is chordal", holes)
    if args.c4free:
        with _Timed(report, "c4free"):
            squares = {
                str(i): list(square)
                for i, square in induced_c4s(certificates())
                if square is not None
            }
        report.add_witness("c4free", "no color graph has an induced 4-cycle", squares)
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


def _tk_witness(col: MultiColoring, k: int) -> list[int]:
    """The first k-subset spanning no monochromatic clique, or []."""
    return sorted(is_tk_coloring(col, k)[1] or ())


def _clique_limit(algorithm: str, t: int) -> int:
    """Cliques enough for a chordal (t,t)-coloring: 2 for even t, 3 for odd
    t and for the three-color cover ``t33``."""
    return 3 if algorithm == "t33" or t % 2 else 2


def _guarantee(
    algorithm: str, col: MultiColoring, cover: StrongCover, covered: int, k
) -> tuple[int, int, bool]:
    """(bound, observed, holds) of the bound ``algorithm`` guarantees, for a
    valid cover of ``col`` reaching ``covered`` vertices: greedy covers at
    least (k-1)n/(k+1) vertices of a (t,k)-coloring, c4free22 at least
    4n/5, and t33 and tt cover everything with at most their clique limit.
    A count reaches a fraction of n exactly when it reaches its ceiling."""
    n = col.n
    if algorithm in ("t33", "tt"):
        limit = _clique_limit(algorithm, col.t)
        return limit, cover.size(), cover.size() <= limit and covered == n
    bound = ceil((k - 1) * n / (k + 1)) if algorithm == "greedy" else ceil(4 * n / 5)
    return bound, covered, covered >= bound


# the bound check of ``cover``, by algorithm: its name and its inequality,
# formatted with k, t and the bound
_BOUND_CHECKS = {
    "greedy": ("greedy-lower-bound", "covered*(k+1) >= (k-1)*n with k={k}"),
    "t33": ("three-cliques", "at most 3 cliques cover all vertices"),
    "tt": ("few-cliques", "at most {bound} cliques cover all vertices (t={t})"),
    "c4free22": ("four-fifths", "covered >= ceil(4n/5)"),
}


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
    if args.k is not None and not 2 <= args.k <= col.n:
        raise InputError(f"need 2 <= k <= n, got k={args.k}, n={col.n}")
    try:
        cover = _run_cover(args, col, report)
    except (PreconditionError, GuaranteeError, SizeLimitError, InputError) as exc:
        report.results["error"] = f"{type(exc).__name__}: {exc}"
        report.add_holds("precondition", "algorithm precondition holds", False)
        report.emit()
        return 1
    points, valid, covered = _checked(col, fam, cover)
    report.results["cover"] = cover.to_dict()
    report.results["covered"] = covered
    report.add_holds(
        "cover-valid", "each assigned set is a clique in its color", valid
    )
    algorithm, k = args.algorithm, args.k
    if algorithm in _BOUND_CHECKS and not (algorithm == "greedy" and k is None):
        if algorithm == "greedy":  # its bound holds on (t,k)-colorings
            with _Timed(report, "tk"):
                witness = _tk_witness(col, k)
            report.add_witness(
                "tk-precondition", f"instance is a (t,{k})-coloring", witness
            )
        name, inequality = _BOUND_CHECKS[algorithm]
        bound, observed, holds = _guarantee(algorithm, col, cover, covered, k)
        report.add_check(
            name, inequality.format(k=k, t=col.t, bound=bound), bound, observed, holds
        )
    if isinstance(fam, TIntervalFamily) and valid:
        report.results["piercing_points"] = [list(point) for point in points]
    report.emit()
    return 0 if report.ok else 1


def _checked(
    col: MultiColoring, fam: Family | None, cover: StrongCover
) -> tuple[list[tuple[int, int]] | None, bool, int]:
    """(piercing points or None, valid, covered) of a cover of ``col``: on
    ``fam``'s tracks when there is a family (by Helly, a set is a clique
    exactly when its members share a point there), else on ``col``'s rows."""
    if fam is None:
        valid, covered = verify_cover(col, cover)
        return None, valid, covered
    points, covered = _pierced(fam, cover)
    return points, points is not None, covered


def _run_cover(
    args: argparse.Namespace, col: MultiColoring, report: RunReport
) -> StrongCover:
    algorithm = args.algorithm
    with _Timed(report, algorithm):
        if algorithm == "greedy":
            cover, trace = greedy_strong_cover(col)
            report.results["uncovered"] = sorted(trace.uncovered)
        elif algorithm == "exact":
            cover, report.results["theta"] = exact_cover_and_theta(
                col, max_n=args.max_exact
            )
        else:  # looked up per call, so they can be replaced in this module
            cover = {"t33": strong_cover_33, "tt": strong_cover_tt,
                     "c4free22": strong_cover_c4free_22}[algorithm](col)
    return cover


def _run_suite(args, report, inequality, make, check) -> None:
    """One row per sample: ``make(i, seed)`` gives the row's
    ``corpus.ColoringInstance`` and ``check(instance)`` the row's findings,
    ``pass`` included.  A failed precondition, guarantee or size limit marks
    its row failed with the error and the suite goes on."""

    def make_row(i):
        seed = args.seed + i
        row = {"name": f"{args.suite}-seed{seed}", "seed": seed}
        try:
            inst = make(i, seed)
            row["name"], row["n"] = inst.name, inst.coloring.n
            row.update(check(inst))
        except (PreconditionError, GuaranteeError, SizeLimitError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["pass"] = False
        return row

    rows = _shared_rows(make_row, args.samples)
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# a new pipe holds at least one page, so one write of this many bytes fills
# the row pipe without blocking
_PIPE_FILL = 4096


def _shared_rows(make_row, count: int) -> list:
    """``[make_row(i) for i in range(count)]``, made by this process and by
    forked children: one per further usable CPU, and never more than one
    process per two rows.  Every process takes blocks of row indices from
    one pipe, filled before the fork; each child sends its rows back with
    ``marshal`` and leaves through ``os._exit``.  Rows that a child does not
    return (it failed) and rows that raised are made here afterwards, in
    index order, so the rows, and any exception, are those of the serial
    loop.  Serial without ``os.fork`` or while another thread runs."""
    processes = min(_usable_cpus(), count // 2)
    if processes < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [make_row(i) for i in range(count)]
    block = -(-count // (_PIPE_FILL // 4))
    todo, fill = os.pipe()
    os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(0, count, block)))
    os.close(fill)
    made, children = {}, []
    try:
        for _ in range(processes - 1):
            back, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer children
                os.close(back)
                os.close(send)
                break
            if pid == 0:  # the child: it never returns into the caller
                code = 1
                try:
                    os.close(back)
                    data = memoryview(marshal.dumps(_take(make_row, todo, block, count)))
                    while data:
                        data = data[os.write(send, data):]
                    code = 0
                finally:
                    os._exit(code)
            os.close(send)
            children.append((pid, open(back, "rb")))
        made = _take(make_row, todo, block, count)
    finally:
        os.close(todo)
        for pid, rows in children:
            try:
                data = rows.read()
            finally:
                rows.close()
                status = os.waitpid(pid, 0)[1]
            if status == 0:
                try:
                    made.update(marshal.loads(data))
                except (EOFError, ValueError):  # short data
                    pass
    return [made[i] if i in made else make_row(i) for i in range(count)]


def _take(make_row, todo: int, block: int, count: int) -> dict:
    """Rows by index, for each block of indices read from the pipe ``todo``
    (the block's first index), until the pipe is empty or a row raises."""
    made = {}
    try:
        while token := os.read(todo, 4):
            start = int.from_bytes(token, "little")
            for i in range(start, min(start + block, count)):
                made[i] = make_row(i)
    except Exception:  # the row is made again, and raises, in index order
        pass
    return made


def _alternating(n: int, t: int, k: int):
    """``make`` for suites alternating interval and subtree instances."""
    return lambda i, seed: corpus.seeded_tk_instance(
        "subtree" if i % 2 else "interval", n, t, k, seed
    )


def _verify_lower(args: argparse.Namespace, report: RunReport) -> None:
    def check(inst):
        col = inst.coloring
        cover, trace = greedy_strong_cover(col)
        _, valid, covered = _checked(col, inst.family, cover)
        chain = counting_chain_check(col, trace, args.k)
        holds = _guarantee("greedy", col, cover, covered, args.k)[2]
        return {
            "covered": covered,
            "chain": [chain.lower, chain.m, chain.upper],
            "pass": valid and holds and chain.ok,
        }

    _run_suite(
        args, report, "greedy covers at least (k-1)n/(k+1) vertices",
        _alternating(args.n, args.t, args.k), check,
    )


def _verify_few_cliques(args: argparse.Namespace, report: RunReport) -> None:
    """The ``t33`` and ``tt`` suites: at most 2 (t even) or 3 (t odd) cliques
    cover a chordal (t,t)-coloring; t33 is t = 3 by the three-color cover."""
    t33 = args.suite == "t33"
    t = 3 if t33 else args.t

    def check(inst):
        col = inst.coloring
        cover = (strong_cover_33 if t33 else strong_cover_tt)(col)
        _, valid, covered = _checked(col, inst.family, cover)
        _, size, holds = _guarantee(args.suite, col, cover, covered, None)
        return {"cliques": size, "pass": valid and holds}

    inequality = (
        "three monochromatic cliques cover everything" if t33
        else f"at most {_clique_limit('tt', t)} cliques cover everything"
    )
    _run_suite(args, report, inequality, _alternating(args.n, t, t), check)


def _verify_c4free22(args: argparse.Namespace, report: RunReport) -> None:
    star = constructions.construct_k5star()

    def make(i, seed):
        if i % 2 == 0:
            rng = Random(seed)
            sizes = [1 + rng.randrange(3) for _ in range(5)]
            col = constructions.blow_up(star, constructions.BlowupSpec(sizes))
            name = "k5star-blowup-" + "".join(map(str, sizes))
            return corpus.ColoringInstance(name, col, 2, 2)
        return corpus.seeded_tk_instance("interval", args.n, 2, 2, seed)

    def check(inst):
        col = inst.coloring
        cover = strong_cover_c4free_22(col)
        _, valid, covered = _checked(col, inst.family, cover)
        bound, covered, holds = _guarantee("c4free22", col, cover, covered, None)
        return {"covered": covered, "bound": bound, "pass": valid and holds}

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
    report.add_holds(
        "k8-classes",
        "each class triangle-free and induced-C4-free",
        all(squares) and all(triangle_free),
    )
    report.add_holds(
        "hamilton-paths",
        "paths decompose all [A,B] pairs exactly once for t <= 8",
        all(_hamilton_paths_ok(t) for t in range(2, 9)),
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


def cmd_verify(args: argparse.Namespace) -> int:
    report = RunReport(meta={a: v for a, v in vars(args).items() if a != "command"})
    with _Timed(report, args.suite):
        if args.suite == "lower":
            _verify_lower(args, report)
        elif args.suite in ("t33", "tt"):
            _verify_few_cliques(args, report)
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
    gen.add_argument("construction", choices=list(_GENERATORS))
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--t", type=int, default=3)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--anchor", type=float, default=0.0)
    gen.add_argument("--host-size", type=int, default=6)

    check = sub.add_parser("check", help="run property checks on an instance")
    check.add_argument("instance", help="path to instance JSON, or - for stdin")
    check.add_argument("--tk", type=int, default=None, metavar="K")
    check.add_argument(
        "--kfold", type=_int_at_least(1), default=None, metavar="K"
    )
    check.add_argument("--chordal", action="store_true")
    check.add_argument("--c4free", action="store_true")

    cover = sub.add_parser("cover", help="run a cover algorithm on an instance")
    cover.add_argument(
        "algorithm", choices=["greedy", "exact", "t33", "tt", "c4free22"]
    )
    cover.add_argument("instance", help="path to instance JSON, or - for stdin")
    cover.add_argument("--k", type=int, default=None)
    cover.add_argument("--max-exact", type=_int_at_least(0), default=40)

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
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, once per process: each parse gets a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so the commands can be replaced in this module
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
