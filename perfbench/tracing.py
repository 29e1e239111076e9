"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each traced library function with a wrapper
that records a span: name, operation id, parent span, start and end.  A
module that imported a function by name holds its own reference, so the
wrapper goes into every ``strongcover`` namespace that holds the function
(for example ``covers.is_chordal`` as well as ``chordal.is_chordal``, and
the ``_kernels`` attributes).  Methods are replaced on their class.
``Tracer.remove`` puts every original back.  Spans stay in memory until
the benchmark writes them at its end.

Hot one-line helpers such as ``MultiColoring.colors_of`` are not traced:
a wrapper would cost more than the call.  Branch-and-bound node and prune
counts are not visible from outside the library and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter
from typing import Callable, NamedTuple

_MARK = "__perfbench_span__"


def _greedy_steps(result) -> int:
    return len(result[1].steps)


def _accepted(result) -> int:
    return int(bool(result[1]))


# Argument keys return (hashable key, object to keep alive).


def _first_arg(args, kwargs):
    return id(args[0]), args[0]


def _coloring_color(args, kwargs):
    color = args[1] if len(args) > 1 else kwargs["i"]
    return (id(args[0]), color), args[0]


class Span(NamedTuple):
    """One traced layer.

    ``targets`` are (module, function or Class.method) pairs.  ``metrics``
    are the suffixes reported: ``ms`` (self time) or ``calls``.  ``probe``
    turns a return value into a count stored on the span; ``key`` names the
    object a call works on, so repeated work on one object can be counted.
    """

    targets: tuple[tuple[str, str], ...]
    metrics: tuple[str, ...] = ("ms",)
    probe: Callable | None = None
    key: Callable | None = None


_TIMED_CALLS = ("ms", "calls")

SPANS = {
    # cli.main holds every other span of an operation; its self time is
    # parsing, dispatch and all untraced work.
    "cli.main": Span((("strongcover.cli", "main"),), ("self_ms",)),
    "cli.emit": Span((("strongcover.cli", "RunReport.emit"),)),
    "core.from_dict": Span((
        ("strongcover.core", "MultiColoring.from_dict"),
        ("strongcover.core", "TIntervalFamily.from_dict"),
        ("strongcover.core", "TSubtreeFamily.from_dict"),
    )),
    "core.build": Span((
        ("strongcover.core", "coloring_from_intervals"),
        ("strongcover.core", "coloring_from_subtrees"),
    ), _TIMED_CALLS, key=_first_arg),
    "core.validate": Span((("strongcover.core", "MultiColoring.validate"),), _TIMED_CALLS),
    "core.color_graph": Span(
        (("strongcover.core", "MultiColoring.color_graph"),), _TIMED_CALLS,
        key=_coloring_color,
    ),
    "core.verify": Span((("strongcover.core", "verify_cover"),)),
    "core.pierce": Span((("strongcover.core", "piercing_points"),)),
    "core.tk": Span((("strongcover.core", "is_tk_coloring"),)),
    "core.kfold": Span((("strongcover.core", "kfold_min_colors"),)),
    "graphs.subgraph": Span((("strongcover.graphs", "Graph.subgraph"),), _TIMED_CALLS),
    "chordal.is_chordal": Span((("strongcover.chordal", "is_chordal"),), _TIMED_CALLS),
    "chordal.mcs": Span((("strongcover.chordal", "mcs_order"),), _TIMED_CALLS),
    "chordal.max_clique": Span((("strongcover.chordal", "max_clique_chordal"),)),
    "chordal.maximal_cliques": Span(
        (("strongcover.chordal", "maximal_cliques_chordal"),), probe=len
    ),
    "chordal.cutset": Span((("strongcover.chordal", "clique_cutset"),)),
    "chordal.c4": Span((("strongcover.chordal", "induced_c4_free"),)),
    "kernels.tk": Span((("strongcover._kernels", "first_tk_violation"),), _TIMED_CALLS),
    "kernels.c4": Span((("strongcover._kernels", "find_induced_c4"),), _TIMED_CALLS),
    "kernels.cliques": Span(
        (("strongcover._kernels", "maximal_cliques"),), _TIMED_CALLS, probe=len
    ),
    "covers.greedy": Span(
        (("strongcover.covers", "greedy_strong_cover"),), probe=_greedy_steps
    ),
    "covers.k5star": Span((("strongcover.covers", "find_k5star"),), _TIMED_CALLS),
    "covers.blowup": Span((("strongcover.covers", "grow_blowup"),)),
    "covers.c4free22": Span((("strongcover.covers", "strong_cover_c4free_22"),)),
    "covers.exact": Span((("strongcover.covers", "exact_max_strong_cover"),)),
    "covers.theta": Span((("strongcover.covers", "theta"),)),
    "covers.two_clique": Span(
        (("strongcover.covers", "two_clique_cover_exact"),), _TIMED_CALLS
    ),
    "covers.t33": Span((("strongcover.covers", "strong_cover_33"),)),
    "covers.tt": Span((("strongcover.covers", "strong_cover_tt"),)),
    "covers.chain_check": Span((("strongcover.covers", "counting_chain_check"),)),
    "constructions.family": Span((
        ("strongcover.constructions", "random_interval_family"),
        ("strongcover.constructions", "random_subtree_family"),
    ), _TIMED_CALLS, probe=_accepted),
    # is_kwise_intersecting lives in core; constructions calls it to reject draws.
    "constructions.kwise": Span(
        (("strongcover.core", "is_kwise_intersecting"),), _TIMED_CALLS
    ),
    "constructions.blow_up": Span((("strongcover.constructions", "blow_up"),)),
    "corpus.instance": Span((("strongcover.corpus", "seeded_tk_instance"),), _TIMED_CALLS),
    "corpus.chordal_graphs": Span((("strongcover.corpus", "random_chordal_graphs"),)),
}

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    (f"{span}_{suffix}", "count" if suffix == "calls" else "ms", "lower")
    for span, spec in SPANS.items()
    for suffix in spec.metrics
] + [
    ("cli.input_bytes", "bytes", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("core.builds_per_op", "ratio", "lower"),
    ("core.color_graphs_per_color", "ratio", "lower"),
    ("chordal.certificates_per_color", "ratio", "lower"),
    ("chordal.cliques_enumerated", "count", "lower"),
    ("kernels.cliques_found", "count", "lower"),
    ("covers.greedy_steps", "count", "lower"),
    ("constructions.accept_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def _strongcover_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "strongcover" or name.startswith("strongcover."))
    ]


class Tracer:
    """Records spans while installed.  One span is a list
    ``[name, op, parent, start, end, count, key]``; ``parent`` is the index
    of the enclosing span or -1, ``op`` the operation id set by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._held: list[object] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        # Objects named by argument keys stay alive until the operation
        # ends, so their ids cannot be reused within it.
        self._held = []

    def _wrap(self, name, fn, probe, key):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, tracer.op, stack[-1] if stack else -1, 0.0, 0.0, 0, None]
            if key is not None:
                rec[6], held = key(args, kwargs)
                tracer._held.append(held)
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _strongcover_modules()
        for name, (targets, _, probe, key) in SPANS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    orig = owner.__dict__[attr]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(name, orig.__func__, probe, key))
                    else:
                        new = self._wrap(name, orig, probe, key)
                    setattr(owner, attr, new)
                    self._patched.append((owner, attr, orig))
                    continue
                orig = getattr(module, path)
                new = self._wrap(name, orig, probe, key)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, new)
                        self._patched.append((m, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []
        self._held = []


def leftover_wrappers() -> list[str]:
    """Names of traced wrappers still reachable from strongcover modules or
    their classes; empty once a tracer has been removed."""
    found = []
    for m in _strongcover_modules():
        for attr, v in vars(m).items():
            if hasattr(v, _MARK):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(v, type) and v.__module__.startswith("strongcover"):
                for cattr, cv in vars(v).items():
                    if hasattr(getattr(cv, "__func__", cv), _MARK):
                        found.append(f"{m.__name__}.{attr}.{cattr}")
    return found


def pass_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by metric name.

    Self time is a span's duration minus its child spans' durations.
    Ratios: ``core.builds_per_op`` is coloring builds per distinct family
    built from, ``core.color_graphs_per_color`` color-graph builds per
    distinct (coloring, color) pair, ``chordal.certificates_per_color``
    chordality certificates per such pair; 1.0 means each is computed once.
    ``constructions.accept_ratio`` is families accepted per rejection draw.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child[rec[2]] += rec[4] - rec[3]
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    keys: dict[str, set] = {}
    draws_under = [0] * len(spans)
    for i, rec in enumerate(spans):
        name = rec[0]
        self_ms[name] = self_ms.get(name, 0.0) + (rec[4] - rec[3] - child[i]) * 1e3
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + rec[5]
        if rec[6] is not None:
            keys.setdefault(name, set()).add((rec[1], rec[6]))
        if name in ("constructions.kwise", "core.tk") and rec[2] >= 0:
            draws_under[rec[2]] += 1
    # A family drawn without rejection sampling is one draw.
    draws = sum(
        max(1, draws_under[i])
        for i, rec in enumerate(spans)
        if rec[0] == "constructions.family"
    )
    out: dict[str, float] = {}
    for span, spec in SPANS.items():
        for suffix in spec.metrics:
            value = calls.get(span, 0) if suffix == "calls" else self_ms.get(span, 0.0)
            out[f"{span}_{suffix}"] = value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pairs = len(keys.get("core.color_graph", ()))
    out["core.builds_per_op"] = ratio(calls.get("core.build", 0), len(keys.get("core.build", ())))
    out["core.color_graphs_per_color"] = ratio(calls.get("core.color_graph", 0), pairs)
    out["chordal.certificates_per_color"] = ratio(calls.get("chordal.is_chordal", 0), pairs)
    out["chordal.cliques_enumerated"] = counts.get("chordal.maximal_cliques", 0)
    out["kernels.cliques_found"] = counts.get("kernels.cliques", 0)
    out["covers.greedy_steps"] = counts.get("covers.greedy", 0)
    out["constructions.accept_ratio"] = ratio(counts.get("constructions.family", 0), draws)
    return out


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer value over traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
