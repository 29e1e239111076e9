"""Acceptance gate: the ten headline guarantees, one printed line each.

Every test prints exactly one "criterion N: PASS/FAIL (...)" line before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  All comparisons are exact integer arithmetic; the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from math import ceil

import oracles
from corpora import (
    c4free_22_corpus,
    chordal_33_corpus,
    chordal_tk_corpus,
    chordal_tt_corpus,
    helly_corpus,
    substitution_corpus,
)
from strongcover.chordal import (
    chordal_edge_bound_check,
    induced_c4_free,
    is_chordal,
)
from strongcover.constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
    construct_k4_two_paths,
    construct_k5star,
    construct_k8_c4free_3col,
    construct_onefourth,
    construct_partition_coloring,
    hamilton_paths_for_construction,
)
from strongcover.core import (
    coloring_from_intervals,
    is_tk_coloring,
    verify_cover,
)
from strongcover.corpus import random_chordal_graphs
from strongcover.covers import (
    counting_chain_check,
    exact_max_strong_cover,
    greedy_strong_cover,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
)
from strongcover.errors import PreconditionError


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


_TK_RUNS = None


def tk_greedy_runs():
    """Greedy runs over the (t,k) corpus with three color orders each.

    Shared by criteria 2 and 3 so the traces are computed once.
    """
    global _TK_RUNS
    if _TK_RUNS is None:
        rng = random.Random(42)
        runs = []
        for inst in chordal_tk_corpus():
            col = inst.coloring
            base = list(range(1, col.t + 1))
            shuffled = base[:]
            rng.shuffle(shuffled)
            orders = dict.fromkeys(
                [tuple(base), tuple(reversed(base)), tuple(shuffled)]
            )
            for order in orders:
                cover, trace = greedy_strong_cover(col, order=order)
                covered = verify_cover(col, cover).covered
                runs.append((inst, order, trace, covered))
        _TK_RUNS = runs
    return _TK_RUNS


def test_criterion_01_onefourth_tightness():
    failures = []
    worst = 0.0
    for t in (2, 3, 4, 5):
        col = coloring_from_intervals(construct_onefourth(t))
        start = time.perf_counter()
        covered = exact_max_strong_cover(col).covered()
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if covered != 3 * (t - 1) or col.n != 4 * t - 5:
            failures.append((t, covered))
        if elapsed >= 10.0:
            failures.append((t, f"{elapsed:.1f}s"))
    report(
        1,
        not failures,
        failures or f"exact = 3(t-1) of 4t-5 for t=2..5, worst {worst:.2f}s",
    )


def test_criterion_02_greedy_lower_bound():
    start = time.perf_counter()
    corpus = chordal_tk_corpus()
    bad_instances = [
        inst.name
        for inst in corpus
        if inst.coloring.n > 15 or not is_tk_coloring(inst.coloring, inst.k)[0]
    ]
    runs = tk_greedy_runs()
    failures = [
        (inst.name, order)
        for inst, order, _trace, covered in runs
        if covered * (inst.k + 1) < (inst.k - 1) * inst.coloring.n
    ]
    elapsed = time.perf_counter() - start
    ok = (
        len(corpus) >= 200
        and not bad_instances
        and not failures
        and elapsed < 60.0
    )
    report(
        2,
        ok,
        failures
        or bad_instances
        or f"{len(corpus)} instances, {len(runs)} greedy runs, {elapsed:.1f}s",
    )


def test_criterion_03_counting_chain():
    failures = []
    for inst, order, trace, _covered in tk_greedy_runs():
        chain = counting_chain_check(inst.coloring, trace, inst.k)
        if not chain.ok:
            failures.append((inst.name, order, chain))
    report(3, not failures, failures or f"{len(tk_greedy_runs())} traces")


def test_criterion_04_three_color_cover():
    corpus = chordal_33_corpus()
    failures = []
    crosschecked = 0
    for inst in corpus:
        col = inst.coloring
        cover = strong_cover_33(col)
        rep = verify_cover(col, cover)
        if not (rep.valid and rep.covered == col.n and cover.size() <= 3):
            failures.append(inst.name)
            continue
        if col.n <= 10:
            th = theta(col)
            crosschecked += 1
            if th is None or th > 3:
                failures.append((inst.name, th))
    ok = len(corpus) >= 100 and not failures and crosschecked > 0
    report(
        4,
        ok,
        failures
        or f"{len(corpus)} instances, theta <= 3 on {crosschecked} with n <= 10",
    )


def test_criterion_05_tt_cover():
    corpus = chordal_tt_corpus()
    failures = []
    seen_t = set()
    for inst in corpus:
        col = inst.coloring
        seen_t.add(col.t)
        limit = 2 if col.t % 2 == 0 else 3
        cover = strong_cover_tt(col)
        rep = verify_cover(col, cover)
        if not (rep.valid and rep.covered == col.n and cover.size() <= limit):
            failures.append((inst.name, cover.size()))
    ok = seen_t == {2, 3, 4, 5} and not failures
    report(5, ok, failures or f"{len(corpus)} instances, t in 2..5")


def test_criterion_06_c4free_four_fifths():
    corpus = c4free_22_corpus()
    blowups = [i for i in corpus if i.name.startswith("k5star-blowup-")]
    failures = []
    for inst in corpus:
        col = inst.coloring
        cover = strong_cover_c4free_22(col)
        rep = verify_cover(col, cover)
        if not (rep.valid and rep.covered >= ceil(4 * col.n / 5)):
            failures.append(inst.name)
    for s in (1, 2, 3):
        col = blow_up(construct_k5star(), BlowupSpec([s] * 5))
        if exact_max_strong_cover(col).covered() != 4 * s:
            failures.append(f"equal-size blow-up s={s}")
    ok = len(corpus) >= 100 and len(blowups) == 243 and not failures
    report(
        6,
        ok,
        failures
        or f"{len(corpus)} instances incl. {len(blowups)} blow-ups, "
        "equal sizes exactly 4n/5",
    )


def test_criterion_07_substitution_invariance():
    cases = substitution_corpus()
    failures = []
    for case in cases:
        base = case.base
        post = clique_substitute(base, case.vertex, case.size)
        if post.n > 9:
            failures.append((case.name, "n", post.n))
            continue
        if theta(base) != theta(post):
            failures.append((case.name, "theta"))
        for c in range(1, base.t + 1):
            g0, g1 = base.color_graph(c), post.color_graph(c)
            if is_chordal(g0).is_chordal != is_chordal(g1).is_chordal:
                failures.append((case.name, "chordal", c))
            if induced_c4_free(g0)[0] != induced_c4_free(g1)[0]:
                failures.append((case.name, "c4free", c))
    ok = len(cases) == 50 and not failures
    report(7, ok, failures or f"{len(cases)} substitution pairs")


def test_criterion_08_exact_matches_naive_search():
    pool = [
        ("k5star", construct_k5star()),
        ("k4paths", construct_k4_two_paths()),
        ("onefourth-2", coloring_from_intervals(construct_onefourth(2))),
        ("onefourth-3", coloring_from_intervals(construct_onefourth(3))),
        ("partition-6-2", coloring_from_intervals(construct_partition_coloring(6, 2))),
        ("partition-9-3", coloring_from_intervals(construct_partition_coloring(9, 3))),
    ]
    for inst in (
        chordal_tk_corpus()
        + chordal_33_corpus()
        + chordal_tt_corpus()
        + c4free_22_corpus()
    ):
        if inst.coloring.n <= 10:
            pool.append((inst.name, inst.coloring))
    failures = []
    compared_greedy = 0
    for name, col in pool:
        exact = exact_max_strong_cover(col).covered()
        if exact != oracles.max_strong_cover_size(col):
            failures.append((name, "oracle"))
        try:
            greedy = greedy_strong_cover(col)[0].covered()
        except PreconditionError:
            continue  # greedy requires chordal color graphs
        compared_greedy += 1
        if greedy > exact:
            failures.append((name, "greedy", greedy, exact))
    ok = not failures and len(pool) >= 300 and compared_greedy >= 200
    report(
        8,
        ok,
        failures
        or f"{len(pool)} instances vs naive search, greedy <= exact on "
        f"{compared_greedy}",
    )


def test_criterion_09_construction_checks():
    failures = []

    col8 = construct_k8_c4free_3col()
    if len(col8.edge_colors) != 28 or any(
        len(cs) != 1 for cs in col8.edge_colors.values()
    ):
        failures.append("k8 edge partition")
    rows8 = oracles.color_adjacency(col8)
    for c in (1, 2, 3):
        g = col8.color_graph(c)
        triangle_free = all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())
        if not (triangle_free and induced_c4_free(g)[0]):
            failures.append(f"k8 class {c}")
        if len(oracles.max_clique(8, rows8[c - 1])) != 2:
            failures.append(f"k8 omega color {c}")

    for t in range(2, 9):
        n, size_a = 4 * t - 5, 2 * t - 2
        seen = set()
        ok_t = True
        for path in hamilton_paths_for_construction(t):
            if sorted(path) != list(range(n)):
                ok_t = False
            for u, v in zip(path, path[1:]):
                if (u < size_a) == (v < size_a) or (min(u, v), max(u, v)) in seen:
                    ok_t = False
                seen.add((min(u, v), max(u, v)))
        if not ok_t or len(seen) != size_a * (n - size_a):
            failures.append(f"hamilton paths t={t}")

    paths = construct_k4_two_paths()
    rows4 = oracles.color_adjacency(paths)
    if theta(paths) != 2:
        failures.append("k4paths theta")
    if any(len(oracles.max_clique(4, rows4[c])) != 2 for c in (0, 1)):
        failures.append("k4paths omega")

    graphs = random_chordal_graphs(500)
    bad = [i for i, g in enumerate(graphs) if not chordal_edge_bound_check(g).ok]
    if bad or len(graphs) != 500:
        failures.append(f"edge bound failures {bad[:5]}")

    report(9, not failures, failures or "k8, hamilton paths, k4paths, 500 edge bounds")


def test_criterion_10_helly_agreement():
    families = helly_corpus()
    failures = []
    comparisons = 0
    for idx, fam in enumerate(families):
        col = coloring_from_intervals(fam)
        for k in range(2, fam.n + 1):
            comparisons += 1
            if oracles.kwise_intersecting(fam, k) != is_tk_coloring(col, k)[0]:
                failures.append((idx, k))
    ok = len(families) == 500 and not failures
    report(10, ok, failures[:5] or f"{comparisons} comparisons over 500 families")
