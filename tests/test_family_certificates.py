"""Families certify their own colorings: the sweep orders are perfect
elimination orderings, the covers take a family coloring's orders instead
of searching for them, and a family document never runs maximum
cardinality search or the induced-C4 scan."""

import dataclasses
import io
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import corpora
import golden
import oracles
from strongcover import _kernels as kernels
from strongcover import chordal, constructions, corpus, covers
from strongcover.cli import main
from strongcover.constructions import random_interval_family, random_subtree_family
from strongcover.core import (
    MAX_COLORS,
    MAX_SLOTS,
    MAX_VERTICES,
    MultiColoring,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    family_peos,
)
from strongcover.covers import (
    greedy_strong_cover,
    strong_cover_33,
    strong_cover_tt,
)
from strongcover.errors import InputError


def run(argv, doc, monkeypatch, capsys):
    """main(argv) with ``doc`` as JSON on stdin: (exit code, stdout, stderr)."""
    text = json.dumps(doc)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_peos(fam, col):
    peos = family_peos(fam)
    assert len(peos) == fam.t
    for row, peo in zip(col.rows, peos):
        assert sorted(peo) == list(range(fam.n))
        assert oracles.is_peo(row, peo)


class TestIntervalSweepOrders:
    @pytest.mark.parametrize(
        "members",
        [
            [],
            [[(3, 3)]],
            [[(0, 1)], [(1, 2)]],
            [[(0, 1)], [(2, 3)]],
            [[(4, 4)], [(4, 4)], [(4, 4)], [(2, 6)]],  # points
            [[(0, 2)], [(2, 4)], [(2, 2)], [(4, 5)], [(4, 4)]],  # shared ends
            [[(0, 10)], [(2, 8)], [(3, 3)], [(4, 6)], [(9, 12)]],  # nested
            [[(-5, -1)], [(-3, 2)], [(-10, -4)], [(-1, -1)], [(2, 3)]],  # negative
        ],
    )
    def test_special_cases(self, members):
        fam = TIntervalFamily(1, members)
        assert_peos(fam, coloring_from_intervals(fam))

    def test_random_families(self):
        for seed in range(150):
            n = 1 + seed % 13
            fam, _ = random_interval_family(n, 1 + seed % 3, seed, anchor=(seed % 5) / 4)
            assert_peos(fam, coloring_from_intervals(fam))

    def test_order_is_by_right_end(self):
        fam = TIntervalFamily(2, [[(0, 9), (5, 5)], [(1, 2), (0, 7)], [(3, 4), (1, 1)]])
        assert family_peos(fam) == [[1, 2, 0], [2, 0, 1]]


class TestSubtreeSweepOrders:
    # rooted at 0: 0 - 3 - {1, 2}, 1 - 4
    HOST = [(0, 3), (1, 3), (2, 3), (1, 4)]

    def test_root_and_non_minimal_tops(self):
        members = [
            [frozenset({1, 3, 4})],  # top 3, not min 1
            [frozenset({0, 3})],  # holds the root
            [frozenset({2})],
            [frozenset({4})],
            [frozenset({0})],
            [frozenset({1, 4})],  # top 1
        ]
        fam = TSubtreeFamily(self.HOST, 1, members)
        assert fam._rooted()[1] == [[3], [0], [2], [4], [0], [1]]
        assert_peos(fam, coloring_from_subtrees(fam))
        # deepest top first, ties by member: tops 4 (depth 3), 2 and 1
        # (depth 2), 3 (depth 1), 0 (depth 0)
        assert family_peos(fam) == [[3, 2, 5, 0, 1, 4]]

    def test_random_families(self):
        for seed in range(150):
            n = 1 + seed % 13
            fam, _ = random_subtree_family(
                n, 1 + seed % 3, seed, host_size=1 + seed % 9, anchor=(seed % 5) / 4
            )
            assert_peos(fam, coloring_from_subtrees(fam))

    def test_siblings_without_their_parent_are_not_connected(self):
        with pytest.raises(InputError, match="subtree vertices not connected"):
            TSubtreeFamily([(0, 1), (0, 2)], 1, [[frozenset({1, 2})]])
        doc = {"host_edges": [[0, 1], [0, 2]], "t": 1, "members": [[[1, 2]]]}
        with pytest.raises(InputError, match="member 0: subtree vertices not connected"):
            TSubtreeFamily.from_dict(doc)

    def test_checks_keep_their_order(self):
        host = [(0, 1), (1, 2)]
        cases = [
            ([[frozenset({0}), frozenset({1})]], "has 2 subtree"),
            ([[frozenset()]], "empty subtree"),
            ([[frozenset({2, -1})]], "negative subtree vertex -1"),
            ([[frozenset({0, 2})]], "not connected"),
        ]
        for members, message in cases:
            with pytest.raises(InputError, match=message):
                TSubtreeFamily(host, 1, members).validate()
        with pytest.raises(InputError, match="host is not a tree"):
            TSubtreeFamily([(0, 1), (0, 1)], 1, [[frozenset({2})]]).validate()


def _family_documents():
    """(name, algorithm, family document, derived edges document) for the
    family instances of the test corpora."""
    cases = []
    for build, algorithms in (
        (corpora.chordal_tk_corpus, ("greedy",)),
        (corpora.chordal_33_corpus, ("greedy", "t33")),
        (corpora.chordal_tt_corpus, ("greedy", "tt")),
        (corpora.c4free_22_corpus, ("greedy", "c4free22")),
    ):
        for inst in build():
            if inst.family is None:
                continue
            for algorithm in algorithms:
                cases.append(
                    (inst.name, algorithm, inst.family.to_dict(), inst.coloring.to_dict())
                )
    return cases


def test_family_and_edges_documents_give_one_cover(monkeypatch, capsys):
    cases = _family_documents()
    assert len(cases) == 216 + 2 * 104 + 2 * 48 + 2 * 26
    for name, algorithm, fam_doc, edges_doc in cases:
        argv = ["cover", algorithm, "-"]
        code_f, out_f, _ = run(argv, fam_doc, monkeypatch, capsys)
        code_e, out_e, _ = run(argv, edges_doc, monkeypatch, capsys)
        rep_f, rep_e = json.loads(out_f), json.loads(out_e)
        assert (code_f, code_e) == (0, 0), name
        assert rep_f["results"]["cover"] == rep_e["results"]["cover"], (name, algorithm)
        assert rep_f["checks"] == rep_e["checks"], (name, algorithm)


@pytest.fixture
def no_search(monkeypatch):
    """Make maximum cardinality search and the induced-C4 scan fail."""

    def refuse(*args):
        raise AssertionError("searched a family document")

    monkeypatch.setattr(chordal, "mcs_order", refuse)
    monkeypatch.setattr(kernels, "find_induced_c4", refuse)


def _docs():
    """Two (3,3) family documents, 40 members each."""
    intervals, ok_i = random_interval_family(40, 3, 7, anchor=0.95, k=3)
    subtrees, ok_s = random_subtree_family(40, 3, 7, host_size=6, anchor=0.95, k=3)
    assert ok_i and ok_s
    return {"intervals": intervals.to_dict(), "subtrees": subtrees.to_dict()}


@pytest.mark.parametrize("kind", ["intervals", "subtrees"])
def test_family_documents_run_no_search(kind, no_search, monkeypatch, capsys):
    doc = _docs()[kind]
    for argv in (
        ["cover", "greedy", "-", "--k", "3"],
        ["cover", "t33", "-"],
        ["cover", "tt", "-"],
        ["check", "-", "--chordal", "--c4free"],
    ):
        code, out, err = run(argv, doc, monkeypatch, capsys)
        assert code == 0 and err == "", argv
        assert json.loads(out)["pass"] is True


def test_c4free22_family_document_runs_no_scan(no_search, monkeypatch, capsys):
    fam, ok = random_interval_family(30, 2, 3, anchor=0.9, k=2)
    assert ok
    code, out, _ = run(["cover", "c4free22", "-"], fam.to_dict(), monkeypatch, capsys)
    assert code == 0 and json.loads(out)["pass"] is True


def test_edges_documents_still_search(monkeypatch, capsys):
    calls = []

    def counted(g):
        calls.append(g.n)
        return order(g)

    order = chordal.mcs_order
    monkeypatch.setattr(chordal, "mcs_order", counted)
    fam = TIntervalFamily.from_dict(_docs()["intervals"])
    edges = coloring_from_intervals(fam).to_dict()
    code, _out, _err = run(["cover", "greedy", "-"], edges, monkeypatch, capsys)
    assert code == 0 and calls == [40, 40, 40]


def test_c4_scan_skips_only_certified_colors(monkeypatch, capsys):
    scans = []
    scan = kernels.find_induced_c4

    def counted(n, adj):
        scans.append(n)
        return scan(n, adj)

    monkeypatch.setattr(kernels, "find_induced_c4", counted)
    square = {"n": 4, "t": 1, "edges": [[0, 1, [1]], [1, 2, [1]], [2, 3, [1]], [0, 3, [1]]]}
    code, out, _ = run(["check", "-", "--c4free"], square, monkeypatch, capsys)
    (chk,) = json.loads(out)["checks"]
    assert code == 1 and chk["witness"] == {"1": [0, 1, 2, 3]} and scans == [4]
    fam = TIntervalFamily(1, [[(0, 1)], [(1, 2)], [(2, 3)], [(0, 3)]])
    code, _out, _ = run(["check", "-", "--c4free"], fam.to_dict(), monkeypatch, capsys)
    assert code == 0 and scans == [4]


def _toggled(adj, u, v):
    """A copy of adjacency masks with the edge uv flipped."""
    adj = list(adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return adj


class TestGivenOrders:
    """A family's coloring keeps its PEOs: taken unchecked while its rows
    are unchanged, dropped by any edit of the rows, never carried to
    another coloring."""

    def setup_method(self):
        inst = corpus.seeded_tk_instance("interval", 12, 3, 3, 0)  # a (3,3)-coloring
        self.col, self.peos = inst.coloring, family_peos(inst.family)
        self.plain = MultiColoring.from_dict(self.col.to_dict())  # no own orders
        assert not oracles.is_peo(self.col.rows[0], self.peos[0][::-1])

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        require = chordal._require_peo

        def counted(g, peo):
            seen.append(list(peo))
            return require(g, peo)

        monkeypatch.setattr(chordal, "_require_peo", counted)
        return seen

    @pytest.fixture
    def searched(self, monkeypatch):
        seen = []
        search = covers.is_chordal

        def counted(g):
            seen.append(g.n)
            return search(g)

        monkeypatch.setattr(covers, "is_chordal", counted)
        return seen

    def test_sweep_orders_of_their_coloring_are_not_checked(self, checked, searched):
        own = self.col._peos()
        assert all(type(order) is tuple for order in own)
        assert [list(order) for order in own] == self.peos
        given, _ = greedy_strong_cover(self.col)
        certs = list(covers.color_certificates(self.col))
        assert checked == [] and searched == []
        assert [cert.peo for _g, cert in certs] == list(own)
        assert given == greedy_strong_cover(self.plain)[0]

    def test_sweep_orders_of_another_coloring_are_checked(self, checked, searched):
        copy = self.col.select_colors([1, 2, 3])
        assert copy == self.col and copy is not self.col and copy._peos() is None
        assert greedy_strong_cover(copy)[0] == greedy_strong_cover(self.col)[0]
        assert checked == [] and searched == [self.col.n] * 3
        # the orders of one color are not those of another
        swapped = self.col.select_colors([2, 1, 3])
        assert not oracles.is_peo(swapped.rows[0], self.peos[0])
        assert swapped._peos() is None

    def test_edited_coloring_does_not_take_the_orders(self, checked, searched):
        """Rows edited after the orders were kept are noticed: each color is
        searched, and undoing the edit restores the orders."""
        col, peos = self.col, self.peos
        own = col._peos()
        pairs = list(itertools.combinations(range(col.n), 2))
        u, v = next(
            (u, v)
            for u, v in pairs
            if not col.rows[0][u] >> v & 1
            and not oracles.is_peo(_toggled(col.rows[0], u, v), peos[0])
        )
        col.add_colors(u, v, [1])
        assert col._peos() is None
        list(covers.color_certificates(col))
        assert searched == [col.n] * 3 and checked == []
        # undone through the live view, the rows are those kept again
        col.edge_colors[(u, v)] = col.colors_of(u, v) - {1}
        assert col._peos() == own
        checked.clear()
        searched.clear()
        assert greedy_strong_cover(col)[0] == greedy_strong_cover(self.plain)[0]
        assert checked == [] and searched == [col.n] * 3  # the plain copy's
        # a hand edit of the rows that keeps every order a PEO drops them too
        x, y = next(
            (x, y) for x, y in pairs if oracles.is_peo(_toggled(col.rows[2], x, y), peos[2])
        )
        col.rows[2][x] ^= 1 << y
        col.rows[2][y] ^= 1 << x
        assert col._peos() is None
        searched.clear()
        list(covers.color_certificates(col))
        assert searched == [col.n] * 3
        col.rows[2] = _toggled(col.rows[2], x, y)
        assert col._peos() == own

    def test_relabeled_coloring_does_not_take_the_orders(self):
        label = list(range(self.col.n))
        random.Random(5).shuffle(label)
        edges = [
            (label[u], label[v], cs) for (u, v), cs in self.col.edge_colors.items()
        ]
        relabeled = MultiColoring.from_edges(self.col.n, self.col.t, edges)
        assert relabeled._peos() is None
        assert not all(
            oracles.is_peo(row, peo) for row, peo in zip(relabeled.rows, self.peos)
        )


def test_quick_start_runs_no_search_and_no_check(monkeypatch):
    """The README's ``greedy_strong_cover(coloring_from_intervals(fam))``,
    and the same on a subtree family, take the coloring's own orders."""

    def refuse(*args):
        raise AssertionError("searched or checked a family coloring")

    monkeypatch.setattr(chordal, "mcs_order", refuse)
    monkeypatch.setattr(chordal, "_check_peo", refuse)
    fam = constructions.construct_onefourth(3)
    cover, _ = greedy_strong_cover(coloring_from_intervals(fam))
    assert cover.covered() == 6
    sfam, ok = random_subtree_family(12, 3, 4, host_size=6, anchor=0.95, k=3)
    assert ok
    col = coloring_from_subtrees(sfam)
    for run_cover in (strong_cover_33, strong_cover_tt):
        assert run_cover(col).covered() == 12
    greedy_strong_cover(col)


def test_derived_colorings_carry_no_orders():
    fam = constructions.construct_onefourth(3)
    col = coloring_from_intervals(fam)
    assert [list(order) for order in col._peos()] == family_peos(fam)
    spec = constructions.BlowupSpec([2] * col.n)
    for derived in (
        MultiColoring.from_dict(col.to_dict()),
        col.select_colors([1, 2, 3]),
        col.select_colors([2]),
        constructions.blow_up(col, spec),
    ):
        assert derived._orders is None and derived._peos() is None


class TestOneBuildPerDraw:
    def count(self, monkeypatch, name):
        calls = []
        real = getattr(constructions, name)

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(constructions, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["interval", "subtree"])
    def test_accepted_draw_is_not_rebuilt(self, kind, monkeypatch):
        build = "_interval_coloring" if kind == "interval" else "_subtree_coloring"
        builds = self.count(monkeypatch, build)
        draws = self.count(monkeypatch, "is_tk_coloring")
        kept = []
        keep = MultiColoring._keep_peos

        def counted_keep(col, orders):
            kept.append(col)
            return keep(col, orders)

        monkeypatch.setattr(MultiColoring, "_keep_peos", counted_keep)
        inst = corpus.seeded_tk_instance(kind, 12, 3, 3, 11)
        assert len(builds) == len(draws) >= 1
        # only the returned draw's coloring keeps orders and a copy of its rows
        assert kept == [inst.coloring]
        fam = inst.family
        derive = coloring_from_intervals if kind == "interval" else coloring_from_subtrees
        assert inst.coloring == derive(fam)
        assert_peos(fam, inst.coloring)
        assert [list(order) for order in inst.coloring._peos()] == family_peos(fam)

    def test_draws_equal_the_checked_families_of_their_fields(self):
        """A draw builds its family with no check; the public constructor,
        which checks, gives the same fields and the same private arrays
        (right-end orders, host depths and subtree tops)."""
        rng = random.Random(23)
        for n, t, k in itertools.product((1, 2, 7, 16), (1, 2, 3), (None, 2, 3)):
            if k is not None and k > n:
                continue
            seed, anchor = rng.randrange(10**6), rng.choice((0.0, 0.5, 1.0))
            fam, _ = random_interval_family(n, t, seed, anchor=anchor, k=k)
            assert vars(fam) == vars(TIntervalFamily(fam.t, fam.members))
            h = rng.randint(1, 9)
            sfam, _ = random_subtree_family(
                n, t, seed, host_size=h, max_size=rng.randint(1, h), anchor=anchor, k=k
            )
            rebuilt = TSubtreeFamily(sfam.host_edges, sfam.t, sfam.members)
            assert vars(sfam) == vars(rebuilt) and sfam.host_size == h


class TestSizeLimits:
    def test_limits_are_checked_before_allocating(self):
        for n, t in (
            (MAX_VERTICES + 1, 1),
            (1, MAX_COLORS + 1),
            (MAX_SLOTS // 2 + 1, 2),
            (10**8, 100),
        ):
            with pytest.raises(InputError, match="exceeds the limit"):
                MultiColoring(n, t)

    def test_limits_themselves_are_accepted(self):
        assert MultiColoring(MAX_VERTICES, 1).n == MAX_VERTICES
        assert MultiColoring(MAX_SLOTS // MAX_COLORS, MAX_COLORS).t == MAX_COLORS

    def test_subtree_families_check_their_size_when_built(self):
        point = frozenset({0})
        assert 1417 * 185 == MAX_SLOTS + 1  # n and t each within their limit
        for n, t in ((0, MAX_COLORS + 1), (1417, 185)):
            with pytest.raises(InputError, match="exceeds the limit"):
                TSubtreeFamily([], t, [(point,) * t] * n)
        assert TSubtreeFamily([], 185, [(point,) * 185] * 1416).n == 1416
        # a family that fails another check keeps that message
        with pytest.raises(InputError, match="member 0 has 1 subtree"):
            TSubtreeFamily([], MAX_COLORS + 1, [(point,)])

    def test_oversized_subtree_document_message(self, monkeypatch, capsys):
        doc = {"host_edges": [], "t": 10**9, "members": []}
        code, out, err = run(["check", "-", "--tk", "2"], doc, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: t=1000000000 exceeds the limit of 1024 colors\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 100000000, "t": 100, "edges": []},
            {"n": 2, "t": 10**9, "edges": []},
            {"t": 10**9, "members": []},
            {"host_edges": [], "t": 10**9, "members": []},
        ],
    )
    def test_oversized_documents_are_usage_errors(self, doc, monkeypatch, capsys):
        code, out, err = run(["check", "-", "--tk", "2"], doc, monkeypatch, capsys)
        assert code == 2 and out == "" and "exceeds the limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "intervals", "--n", "100000000", "--t", "100"],
            ["gen", "subtrees", "--n", "100000", "--t", "3"],
            ["gen", "subtrees", "--n", "4", "--host-size", "1000000000"],
            ["gen", "partition", "--n", "100000000", "--t", "2"],
            ["gen", "onefourth", "--t", "100000"],
            ["verify", "lower", "--n", "100000000", "--samples", "1"],
        ],
    )
    def test_oversized_generation_is_a_usage_error(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "exceeds the limit" in captured.err


class TestCertifyOnce:
    """One chordality certificate per color feeds both ``--chordal`` and
    ``--c4free``; only a color whose certificate is a hole is scanned."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"mcs": [], "peo": [], "c4": []}
        for module, name, key in (
            (chordal, "mcs_order", "mcs"),
            (chordal, "_check_peo", "peo"),
            (kernels, "find_induced_c4", "c4"),
        ):
            real = getattr(module, name)

            def counted(*args, real=real, key=key):
                seen[key].append(args[0] if key == "c4" else args[0].n)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        return seen

    def test_chordal_edges_document_runs_one_search_per_color(
        self, calls, monkeypatch, capsys
    ):
        fam = TIntervalFamily.from_dict(_docs()["intervals"])
        edges = coloring_from_intervals(fam).to_dict()
        argv = ["check", "-", "--chordal", "--c4free"]
        code, out, _ = run(argv, edges, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls["mcs"] == [40, 40, 40] and calls["c4"] == []

    def test_c4free22_edges_document_runs_no_scan(self, calls, monkeypatch, capsys):
        fam, ok = random_interval_family(30, 2, 3, anchor=0.9, k=2)
        assert ok
        edges = coloring_from_intervals(fam).to_dict()
        code, out, _ = run(["cover", "c4free22", "-"], edges, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls["mcs"] == [30, 30] and calls["c4"] == []

    @pytest.mark.parametrize("kind", ["intervals", "subtrees"])
    def test_family_document_checks_each_order_once(
        self, kind, calls, monkeypatch, capsys
    ):
        code, out, _ = run(
            ["check", "-", "--chordal", "--c4free"], _docs()[kind], monkeypatch, capsys
        )
        assert code == 0 and json.loads(out)["pass"] is True
        # the sweep orders are minted with the coloring: none is checked
        assert calls == {"mcs": [], "peo": [], "c4": []}

    @pytest.mark.parametrize("name", ["square", "k5star-blowup"])
    def test_non_chordal_colors_keep_their_witness(self, name, calls, monkeypatch, capsys):
        if name == "square":
            cycle = [(0, 1, [1]), (1, 2, [1]), (2, 3, [1]), (0, 3, [1])]
            col = MultiColoring.from_edges(4, 1, cycle)
        else:
            spec = constructions.BlowupSpec([2, 1, 3, 1, 2])
            col = constructions.blow_up(constructions.construct_k5star(), spec)
        code, out, _ = run(
            ["check", "-", "--chordal", "--c4free"], col.to_dict(), monkeypatch, capsys
        )
        chordal_check, c4_check = json.loads(out)["checks"]
        assert code == 1 and chordal_check["pass"] is False
        assert sorted(chordal_check["witness"]) == [str(c) for c in range(1, col.t + 1)]
        squares = {
            str(c): list(quad)
            for c, row in enumerate(col.rows, start=1)
            if (quad := oracles.first_induced_c4(col.n, row)) is not None
        }
        assert c4_check["witness"] == (squares or None)
        assert c4_check["pass"] is (not squares)
        assert calls["mcs"] == calls["c4"] == [col.n] * col.t


class TestHolesOnlyWhereReported:
    """A non-chordal color gets a hole only where a report or a
    ``PreconditionError`` shows it; the C4 paths decide chordality alone."""

    @pytest.fixture
    def holes(self, monkeypatch):
        built = []
        real = chordal._hole_from_triple

        def counted(g, v, a, b):
            built.append(g.n)
            return real(g, v, a, b)

        monkeypatch.setattr(chordal, "_hole_from_triple", counted)
        return built

    @staticmethod
    def blowup():
        """K5* with classes of 3, 2, 4, 2, 3 under a seeded relabeling."""
        col = constructions.blow_up(
            constructions.construct_k5star(), constructions.BlowupSpec([3, 2, 4, 2, 3])
        )
        label = list(range(col.n))
        random.Random(12).shuffle(label)
        edges = [
            [*sorted((label[u], label[v])), cs] for u, v, cs in col.to_dict()["edges"]
        ]
        return {"n": col.n, "t": col.t, "edges": sorted(edges)}

    def test_c4free22_on_a_blowup_builds_no_hole(self, holes, monkeypatch, capsys):
        doc = self.blowup()
        code, out, _ = run(["cover", "c4free22", "-"], doc, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["pass"] is True
        assert holes == []

    def test_check_builds_holes_only_for_chordal(self, holes, monkeypatch, capsys):
        doc = self.blowup()
        code, out, _ = run(["check", "-", "--c4free"], doc, monkeypatch, capsys)
        (c4_only,) = json.loads(out)["checks"]
        assert code == 0 and c4_only["pass"] is True and holes == []
        code, out, _ = run(["check", "-", "--chordal", "--c4free"], doc, monkeypatch, capsys)
        chordal_check, c4_check = json.loads(out)["checks"]
        assert code == 1 and sorted(chordal_check["witness"]) == ["1", "2"]
        assert c4_check == c4_only
        assert holes == [doc["n"], doc["n"]]


class TestFamiliesCheckThemselves:
    INTERVALS = {"t": 3, "members": [
        [[0, 4], [1, 2], [5, 5]], [[2, 6], [0, 2], [3, 6]], [[3, 3], [2, 2], [4, 8]],
        [[1, 3], [2, 7], [5, 9]],
    ]}
    SUBTREES = {"host_edges": [[0, 1], [1, 2], [1, 3]], "t": 3, "members": [
        [[1, 2], [0], [3]], [[1], [0, 1], [1, 3]], [[1, 3, 0], [1], [3]],
        [[2, 1], [1, 2], [1, 3]],
    ]}
    COMMANDS = [
        ["cover", "greedy", "-", "--k", "2"],
        ["cover", "exact", "-"],
        ["cover", "t33", "-"],
        ["cover", "tt", "-"],
        ["cover", "c4free22", "-"],
        ["check", "-", "--tk", "2", "--chordal", "--c4free", "--kfold", "1"],
    ]

    @pytest.mark.parametrize("kind", ["intervals", "subtrees"])
    def test_one_check_per_document_per_operation(self, kind, monkeypatch, capsys):
        calls = []

        def count(cls, name):
            real = getattr(cls, name)

            def counted(self):
                calls.append(name)
                return real(self)

            monkeypatch.setattr(cls, name, counted)

        count(TIntervalFamily, "validate")
        count(TSubtreeFamily, "validate")
        count(TSubtreeFamily, "_rooted")
        doc = getattr(self, kind.upper())
        for argv in self.COMMANDS:
            calls.clear()
            code, _out, err = run(argv, doc, monkeypatch, capsys)
            assert code in (0, 1) and err == "", argv
            assert calls == ["validate" if kind == "intervals" else "_rooted"], argv

    @pytest.mark.parametrize("kind", ["intervals", "subtrees"])
    def test_every_received_order_is_checked(self, kind, monkeypatch, capsys):
        checked = []
        require = chordal._require_peo

        def counted(g, peo):
            checked.append(peo)
            return require(g, peo)

        monkeypatch.setattr(chordal, "_require_peo", counted)
        doc = getattr(self, kind.upper())
        # a family document's orders are kept by its coloring, not
        # received from a caller, so no command line checks one
        for argv in self.COMMANDS:
            checked.clear()
            code, _out, _err = run(argv, doc, monkeypatch, capsys)
            # c4free22 refuses t = 3 before any certificate
            assert code == (1 if "c4free22" in argv else 0), argv
            assert checked == [], argv

    def test_invalid_families_raise_when_built(self):
        with pytest.raises(InputError, match="member 1: empty interval"):
            TIntervalFamily(1, [[(0, 1)], [(3, 1)]])
        with pytest.raises(InputError, match="has 1 interval"):
            TIntervalFamily(2, [[(0, 1), (0, 0)], [(0, 1)]])
        with pytest.raises(InputError, match="exceeds the limit"):
            TIntervalFamily(MAX_COLORS + 1, [])
        with pytest.raises(InputError, match="host is not a tree"):
            TSubtreeFamily([(0, 1), (2, 3), (1, 2), (0, 3)], 1, [])
        with pytest.raises(InputError, match="member 0: empty subtree"):
            TSubtreeFamily([], 1, [[frozenset()]])

    @pytest.mark.parametrize(
        "cls, args",
        [
            (TIntervalFamily, (1, [5])),
            (TIntervalFamily, (1, [[5]])),
            (TIntervalFamily, (1, [[(1, 2, 3)]])),
            (TIntervalFamily, (1, [[(0, "1")]])),
            # a shape fault is reported before a count fault of an earlier
            # member, and before t itself
            (TIntervalFamily, (2, [[(0, 1), (0, 1)], [(0, 1)], [(0, 1), 7]])),
            (TIntervalFamily, (0, [[(0, 1)], [[0]]])),
            (TSubtreeFamily, ([], 1, [5])),
            (TSubtreeFamily, ([], 1, [[5]])),
            (TSubtreeFamily, ([], 1, [[{"x"}]])),
            (TSubtreeFamily, ([(0, 1, 2)], 1, [])),
            (TSubtreeFamily, ([(0, 1.0)], 1, [])),
            (TSubtreeFamily, ([(1, 1)], 1, [[{1}]])),
        ],
    )
    def test_constructor_refuses_malformed_members_as_from_dict(self, cls, args):
        with pytest.raises(InputError) as built:
            cls(*args)
        fields = ("t", "members") if cls is TIntervalFamily else (
            "host_edges", "t", "members"
        )
        doc = json.loads(json.dumps(dict(zip(fields, args)), default=sorted))
        with pytest.raises(InputError) as parsed:
            cls.from_dict(doc)
        assert str(built.value) == str(parsed.value)

    def test_constructor_takes_what_from_dict_takes(self):
        sfam = TSubtreeFamily([[1, 0]], 1, [[[0, 1]], ({1},)])
        assert sfam.host_edges == ((0, 1),)
        assert sfam.members == ((frozenset({0, 1}),), (frozenset({1}),))
        assert sfam == TSubtreeFamily.from_dict(sfam.to_dict())
        fam = TIntervalFamily(1, [[[0, 1]]])
        assert fam.members == (((0, 1),),) and hash(fam) == hash(
            TIntervalFamily.from_dict(fam.to_dict())
        )

    def test_fields_cannot_be_assigned(self):
        fam = TIntervalFamily.from_dict(self.INTERVALS)
        sfam = TSubtreeFamily.from_dict(self.SUBTREES)
        for obj, name in ((fam, "t"), (fam, "members"), (sfam, "t"),
                          (sfam, "members"), (sfam, "host_edges")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        assert {type(fam.members), type(fam.members[0]), type(fam.members[0][0]),
                type(sfam.host_edges), type(sfam.members[0])} == {tuple}

    def test_families_equal_by_their_fields(self):
        fam = TIntervalFamily(1, [[(0, 1)], [(1, 2)]])
        assert fam == TIntervalFamily(1, [((0, 1),), ((1, 2),)])
        assert hash(fam) == hash(TIntervalFamily.from_dict(fam.to_dict()))
        assert fam != TIntervalFamily(1, [[(0, 1)], [(1, 3)]])


@st.composite
def interval_families(draw):
    """Intervals on a short range: ties in right ends, point intervals and
    nesting are common."""
    t = draw(st.integers(1, 3))
    interval = st.tuples(st.integers(-4, 4), st.sampled_from((0, 0, 1, 2, 3, 8))).map(
        lambda p: (p[0], p[0] + p[1])
    )
    members = draw(st.lists(st.lists(interval, min_size=t, max_size=t), max_size=9))
    return TIntervalFamily(t, members)


@st.composite
def subtree_families(draw):
    """A random host tree relabeled at random, so that the root 0 may be
    any of its vertices, with subtrees grown down from a top vertex of the
    unlabeled tree."""
    h = draw(st.integers(1, 8))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, h)]
    label = draw(st.permutations(range(h)))
    t = draw(st.integers(1, 3))

    def subtree():
        top = draw(st.integers(0, h - 1))
        inside = {top}
        for v in range(top + 1, h):
            if parent[v] in inside and draw(st.booleans()):
                inside.add(v)
        return frozenset(label[v] for v in inside)

    members = [[subtree() for _ in range(t)] for _ in range(draw(st.integers(0, 9)))]
    host = [(label[parent[v]], label[v]) for v in range(1, h)]
    return TSubtreeFamily(host, t, members)


def _reference_orders(fam):
    if isinstance(fam, TSubtreeFamily):
        return [oracles.deepest_top_order(fam.host_edges, fam.members, i)
                for i in range(fam.t)]
    return [oracles.right_end_order(fam.members, i) for i in range(fam.t)]


def assert_sweep_certificates(fam):
    """The sweep's rows are the pairwise intersections, and each of the
    orders its coloring keeps is a PEO by definition and the reference
    order.  The covers take these orders unchecked, so this is their only
    check."""
    if isinstance(fam, TSubtreeFamily):
        col = coloring_from_subtrees(fam)
        expected = oracles.family_color_adjacency(
            fam.members, fam.t, lambda a, b: not a.isdisjoint(b)
        )
    else:
        col = coloring_from_intervals(fam)
        expected = oracles.family_color_adjacency(
            fam.members, fam.t, lambda a, b: max(a[0], b[0]) <= min(a[1], b[1])
        )
    assert col.rows == expected
    own = col._peos()
    assert len(own) == fam.t
    peos = family_peos(fam)
    assert peos == [list(order) for order in own] == _reference_orders(fam)
    for row, peo in zip(col.rows, own):
        assert oracles.is_peo(row, peo)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(fam=st.one_of(interval_families(), subtree_families()))
def test_sweep_certificates(fam):
    assert_sweep_certificates(fam)


def test_sweep_certificates_of_the_golden_documents():
    checked = 0
    for name, doc in golden.family_documents().items():
        if name.startswith("malformed"):
            continue
        parse = TSubtreeFamily if "host_edges" in doc else TIntervalFamily
        assert_sweep_certificates(parse.from_dict(doc))
        checked += 1
    assert checked == 6 + 5 * 8 + 3 * 12
