"""Families certify their own colorings: the sweep orders are perfect
elimination orderings, the covers check a given ordering instead of
searching for one, and a family document never runs maximum cardinality
search or the induced-C4 scan."""

import io
import json
import sys

import pytest

import corpora
import oracles
from strongcover import _kernels as kernels
from strongcover import chordal, constructions, corpus
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
    strong_cover_c4free_22,
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
        fam = TSubtreeFamily([(0, 1), (0, 2)], 1, [[frozenset({1, 2})]])
        with pytest.raises(InputError, match="subtree vertices not connected"):
            fam.validate()
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


class TestGivenOrders:
    def setup_method(self):
        inst = corpus.seeded_tk_instance("interval", 12, 3, 3, 0)  # a (3,3)-coloring
        self.col, self.peos = inst.coloring, inst.peos
        assert not oracles.is_peo(self.col.rows[0], self.peos[0][::-1])

    def test_right_orders_give_the_searched_cover(self):
        given, _ = greedy_strong_cover(self.col, peos=self.peos)
        searched, _ = greedy_strong_cover(self.col)
        assert given == searched

    @pytest.mark.parametrize(
        "bad",
        [
            lambda peos: [peos[0][::-1]] + peos[1:],  # not perfect
            lambda peos: [peos[0][:-1]] + peos[1:],  # not a permutation
            lambda peos: peos[:-1],  # one ordering short
        ],
    )
    def test_wrong_orders_are_input_errors(self, bad):
        peos = bad(self.peos)
        with pytest.raises(InputError):
            greedy_strong_cover(self.col, peos=peos)
        with pytest.raises(InputError):
            strong_cover_33(self.col, peos=peos)
        with pytest.raises(InputError):
            strong_cover_tt(self.col, peos=peos)

    def test_wrong_order_in_c4free22_is_an_input_error(self):
        fam = TIntervalFamily(2, [[(0, 1), (0, 0)], [(1, 2), (0, 0)], [(2, 3), (0, 0)]])
        col = coloring_from_intervals(fam)
        assert strong_cover_c4free_22(col, peos=family_peos(fam)).covered() == 3
        with pytest.raises(InputError):
            strong_cover_c4free_22(col, peos=[[1, 0, 2], [0, 1, 2]])


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
        inst = corpus.seeded_tk_instance(kind, 12, 3, 3, 11)
        assert len(builds) == len(draws) >= 1
        fam = inst.family
        derive = coloring_from_intervals if kind == "interval" else coloring_from_subtrees
        assert inst.coloring == derive(fam)
        assert_peos(fam, inst.coloring)
        assert inst.peos == family_peos(fam)


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
        assert calls == {"mcs": [], "peo": [40, 40, 40], "c4": []}

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
