"""End-to-end tests of the command line front end via main(argv)."""

import contextlib
import io
import json
import marshal
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strongcover import _kernels as kernels
from strongcover import cli, constructions
from strongcover._kernels import first_tk_violation
from strongcover.cli import main
from strongcover.constructions import construct_k5star
from strongcover.core import (
    MAX_COLORS,
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
)
from strongcover.covers import GreedyTrace, exact_max_strong_cover, theta


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    """Invoke main and return (exit_code, stdout, stderr); stdin is UTF-8."""
    if stdin_text is not None:
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, stdin_text=None, monkeypatch=None):
    code, out, _err = run(capsys, argv, stdin_text, monkeypatch)
    return code, json.loads(out)


class TestGen:
    def test_k5star_document(self, capsys):
        code, doc = run_json(capsys, ["gen", "k5star"])
        assert code == 0
        assert doc["n"] == 5 and doc["t"] == 2
        assert doc["meta"] == {"generator": "k5star"}
        col = MultiColoring.from_dict(doc)
        assert col.edge_colors == construct_k5star().edge_colors

    def test_onefourth_member_count(self, capsys):
        code, doc = run_json(capsys, ["gen", "onefourth", "--t", "4"])
        assert code == 0
        assert doc["t"] == 4 and len(doc["members"]) == 11

    def test_seeded_output_is_reproducible(self, capsys):
        argv = [
            "gen", "intervals", "--n", "6", "--t", "2",
            "--seed", "5", "--anchor", "0.9", "--k", "2",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["meta"]["k_ok"] is True

    def test_subtrees_document_loads_back(self, capsys):
        code, doc = run_json(
            capsys, ["gen", "subtrees", "--n", "4", "--t", "2",
                     "--seed", "3", "--host-size", "5"]
        )
        assert code == 0
        assert len(doc["host_edges"]) == 4
        assert len(doc["members"]) == 4

    def test_bad_construction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "nonsense"])
        assert info.value.code == 2

    @pytest.mark.parametrize("construction", ["intervals", "subtrees"])
    @pytest.mark.parametrize("anchor", ["2", "-1", "nan"])
    def test_anchor_outside_the_unit_interval_is_usage_error(
        self, capsys, construction, anchor
    ):
        code, out, err = run(capsys, ["gen", construction, "--anchor", anchor])
        assert code == 2 and out == "" and "anchor fraction must be in [0,1]" in err

    @pytest.mark.parametrize("construction", ["intervals", "subtrees"])
    def test_k_below_two_is_usage_error(self, capsys, construction):
        code, out, err = run(capsys, ["gen", construction, "--n", "5", "--k", "1"])
        assert code == 2 and out == "" and "need 2 <= k <= n, got k=1, n=5" in err

    DRAW = ["--n", "9", "--t", "2", "--seed", "4", "--anchor", "0.5", "--k", "2",
            "--host-size", "9"]

    # argv past "gen", the constructor call it makes, and the arguments it
    # passes; a seeded draw returns (family, k_ok)
    CASES = {
        "onefourth": (
            ["--t", "5"], lambda: constructions.construct_onefourth(5), {"t": 5}
        ),
        "partition": (
            ["--n", "9", "--t", "4"],
            lambda: constructions.construct_partition_coloring(9, 4),
            {"n": 9, "t": 4},
        ),
        "intervals": (
            DRAW,
            lambda: constructions.random_interval_family(9, 2, 4, anchor=0.5, k=2),
            {"n": 9, "t": 2, "seed": 4, "anchor": 0.5, "k": 2},
        ),
        "subtrees": (
            DRAW,
            lambda: constructions.random_subtree_family(
                9, 2, 4, host_size=9, anchor=0.5, k=2
            ),
            {"n": 9, "t": 2, "seed": 4, "anchor": 0.5, "k": 2, "host_size": 9},
        ),
        "k5star": (DRAW, constructions.construct_k5star, {}),
        "k4paths": ([], constructions.construct_k4_two_paths, {}),
        "k8c4free": (["--t", "5"], constructions.construct_k8_c4free_3col, {}),
    }

    @pytest.mark.parametrize("generator", CASES)
    def test_document_and_meta_hold_the_arguments_passed(self, capsys, generator):
        """Off their defaults: the document is the constructor's, and meta
        holds the generator, the arguments passed to it and nothing else,
        plus whether a seeded draw met its k."""
        argv, construct, passed = self.CASES[generator]
        code, doc = run_json(capsys, ["gen", generator, *argv])
        made = construct()
        meta = {"generator": generator, **passed}
        if isinstance(made, tuple):
            made, meta["k_ok"] = made
        assert code == 0 and doc.pop("meta") == meta
        assert doc == json.loads(json.dumps(made.to_dict()))

    def test_generators_are_listed_in_their_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--help"])
        out = capsys.readouterr().out
        assert "{onefourth,k5star,k4paths,k8c4free,partition,intervals,subtrees}" in out


class TestCheck:
    def write(self, tmp_path, doc):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def k5star_path(self, tmp_path):
        return self.write(tmp_path, construct_k5star().to_dict())

    def test_tk_pass_and_fail(self, capsys, tmp_path):
        path = self.k5star_path(tmp_path)
        code, doc = run_json(capsys, ["check", path, "--tk", "2"])
        assert code == 0 and doc["pass"] is True
        code, doc = run_json(capsys, ["check", path, "--tk", "3"])
        assert code == 1 and doc["pass"] is False
        (chk,) = doc["checks"]
        assert chk["name"] == "tk" and chk["witness"] == [0, 1, 2]

    def test_chordal_flag_reports_holes(self, capsys, tmp_path):
        path = self.k5star_path(tmp_path)
        code, doc = run_json(capsys, ["check", path, "--chordal"])
        assert code == 1
        (chk,) = doc["checks"]
        assert set(chk["witness"]) == {"1", "2"}
        assert all(len(h) == 5 for h in chk["witness"].values())

    def test_c4free_and_kfold_flags(self, capsys, tmp_path):
        path = self.k5star_path(tmp_path)
        code, doc = run_json(capsys, ["check", path, "--c4free", "--kfold", "1"])
        assert code == 0 and doc["pass"] is True
        assert [c["name"] for c in doc["checks"]] == ["c4free", "kfold"]
        code, doc = run_json(capsys, ["check", path, "--kfold", "2"])
        assert code == 1
        assert doc["checks"][0]["observed"] == 1

    def test_stdin_route(self, capsys, monkeypatch):
        text = json.dumps(construct_k5star().to_dict())
        code, doc = run_json(
            capsys, ["check", "-", "--tk", "2"], stdin_text=text,
            monkeypatch=monkeypatch,
        )
        assert code == 0 and doc["meta"]["source"] == "-"

    def test_parse_error_is_exit_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _out, err = run(capsys, ["check", str(p), "--tk", "2"])
        assert code == 2 and err.startswith("error:")

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, ["check", str(tmp_path / "absent.json"), "--tk", "2"]
        )
        assert code == 2 and "error:" in err

    def test_unknown_document_is_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {"foo": 1})
        code, _out, err = run(capsys, ["check", path, "--tk", "2"])
        assert code == 2 and "unrecognized" in err

    def test_negative_subtree_vertex_is_exit_2(self, capsys, tmp_path):
        doc = {"host_edges": [[0, 1]], "t": 1, "members": [[[0, -1]]]}
        path = self.write(tmp_path, doc)
        code, _out, err = run(capsys, ["check", path, "--tk", "2"])
        assert code == 2 and "negative subtree vertex -1" in err
        assert "Traceback" not in err

    def test_subtree_host_is_checked_before_it_is_built(self, capsys, tmp_path):
        # a host of 2**61 vertices cannot be allocated: the edge count
        # has to refuse the document first
        doc = {"host_edges": [], "t": 1, "members": [[[2**61]]]}
        path = self.write(tmp_path, doc)
        code, out, err = run(capsys, ["check", path, "--tk", "2"])
        assert code == 2 and out == "" and "host is not a tree" in err

    @pytest.mark.parametrize(
        "argv", [["check", "-", "--kfold", "1"], ["cover", "greedy", "-"]]
    )
    @pytest.mark.parametrize(
        "text",
        [
            '{"n": ' + "1" * 5000 + ', "t": 1, "edges": []}',
            '{"t": 1, "members": [[[0, ' + "9" * 4301 + "]]]}",
        ],
        ids=["edges", "intervals"],
    )
    def test_integer_past_the_digit_limit_is_exit_2(
        self, capsys, monkeypatch, argv, text
    ):
        # Python converts no integer literal of more than 4,300 digits
        code, out, err = run(capsys, argv, stdin_text=text, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("error: unreadable instance document: Exceeds the limit")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tk5_on_anchored_family(self, capsys, monkeypatch):
        # every color is complete, so the (5,5) scan stops at its root
        # instead of walking C(100, 4) prefixes per color
        argv = ["gen", "intervals", "--n", "100", "--t", "5",
                "--anchor", "1.0", "--seed", "0"]
        code, out, _err = run(capsys, argv)
        assert code == 0
        code, doc = run_json(
            capsys, ["check", "-", "--tk", "5"], stdin_text=out,
            monkeypatch=monkeypatch,
        )
        assert code == 0 and doc["pass"] is True
        assert doc["checks"][0]["witness"] is None

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "t": 1, "edges": [[0]]}',
            '{"n": 2, "t": 1, "edges": [[0, 1, ["x"]]]}',
            '{"n": "abc", "t": 1, "edges": []}',
            '{"n": 2, "t": 1, "edges": [[0, 1, 5]]}',
            '{"n": 2, "t": 1, "edges": "ab"}',
            '{"t": 1, "members": [[["a", 1]]]}',
            '{"host_edges": [[0, 1]], "t": 1, "members": [[["x"]]]}',
            '{"t": 1, "members": [[[0.5, 1]], [[0, 2]]]}',
            '{"n": 2.7, "t": 1, "edges": [[0, 1, [1]]]}',
            '{"n": 2, "t": 1, "edges": [[0, 1, [true]]]}',
            '{"n": 2, "t": true, "edges": [[0, 1, [1]]]}',
            '{"n": 2, "t": 1, "edges": [[0, 1, [1], 2]]}',
            '{"n": 2, "t": 1, "edges": {"a": 1}}',
            '{"t": 1, "members": [[[0, 1, 2]], [[0, 2]]]}',
            '{"t": 1, "members": 5}',
            '{"host_edges": [[0, 1.0]], "t": 1, "members": [[[0]], [[1]]]}',
            '{"host_edges": "x", "t": 1, "members": []}',
            '{"host_edges": [[0, 1]], "t": 1, "members": [[5]]}',
            "[" * 100000 + "]" * 100000,
            b"\xff\xfe{}",
        ],
        ids=lambda text: None if len(text) < 100 else "deeply-nested",
    )
    def test_malformed_document_is_exit_2(self, capsys, monkeypatch, text):
        # a crash inside main() would raise here instead of returning
        code, out, err = run(
            capsys, ["check", "-", "--tk", "2"], stdin_text=text,
            monkeypatch=monkeypatch,
        )
        assert code == 2 and err.startswith("error:") and out == ""
        assert "Traceback" not in err


class TestCover:
    def onefourth_path(self, capsys, tmp_path):
        main(["gen", "onefourth", "--t", "3"])
        out = capsys.readouterr().out
        p = tmp_path / "onefourth.json"
        p.write_text(out)
        return str(p)

    def test_greedy_on_interval_instance(self, capsys, tmp_path):
        path = self.onefourth_path(capsys, tmp_path)
        code, doc = run_json(capsys, ["cover", "greedy", path, "--k", "2"])
        assert code == 0 and doc["pass"] is True
        assert doc["results"]["covered"] == 6
        assert doc["results"]["uncovered"] == [6]
        names = {c["name"]: c for c in doc["checks"]}
        assert names["greedy-lower-bound"]["expected"] == 3
        assert names["greedy-lower-bound"]["observed"] == 6
        assert names["tk-precondition"]["pass"] is True
        points = doc["results"]["piercing_points"]
        assert points and all(len(p) == 2 for p in points)

    def test_greedy_reports_tk_violation(self, capsys, tmp_path):
        main(["gen", "partition", "--n", "6", "--t", "2"])
        out = capsys.readouterr().out
        p = tmp_path / "partition.json"
        p.write_text(out)
        code, doc = run_json(capsys, ["cover", "greedy", str(p), "--k", "5"])
        assert code == 1
        names = {c["name"]: c for c in doc["checks"]}
        assert names["cover-valid"]["pass"] is True
        assert names["tk-precondition"]["pass"] is False
        assert names["tk-precondition"]["witness"] is not None

    @pytest.mark.parametrize("past", [False, True])
    @pytest.mark.parametrize("construction, n", [("k5star", 5), ("onefourth", 7)])
    def test_greedy_k_outside_two_to_n_is_usage_error(
        self, capsys, monkeypatch, construction, n, past
    ):
        """On an edges document (whose greedy precondition fails) as on a
        family document, before greedy runs."""
        main(["gen", construction])
        doc = capsys.readouterr().out
        monkeypatch.setattr(cli, "greedy_strong_cover", None)
        k = n + 1 if past else 0
        code, out, err = run(
            capsys, ["cover", "greedy", "-", "--k", str(k)], doc, monkeypatch
        )
        assert code == 2 and out == ""
        assert f"need 2 <= k <= n, got k={k}, n={n}" in err

    @pytest.mark.parametrize("algorithm", ["greedy", "exact", "t33", "tt", "c4free22"])
    def test_k_outside_two_to_n_is_usage_error_on_every_algorithm(
        self, capsys, monkeypatch, algorithm
    ):
        """--k is only reported by the other algorithms, but its range is
        checked for each one before it runs; a k inside it runs it."""
        if algorithm == "c4free22":
            n = 5
            main(["gen", "k5star"])
        else:
            n = 7
            main(["gen", "intervals", "--n", "7", "--t", "3", "--seed", "1",
                  "--anchor", "1.0", "--k", "3"])
        doc = capsys.readouterr().out
        for k in (0, n + 1):
            code, out, err = run(
                capsys, ["cover", algorithm, "-", "--k", str(k)], doc, monkeypatch
            )
            assert code == 2 and out == ""
            assert f"need 2 <= k <= n, got k={k}, n={n}" in err
        code, report = run_json(
            capsys, ["cover", algorithm, "-", "--k", "3"], doc, monkeypatch
        )
        assert code == 0 and report["meta"]["k"] == 3

    def test_exact_reports_theta_null(self, capsys, tmp_path):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, doc = run_json(capsys, ["cover", "exact", str(p)])
        assert code == 0
        assert doc["results"]["covered"] == 4
        assert doc["results"]["theta"] is None
        assert "piercing_points" not in doc["results"]

    def test_precondition_failure_is_structured(self, capsys, tmp_path):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, doc = run_json(capsys, ["cover", "t33", str(p)])
        assert code == 1 and doc["pass"] is False
        assert doc["results"]["error"].startswith("PreconditionError")
        (chk,) = doc["checks"]
        assert chk["name"] == "precondition" and chk["pass"] is False

    @pytest.mark.parametrize(
        "algorithm, doc, error",
        [
            ("t33", construct_k5star().to_dict(),
             "need exactly 3 colors, got t=2"),
            ("t33", {"n": 2, "t": 3, "edges": [[0, 1, [1]]]},
             "need n >= 3, got n=2"),
            ("tt", {"n": 2, "t": 3, "edges": [[0, 1, [1]]]},
             "need n >= t, got n=2, t=3"),
            ("c4free22", {"n": 3, "t": 2, "edges": [[0, 1, [1]], [1, 2, [2]]]},
             "not a (2,2)-coloring; witness (0, 2)"),
        ],
    )
    def test_precondition_errors_come_from_the_algorithm(
        self, capsys, tmp_path, algorithm, doc, error
    ):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["cover", algorithm, str(p)])
        assert code == 1 and report["pass"] is False
        assert report["results"]["error"] == "PreconditionError: " + error
        (chk,) = report["checks"]
        assert chk["name"] == "precondition" and chk["pass"] is False

    @pytest.mark.parametrize("algorithm", ["t33", "tt", "c4free22"])
    def test_one_tk_scan_per_cover(self, capsys, tmp_path, monkeypatch, algorithm):
        if algorithm == "c4free22":
            doc = construct_k5star().to_dict()
        else:
            main(["gen", "intervals", "--n", "7", "--t", "3", "--seed", "1",
                  "--anchor", "1.0", "--k", "3"])
            doc = json.loads(capsys.readouterr().out)
            assert doc["meta"]["k_ok"] is True
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        calls = []

        def counted(*args):
            calls.append(args[:2])
            return first_tk_violation(*args)

        monkeypatch.setattr(kernels, "first_tk_violation", counted)
        code, report = run_json(capsys, ["cover", algorithm, str(p)])
        assert code == 0 and report["pass"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("n, cover", [(0, []), (1, [[1, [0]]])])
    def test_c4free22_covers_tiny_instances(self, capsys, tmp_path, n, cover):
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps({"n": n, "t": 2, "edges": []}))
        code, report = run_json(capsys, ["cover", "c4free22", str(p)])
        assert code == 0 and report["pass"] is True
        assert report["results"]["cover"] == {"assignments": cover}

    def test_size_limit_is_structured(self, capsys, tmp_path):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, doc = run_json(
            capsys, ["cover", "exact", str(p), "--max-exact", "3"]
        )
        assert code == 1
        assert doc["results"]["error"].startswith("SizeLimitError")

    @pytest.fixture
    def enumerations(self, monkeypatch):
        """Vertex counts of the maximal-clique enumerations made."""
        calls = []
        real = kernels.maximal_cliques

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(kernels, "maximal_cliques", counted)
        return calls

    @pytest.mark.parametrize(
        "t, merged, calls",
        [(1, set(), [9]), (2, set(), [9]), (3, set(), [9] * 3), (3, {1, 2}, [9] * 2)],
        ids=["1", "2", "3", "3-merged"],
    )
    def test_exact_enumerates_each_color_once(
        self, capsys, tmp_path, enumerations, t, merged, calls
    ):
        """The cover and theta share one enumeration per distinct color
        graph and equal what the two library searches give on their own."""
        # K_{3,3,3} with cross edge (u, v) in colors 1 + (u + v + c) % t,
        # c = 0, 1 (for t = 2 both colors are the whole graph), and in the
        # colors of merged: with {1, 2}, colors 1 and 2 are the whole graph
        # and color 3 differs
        edges = [
            [u, v, sorted({1 + (u + v + c) % t for c in range(2)} | merged)]
            for u in range(9) for v in range(u + 1, 9) if u % 3 != v % 3
        ]
        col = MultiColoring.from_dict({"n": 9, "t": t, "edges": edges})
        p = tmp_path / "multipartite.json"
        p.write_text(json.dumps(col.to_dict()))
        code, report = run_json(capsys, ["cover", "exact", str(p)])
        assert code == 0 and enumerations == calls
        assert report["results"]["cover"] == exact_max_strong_cover(col).to_dict()
        assert report["results"]["theta"] == theta(col)

    @pytest.fixture
    def quotients(self, monkeypatch):
        """Vertex masks of the maximal-clique enumerations made."""
        calls = []
        real = kernels.maximal_cliques

        def counted(n, adj, within=-1):
            calls.append(within & (1 << n) - 1)
            return real(n, adj, within)

        monkeypatch.setattr(kernels, "maximal_cliques", counted)
        return calls

    @pytest.mark.parametrize("size", [2, 3])
    def test_exact_enumerates_multipartite_colors_on_seven_classes(
        self, capsys, tmp_path, quotients, size
    ):
        """K_{size x 7} with every cross edge in both colors: each color's
        parts are false twins, so each enumeration runs on 7 vertices."""
        n = 7 * size
        edges = [
            [u, v, [1, 2]] for u in range(n) for v in range(u + 1, n)
            if u % 7 != v % 7
        ]
        col = MultiColoring.from_dict({"n": n, "t": 2, "edges": edges})
        p = tmp_path / "multipartite.json"
        p.write_text(json.dumps(col.to_dict()))
        code, report = run_json(capsys, ["cover", "exact", str(p)])
        assert code == 0 and [m.bit_count() for m in quotients] == [7]
        if size == 2:
            want = oracles.max_strong_cover_size(col), oracles.theta(col)
        else:
            # the oracles walk all 2^21 vertex subsets, too slow here; a
            # clique holds at most one vertex per part, so two cover 14 of 21
            want = 14, None
        assert (report["results"]["covered"], report["results"]["theta"]) == want

    def test_exact_runs_a_moon_moser_coloring_at_the_cap(self, capsys, monkeypatch):
        """Both colors K_{3 x 13}: 3^13 maximal cliques each, of which the
        searches lift only the few they reach."""
        edges = [
            [u, v, [1, 2]] for u in range(39) for v in range(u + 1, 39)
            if u // 3 != v // 3
        ]
        doc = json.dumps({"n": 39, "t": 2, "edges": edges})
        code, report = run_json(
            capsys, ["cover", "exact", "-", "--max-exact", "39"], doc, monkeypatch
        )
        assert code == 0
        assert (report["results"]["covered"], report["results"]["theta"]) == (26, None)

    def test_exact_passes_a_twin_free_color_whole(self, capsys, tmp_path, quotients):
        """Each color of K5* is a 5-cycle, which has no twin pair."""
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, _report = run_json(capsys, ["cover", "exact", str(p)])
        assert code == 0 and quotients == [0b11111] * 2

    @pytest.mark.parametrize("limit", ["0", "4"])
    def test_exact_over_its_limit_enumerates_nothing(
        self, capsys, tmp_path, enumerations, limit
    ):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, report = run_json(capsys, ["cover", "exact", str(p), "--max-exact", limit])
        assert code == 1 and enumerations == []
        report.pop("times")
        assert report == {
            "meta": {"source": str(p), "algorithm": "exact", "n": 5, "t": 2, "k": None},
            "results": {
                "error": f"SizeLimitError: n=5 exceeds the exhaustive search bound {limit}"
            },
            "checks": [{
                "name": "precondition",
                "inequality": "algorithm precondition holds",
                "expected": True,
                "observed": False,
                "pass": False,
            }],
            "pass": False,
        }

    @pytest.mark.parametrize("family", [
        # members 0 and 1 do not meet on track 1
        TIntervalFamily(2, [[(0, 1), (0, 5)], [(3, 4), (0, 5)], [(0, 4), (0, 5)]]),
        TSubtreeFamily([(0, 1), (1, 2)], 2, [[[0], [0, 1, 2]], [[2], [0, 1]], [[0, 1, 2], [1]]]),
    ], ids=["intervals", "subtrees"])
    def test_invalid_cover_of_a_family_fails_without_points(
        self, capsys, monkeypatch, family
    ):
        """A family's cover is checked by piercing it on the tracks: a cover
        that is not valid reports cover-valid false, its coverage, and no
        points, and exits 1."""
        cover = StrongCover({1: frozenset({0, 1}), 2: frozenset({2})})
        monkeypatch.setattr(
            cli, "greedy_strong_cover", lambda col: (cover, GreedyTrace([], frozenset()))
        )
        code, doc = run_json(
            capsys, ["cover", "greedy", "-"], json.dumps(family.to_dict()), monkeypatch
        )
        assert code == 1 and doc["pass"] is False
        assert doc["checks"] == [{**_VALID, "observed": False, "pass": False}]
        assert doc["results"]["covered"] == 3
        assert "piercing_points" not in doc["results"]

    def test_subtree_instance_has_no_piercing_points(self, capsys, tmp_path):
        main(["gen", "subtrees", "--n", "5", "--t", "2", "--seed", "1",
              "--host-size", "5", "--anchor", "1.0", "--k", "2"])
        out = capsys.readouterr().out
        p = tmp_path / "subtrees.json"
        p.write_text(out)
        code, doc = run_json(capsys, ["cover", "greedy", str(p), "--k", "2"])
        assert code == 0
        assert "piercing_points" not in doc["results"]


def _complete_coloring(n: int, t: int) -> MultiColoring:
    """Every edge in every color, so each vertex set is a clique of each."""
    col = MultiColoring(n, t)
    for u in range(n):
        for v in range(u + 1, n):
            col.add_colors(u, v, range(1, t + 1))
    return col


def _cliques(*sets):
    """A cover giving color i + 1 the i-th of ``sets``."""
    return StrongCover({i: frozenset(s) for i, s in enumerate(sets, start=1)})


def _record(name, inequality, expected, observed, ok):
    return {"name": name, "inequality": inequality, "expected": expected,
            "observed": observed, "pass": ok}


_VALID = _record("cover-valid", "each assigned set is a clique in its color",
                 True, True, True)
_TK2 = {**_record("tk-precondition", "instance is a (t,2)-coloring",
                  True, True, True), "witness": None}


class TestBoundChecksBothSides:
    """Each algorithm's bound check of ``cover``, on crafted covers of a
    complete coloring: the full check records and the exit code on the
    passing side and on the failing side."""

    @pytest.mark.parametrize(
        "algorithm, n, t, argv, cover, checks",
        [
            ("greedy", 7, 2, ["--k", "2"], _cliques({0, 1, 2}), [
                _TK2,
                _record("greedy-lower-bound", "covered*(k+1) >= (k-1)*n with k=2",
                        3, 3, True),
            ]),
            ("greedy", 7, 2, ["--k", "2"], _cliques({0, 1}), [
                _TK2,
                _record("greedy-lower-bound", "covered*(k+1) >= (k-1)*n with k=2",
                        3, 2, False),
            ]),
            ("greedy", 7, 2, [], _cliques({0}), []),
            ("c4free22", 5, 2, [], _cliques({0, 1}, {2, 3}), [
                _record("four-fifths", "covered >= ceil(4n/5)", 4, 4, True),
            ]),
            ("c4free22", 5, 2, [], _cliques({0, 1}, {2}), [
                _record("four-fifths", "covered >= ceil(4n/5)", 4, 3, False),
            ]),
            ("tt", 6, 4, [], _cliques({0, 1, 2}, {3, 4, 5}), [
                _record("few-cliques",
                        "at most 2 cliques cover all vertices (t=4)", 2, 2, True),
            ]),
            ("tt", 6, 4, [], _cliques({0, 1}, {2, 3}, {4, 5}), [
                _record("few-cliques",
                        "at most 2 cliques cover all vertices (t=4)", 2, 3, False),
            ]),
            ("tt", 6, 5, [], _cliques({0, 1}, {2, 3}, {4, 5}), [
                _record("few-cliques",
                        "at most 3 cliques cover all vertices (t=5)", 3, 3, True),
            ]),
            ("tt", 6, 5, [], _cliques({0}, {1, 2}, {3}, {4, 5}), [
                _record("few-cliques",
                        "at most 3 cliques cover all vertices (t=5)", 3, 4, False),
            ]),
            ("t33", 6, 3, [], _cliques({0, 1}, {2, 3}, {4}), [
                _record("three-cliques", "at most 3 cliques cover all vertices",
                        3, 3, False),
            ]),
        ],
    )
    def test_check_records_and_exit_code(
        self, capsys, monkeypatch, algorithm, n, t, argv, cover, checks
    ):
        if algorithm == "greedy":
            uncovered = frozenset(range(n)) - cover.vertices()
            monkeypatch.setattr(
                cli, "greedy_strong_cover",
                lambda col: (cover, GreedyTrace([], uncovered)),
            )
        else:
            target = {"t33": "strong_cover_33", "tt": "strong_cover_tt",
                      "c4free22": "strong_cover_c4free_22"}[algorithm]
            monkeypatch.setattr(cli, target, lambda col: cover)
        text = json.dumps(_complete_coloring(n, t).to_dict())
        code, doc = run_json(
            capsys, ["cover", algorithm, "-", *argv], text, monkeypatch
        )
        assert doc["checks"] == [_VALID, *checks]
        assert doc["results"]["covered"] == cover.covered()
        assert code == (0 if all(c["pass"] for c in checks) else 1)
        assert doc["pass"] is (code == 0)


class TestVerify:
    def test_meta_holds_the_arguments_run_with(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "constructions", "--n", "12", "--t", "4", "--k", "2",
             "--samples", "3", "--seed", "5"],
        )
        assert code == 0 and doc["meta"] == {
            "suite": "constructions", "n": 12, "t": 4, "k": 2, "samples": 3, "seed": 5,
        }

    def test_lower_suite(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "lower", "--n", "8", "--t", "3", "--k", "3",
             "--samples", "4", "--seed", "1"],
        )
        assert code == 0 and doc["pass"] is True
        rows = doc["results"]["instances"]
        assert len(rows) == 4
        assert [r["seed"] for r in rows] == sorted(r["seed"] for r in rows)

    def test_t33_suite(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "t33", "--n", "7", "--samples", "2"]
        )
        assert code == 0
        assert all(r["cliques"] <= 3 for r in doc["results"]["instances"])

    def test_tt_suite_even(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "tt", "--n", "7", "--t", "2", "--samples", "2"]
        )
        assert code == 0
        assert all(r["cliques"] <= 2 for r in doc["results"]["instances"])

    def test_c4free22_suite(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "c4free22", "--n", "8", "--samples", "4"]
        )
        assert code == 0
        for r in doc["results"]["instances"]:
            assert r["covered"] >= r["bound"]

    @pytest.mark.parametrize("suite", ["t33", "tt", "c4free22"])
    def test_structured_suites_past_forty_vertices(self, capsys, suite):
        code, doc = run_json(
            capsys, ["verify", suite, "--n", "50", "--samples", "4"]
        )
        rows = doc["results"]["instances"]
        assert code == 0 and not any("error" in r for r in rows)
        assert max(r["n"] for r in rows) == 50

    def test_constructions_suite(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "constructions", "--samples", "10"]
        )
        assert code == 0 and doc["pass"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "k8-partition",
            "k8-classes",
            "hamilton-paths",
            "k4-two-paths",
            "chordal-edge-bound",
        ]


class TestEmitText:
    """Every command writes its report or document with one ``json.dumps``,
    and the text is what ``json.dump`` streams through the pure-Python
    encoder: keys sorted, non-ASCII escaped, floats in their shortest
    repr, one newline after."""

    def emit(self, capsys, monkeypatch, argv):
        docs = []
        dumps = json.dumps

        def spy(obj, **kwargs):
            docs.append(obj)
            return dumps(obj, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cli.json, "dumps", spy)
            code, out, _err = run(capsys, argv)
        (doc,) = docs
        streamed = io.StringIO()
        json.dump(doc, streamed, sort_keys=True)
        assert out == streamed.getvalue() + "\n"
        return code, doc, out

    def test_gen(self, capsys, monkeypatch):
        code, doc, _ = self.emit(capsys, monkeypatch, ["gen", "onefourth", "--t", "3"])
        assert code == 0 and len(doc["members"]) == 7
        code, doc, out = self.emit(capsys, monkeypatch, [
            "gen", "intervals", "--n", "6", "--t", "2",
            "--seed", "5", "--anchor", "0.9", "--k", "2",
        ])
        assert code == 0 and doc["meta"]["anchor"] == 0.9 and '"anchor": 0.9' in out

    def path(self, capsys, tmp_path):
        main(["gen", "onefourth", "--t", "3"])
        p = tmp_path / "t\u00e9st-\u2713.json"
        p.write_text(capsys.readouterr().out, encoding="utf-8")
        return str(p)

    def test_check_reads_a_non_ascii_path(self, capsys, monkeypatch, tmp_path):
        path = self.path(capsys, tmp_path)
        code, doc, out = self.emit(
            capsys, monkeypatch, ["check", path, "--tk", "2", "--chordal"]
        )
        assert code == 0 and doc["meta"]["source"] == path
        assert "\\u00e9st-\\u2713.json" in out and out.isascii()
        assert doc["times"] and all(isinstance(s, float) for s in doc["times"].values())

    def test_cover(self, capsys, monkeypatch, tmp_path):
        path = self.path(capsys, tmp_path)
        code, doc, _ = self.emit(
            capsys, monkeypatch, ["cover", "greedy", path, "--k", "2"]
        )
        assert code == 0 and doc["results"]["piercing_points"]
        assert all(isinstance(s, float) for s in doc["times"].values())
        star = tmp_path / "star.json"
        star.write_text(json.dumps(construct_k5star().to_dict()))
        code, doc, _ = self.emit(capsys, monkeypatch, ["cover", "t33", str(star)])
        assert code == 1 and doc["results"]["error"].startswith("PreconditionError")

    def test_verify(self, capsys, monkeypatch):
        code, doc, _ = self.emit(
            capsys, monkeypatch, ["verify", "lower", "--samples", "2", "--seed", "1"]
        )
        assert code == 0 and len(doc["results"]["instances"]) == 2
        assert all(isinstance(s, float) for s in doc["times"].values())


class TestVerifyFailures:
    @pytest.mark.parametrize(
        "suite, target, error",
        [
            ("t33", "strong_cover_33", "GuaranteeError"),
            ("tt", "strong_cover_tt", "PreconditionError"),
            ("c4free22", "strong_cover_c4free_22", "SizeLimitError"),
            ("lower", "greedy_strong_cover", "PreconditionError"),
        ],
    )
    def test_errors_land_on_instance_rows(
        self, capsys, monkeypatch, suite, target, error
    ):
        import strongcover.cli as cli
        from strongcover import errors

        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise getattr(errors, error)("injected failure")
            return real(*args, **kwargs)

        real = getattr(cli, target)
        monkeypatch.setattr(cli, target, fail)
        code, out, err = run(
            capsys, ["verify", suite, "--n", "7", "--t", "2", "--samples", "3"]
        )
        assert code == 1
        assert "Traceback" not in err and err == ""
        doc = json.loads(out)
        rows = doc["results"]["instances"]
        assert len(rows) == 3
        bad = rows[1]
        assert bad["pass"] is False
        assert bad["error"] == f"{error}: injected failure"
        assert bad["name"] and bad["seed"] == 1 and bad["n"] >= 1
        assert all(r["pass"] for r in (rows[0], rows[2]))
        assert doc["checks"][-1]["failures"] == [bad["name"]]
        assert doc["pass"] is False

    def test_instance_generation_failure_is_a_row(self, capsys, monkeypatch):
        import strongcover.cli as cli
        from strongcover.errors import GuaranteeError

        def fail(*args, **kwargs):
            raise GuaranteeError("no family")

        monkeypatch.setattr(cli.corpus, "seeded_tk_instance", fail)
        code, out, err = run(capsys, ["verify", "lower", "--samples", "2"])
        assert code == 1 and err == ""
        rows = json.loads(out)["results"]["instances"]
        assert [r["name"] for r in rows] == ["lower-seed0", "lower-seed1"]
        assert all(r["error"] == "GuaranteeError: no family" for r in rows)


class TestSharedRows:
    """A suite's rows are made in this process and in forked children, one
    per further usable CPU and at most one process per two rows.  Every
    report equals the serial loop's, which one usable CPU forces, and no
    child outlives the call.  A counter patched in here does not see the
    rows that a child makes, so call-counting tests stay below four rows."""

    SUITES = {
        "lower": ["--n", "8"],
        "t33": ["--n", "7"],
        "tt": ["--n", "7", "--t", "2"],
        "c4free22": ["--n", "8"],
    }
    COVERS = {
        "lower": "greedy_strong_cover",
        "t33": "strong_cover_33",
        "tt": "strong_cover_tt",
        "c4free22": "strong_cover_c4free_22",
    }

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the usable CPU count that the suites read."""
        return lambda count: monkeypatch.setattr(cli, "_usable_cpus", lambda: count)

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def spy():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", spy)
        return calls

    def argv(self, suite, samples, seed=0):
        return ["verify", suite, *self.SUITES[suite],
                "--samples", str(samples), "--seed", str(seed)]

    def run(self, argv):
        """(exit code, report less times, standard error); no child is left."""
        code, out, err = invoke(argv, "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, without_times(out), err

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("samples", [3, 4, 9])
    @pytest.mark.parametrize("suite", SUITES)
    def test_rows_equal_the_serial_loop(self, cpus, forks, suite, samples, seed):
        argv = self.argv(suite, samples, seed)
        cpus(3)
        shared = self.run(argv)
        assert len(forks) == max(0, min(3, samples // 2) - 1)
        cpus(1)
        assert self.run(argv) == shared
        assert len(forks) == max(0, min(3, samples // 2) - 1)
        assert shared[0] == 0 and len(shared[1]["results"]["instances"]) == samples

    @pytest.mark.parametrize("fault", ["raise", "exit", "short"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_a_failing_child_gives_the_serial_report(
        self, monkeypatch, tmp_path, cpus, suite, fault
    ):
        argv = self.argv(suite, 9, 3)
        cpus(1)
        serial = self.run(argv)
        parent = os.getpid()
        taken = tmp_path / "taken"
        real = getattr(cli, self.COVERS[suite])

        def cover(col):
            if os.getpid() == parent:  # a child takes a row first
                deadline = time.monotonic() + 10
                while not taken.exists() and time.monotonic() < deadline:
                    time.sleep(0.001)
                return real(col)
            taken.touch()
            if fault == "exit":
                os._exit(3)
            if fault == "raise":
                raise RuntimeError("fault in a child")
            return real(col)

        monkeypatch.setattr(cli, self.COVERS[suite], cover)
        if fault == "short":  # each child's rows arrive cut short
            monkeypatch.setattr(cli, "marshal", SimpleNamespace(
                dumps=lambda rows: marshal.dumps(rows)[:-1], loads=marshal.loads,
            ))
        cpus(3)
        assert self.run(argv) == serial
        assert taken.exists()

    @pytest.mark.parametrize("count", [1, 3])
    def test_an_error_in_a_row_is_the_serial_loop_s(self, monkeypatch, cpus, count):
        """The first row to raise, by index, raises its own exception."""
        real = cli.corpus.seeded_tk_instance

        def draw(kind, n, t, k, seed):
            if seed == 3:
                raise KeyError("the first failing row")
            if seed == 6:
                raise ZeroDivisionError("a later failing row")
            return real(kind, n, t, k, seed)

        monkeypatch.setattr(cli.corpus, "seeded_tk_instance", draw)
        cpus(count)
        with pytest.raises(KeyError, match="the first failing row"):
            invoke(self.argv("lower", 9), "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_or_another_thread_forks_nothing(self, cpus, forks):
        argv = self.argv("lower", 9)
        cpus(1)
        serial = self.run(argv)
        cpus(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert self.run(argv) == serial
        finally:
            release.set()
            thread.join()
        assert forks == []

    def test_without_fork_the_loop_is_serial(self, monkeypatch, cpus):
        argv = self.argv("tt", 9)
        cpus(1)
        serial = self.run(argv)
        cpus(3)
        monkeypatch.delattr(os, "fork")
        assert self.run(argv) == serial

    def no_child_is_left(self):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def wait_for(path):
        deadline = time.monotonic() + 10
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.001)

    @pytest.mark.parametrize("count", [4, 5, 1024, 1025, 3001])
    def test_rows_come_back_in_index_order(self, monkeypatch, tmp_path, cpus, count):
        """The pipe is filled by one write that a one-page pipe holds: past
        1,024 rows it carries blocks of indices.  Rows a child leaves
        without are made here, and a child never returns to its caller."""
        parent = os.getpid()
        writes = []
        write = os.write

        def spy(fd, data):
            writes.append(len(data))
            return write(fd, data)

        def make_row(i):
            if i % 7 == 3 and os.getpid() != parent:
                os._exit(3)
            return {"i": i, "odd": i % 2 == 1, "none": None, "list": [i, str(i)]}

        monkeypatch.setattr(os, "write", spy)
        cpus(3)
        try:
            rows = cli._shared_rows(make_row, count)
        finally:
            if os.getpid() != parent:  # a child came back: stop it here
                (tmp_path / "returned").touch()
                os._exit(0)
        assert rows == [make_row(i) for i in range(count)]
        assert len(writes) == 1 and writes[0] <= 4096
        assert not (tmp_path / "returned").exists()
        self.no_child_is_left()

    def test_the_first_row_to_raise_raises_here(self, tmp_path, cpus):
        """A row that raises here does not end the call while children may
        hold earlier rows: the first row to raise, by index, raises."""
        parent = os.getpid()
        taken = tmp_path / "taken"

        def make_row(i):
            if os.getpid() != parent:
                taken.touch()
            elif i == 0:  # the children take the next rows
                self.wait_for(taken)
            if i:
                raise ValueError(i)
            return {}

        cpus(3)
        with pytest.raises(ValueError) as info:
            cli._shared_rows(make_row, 9)
        assert info.value.args == (1,)
        self.no_child_is_left()

    def test_rows_of_a_child_that_exits_nonzero_are_made_here(
        self, monkeypatch, tmp_path, cpus
    ):
        """A child that sends every row and then exits with a non-zero
        status is a faulty child: this process makes all of the rows."""
        parent = os.getpid()
        taken = tmp_path / "taken"
        made_here = []
        leave = os._exit

        def make_row(i):
            if os.getpid() != parent:
                taken.touch()
            else:
                self.wait_for(taken)
                made_here.append(i)
            return {"i": i}

        monkeypatch.setattr(os, "_exit", lambda code: leave(code or 3))
        cpus(2)
        assert cli._shared_rows(make_row, 8) == [{"i": i} for i in range(8)]
        assert sorted(made_here) == list(range(8))
        self.no_child_is_left()


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "exact", "-", "--max-exact", "-1"],
        ["cover", "exact", "-", "--max-exact", "x"],
        ["verify", "lower", "--samples", "0"],
        ["verify", "lower", "--samples", "-1"],
        ["check", "-", "--kfold", "0"],
        ["check", "-", "--kfold", "-1"],
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    # refused while parsing, before any instance is read
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


@st.composite
def edges_documents(draw):
    n = draw(st.integers(2, 7))
    t = draw(st.integers(1, 3))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            cs = draw(st.lists(st.integers(1, t), max_size=t, unique=True))
            if cs:
                edges.append([u, v, cs])
    return {"n": n, "t": t, "edges": edges}


@st.composite
def interval_documents(draw):
    t = draw(st.integers(1, 3))
    interval = st.tuples(st.integers(-3, 6), st.integers(0, 5)).map(
        lambda p: [p[0], p[0] + p[1]]
    )
    tracks = st.lists(interval, min_size=t, max_size=t)
    return {"t": t, "members": draw(st.lists(tracks, min_size=2, max_size=7))}


@st.composite
def subtree_documents(draw):
    """A random host tree (each vertex hangs below a smaller one) and
    subtrees grown down from a top vertex, so every document is valid."""
    h = draw(st.integers(1, 7))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, h)]
    t = draw(st.integers(1, 3))

    def subtree():
        top = draw(st.integers(0, h - 1))
        inside = {top}
        for v in range(top + 1, h):
            if parent[v] in inside and draw(st.booleans()):
                inside.add(v)
        return sorted(inside)

    members = [
        [subtree() for _ in range(t)] for _ in range(draw(st.integers(2, 7)))
    ]
    return {"host_edges": [[parent[v], v] for v in range(1, h)], "t": t,
            "members": members}


# stand-ins for a field or a number: out of range, of the wrong type, or
# in range but changing the document's shape
_ODD_VALUES = (-1, 0, 1, 2, 99, 2**70, 1.5, True, None, "x", [], {})


@st.composite
def instance_texts(draw):
    """A valid edges, interval or subtree document, or one with a field of
    the wrong type, one number replaced (a vertex or color out of range,
    a float, a bool, ...), or its JSON text truncated."""
    doc = draw(st.one_of(edges_documents(), interval_documents(),
                         subtree_documents()))
    fault = draw(st.sampled_from(("none", "none", "field", "leaf", "truncate")))
    if fault == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(_ODD_VALUES))
    elif fault == "leaf":
        slots = []

        def walk(node):
            for i, item in enumerate(node):
                if isinstance(item, list):
                    walk(item)
                else:
                    slots.append((node, i))

        walk([doc[key] for key in sorted(doc)])
        if slots:
            node, i = draw(st.sampled_from(slots))
            node[i] = draw(st.sampled_from(_ODD_VALUES))
    text = json.dumps(doc)
    if fault == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


_COUNTS = st.sampled_from(("2", "3", "4", "-1", "0", "1", "9"))


@st.composite
def command_lines(draw):
    if draw(st.booleans()):
        argv = ["check", "-"]
        if draw(st.booleans()):
            argv += ["--tk", draw(_COUNTS)]
        if draw(st.booleans()):
            argv += ["--kfold", draw(_COUNTS)]
        argv += [f for f in ("--chordal", "--c4free") if draw(st.booleans())]
        return argv
    algorithm = draw(st.sampled_from(("greedy", "t33", "tt", "c4free22", "exact")))
    argv = ["cover", algorithm, "-"]
    if draw(st.booleans()):
        argv += ["--k", draw(_COUNTS)]
    if algorithm == "exact":
        # every valid document has n >= 2: no limit, or one it exceeds
        limit = draw(st.sampled_from((None, "0", "1")))
        if limit is not None:
            argv += ["--max-exact", limit]
    return argv


def invoke(argv, text):
    """main(argv) with ``text`` on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the command line
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def without_times(out):
    if not out:
        return out
    doc = json.loads(out)
    doc.pop("times")
    return doc


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=command_lines(), text=instance_texts())
def test_main_keeps_the_exit_code_contract(argv, text):
    """Any document under any check or cover: exit 0, 1 or 2, no
    traceback, and the same report on a second run."""
    code, out, err = invoke(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (out == "") == (code == 2)
    again = invoke(argv, text)
    assert again[0] == code and again[2] == err
    assert without_times(again[1]) == without_times(out)


@pytest.mark.parametrize("t", [1000, MAX_COLORS])
def test_exact_on_many_colors_keeps_the_exit_code_contract(t):
    """An edgeless coloring with more colors than the exhaustive searches
    take: a report naming the bound, no traceback."""
    code, out, err = invoke(["cover", "exact", "-"], json.dumps(
        {"n": 2, "t": t, "edges": []}
    ))
    assert code in (0, 1)
    assert "Traceback" not in err
    assert json.loads(out)["results"]["error"] == (
        f"SizeLimitError: t={t} exceeds the exhaustive search bound 512"
    )


# small, negative, and just over the size limits (16,384 vertices, 1,024 colors)
_SMALL = ("-1", "0", "1", "2", "3", "5")
_VERTICES = st.sampled_from(_SMALL + ("16385",))
_COLORS = st.sampled_from(_SMALL + ("1025",))
_ANCHORS = st.sampled_from(("0", "0.5", "0.9", "1", "nan", "inf", "-1", "2", "x"))


@st.composite
def gen_command_lines(draw):
    argv = ["gen", draw(st.sampled_from((
        "subtrees", "intervals", "partition", "onefourth", "k5star", "k4paths",
        "k8c4free",
    )))]
    for flag, values in (
        ("--n", _VERTICES),
        ("--t", _COLORS),
        ("--k", st.sampled_from(_SMALL)),
        ("--seed", st.sampled_from(("-1", "0", "7", "99999999999"))),
        ("--host-size", _VERTICES),
        ("--anchor", _ANCHORS),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def verify_command_lines(draw):
    argv = ["verify", draw(st.sampled_from(("lower", "t33", "tt", "c4free22",
                                            "constructions")))]
    argv += ["--samples", draw(st.sampled_from(("-1", "0", "1", "2")))]
    for flag, values in (
        ("--n", _VERTICES),
        ("--t", _COLORS),
        ("--k", st.sampled_from(_SMALL)),
        ("--seed", st.sampled_from(("-1", "0", "7"))),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=st.one_of(gen_command_lines(), verify_command_lines()))
def test_gen_and_verify_keep_the_exit_code_contract(argv):
    """Any gen or verify command line: exit 0, 1 or 2 (argparse's refusal
    counted as 2), no traceback, and the same output on a second run."""
    code, out, err = invoke(argv, "")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (out == "") == (code == 2)
    if out:  # strict JSON: a NaN or an Infinity would be a silent coercion
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))
    again = invoke(argv, "")
    assert again[0] == code and again[2] == err
    if argv[0] == "gen":
        assert again[1] == out
    else:
        assert without_times(again[1]) == without_times(out)


class TestParserReuse:
    """main() parses with one parser per process, built on first use."""

    DOC = json.dumps({"t": 2, "members": [[[0, 2], [1, 1]], [[1, 3], [0, 4]],
                                          [[2, 2], [5, 6]]]})

    def test_one_build_over_every_command(self, monkeypatch):
        builds = []
        build = cli.build_parser

        def spy():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            codes = [
                invoke(["gen", "k5star"], "")[0],
                invoke(["check", "-", "--tk", "2", "--chordal"], self.DOC)[0],
                invoke(["cover", "greedy", "-", "--k", "2"], self.DOC)[0],
                invoke(["verify", "lower", "--samples", "2"], "")[0],
                invoke(["check", "-"], self.DOC)[0],
            ]
        finally:
            cli._parser.cache_clear()
        assert codes == [0, 0, 0, 0, 0]
        assert builds == [1]

    def test_usage_error_leaves_the_parser_as_a_fresh_process_has_it(self):
        argv = ["cover", "greedy", "-", "--k", "2"]
        code, out, err = invoke(["cover", "greedy", "-", "--k", "two"], self.DOC)
        assert (code, out) == (2, "") and "invalid int value" in err
        code, out, err = invoke(argv, self.DOC)
        src = Path(cli.__file__).resolve().parent.parent
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from strongcover.cli import main; sys.exit(main())", *argv],
            input=self.DOC, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=False,
        )
        assert (code, err) == (fresh.returncode, fresh.stderr) == (0, "")
        assert without_times(out) == without_times(fresh.stdout)

    def test_flags_do_not_leak_between_calls(self):
        code, out, _err = invoke(["check", "-", "--chordal", "--tk", "2"], self.DOC)
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == ["tk", "chordal"]
        code, out, _err = invoke(["check", "-"], self.DOC)
        assert code == 0 and json.loads(out)["checks"] == []

    def test_commands_are_looked_up_per_call(self, monkeypatch):
        invoke(["check", "-"], self.DOC)  # the parser exists before the patch
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert invoke(["check", "-"], self.DOC)[0] == 7
