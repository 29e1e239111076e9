"""End-to-end tests of the command line front end via main(argv)."""

import io
import json
import sys

import pytest

from strongcover.cli import main
from strongcover.constructions import construct_k5star
from strongcover.core import MultiColoring


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    """Invoke main and return (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
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
        ],
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

    def test_size_limit_is_structured(self, capsys, tmp_path):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(construct_k5star().to_dict()))
        code, doc = run_json(
            capsys, ["cover", "exact", str(p), "--max-exact", "3"]
        )
        assert code == 1
        assert doc["results"]["error"].startswith("SizeLimitError")

    def test_subtree_instance_has_no_piercing_points(self, capsys, tmp_path):
        main(["gen", "subtrees", "--n", "5", "--t", "2", "--seed", "1",
              "--host-size", "5", "--anchor", "1.0", "--k", "2"])
        out = capsys.readouterr().out
        p = tmp_path / "subtrees.json"
        p.write_text(out)
        code, doc = run_json(capsys, ["cover", "greedy", str(p), "--k", "2"])
        assert code == 0
        assert "piercing_points" not in doc["results"]


class TestVerify:
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
