"""The package's records: what the CLI imports at start-up, and how the
records are built, compared, shown and guarded against change."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from strongcover import Graph
from strongcover.chordal import (
    ChordalCertificate,
    CliqueCutsetDecomposition,
    EdgeBoundReport,
)
from strongcover.cli import RunReport
from strongcover.constructions import BlowupSpec
from strongcover.core import CoverReport, StrongCover, TIntervalFamily, TSubtreeFamily
from strongcover.covers import ChainCheck, GreedyStep, GreedyTrace

ROOT = Path(__file__).resolve().parents[1]


def test_cli_imports_no_dataclasses_inspect_or_copy():
    """A fresh isolated interpreter, set up as the benchmark times it."""
    code = (
        "import sys; sys.path.insert(0, 'src'); "
        "import strongcover.cli as cli; cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'copy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def families():
    fam = TIntervalFamily(2, [[(0, 1), (2, 5)], [(1, 3), (0, 0)]])
    sfam = TSubtreeFamily([(0, 1), (1, 2)], 2, [[{0, 1}, {2}], [[1], [1, 2]]])
    return fam, sfam


class TestFrozenFamilies:
    def test_attributes_cannot_be_deleted(self):
        fam, sfam = families()
        before = vars(fam).copy(), vars(sfam).copy()
        for obj, name in ((fam, "t"), (fam, "members"), (fam, "_by_hi"), (sfam, "t"),
                          (sfam, "host_edges"), (sfam, "_tops")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert (vars(fam), vars(sfam)) == before

    def test_private_attributes_cannot_be_assigned(self):
        fam, sfam = families()
        for obj, name in ((fam, "_by_hi"), (sfam, "_tops"), (fam, "other")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)

    def test_reprs_are_the_dataclass_ones(self):
        fam, sfam = families()
        assert repr(fam) == (
            "TIntervalFamily(t=2, members=(((0, 1), (2, 5)), ((1, 3), (0, 0))))"
        )
        assert repr(sfam) == (
            "TSubtreeFamily(host_edges=((0, 1), (1, 2)), t=2, members="
            "((frozenset({0, 1}), frozenset({2})), (frozenset({1}), frozenset({1, 2}))))"
        )

    def test_equal_only_to_their_own_class(self):
        fam, sfam = families()
        assert fam != (fam.t, fam.members) and sfam != fam
        assert {fam, TIntervalFamily(**{"t": 2, "members": fam.members})} == {fam}


class TestRecords:
    def test_mutable_defaults_are_not_shared(self):
        a, b = StrongCover(), StrongCover()
        a.assignments[1] = frozenset({0})
        assert b.assignments == {} and StrongCover().assignments == {}
        r, s = RunReport(meta={}), RunReport(meta={})
        r.results["x"] = 1
        r.add_check("c", "a <= b", 1, 1, True)
        r.times["step"] = 0.5
        assert (s.results, s.checks, s.times) == ({}, [], {})
        assert RunReport(meta={}) == s != r

    def test_keyword_construction(self):
        step = GreedyStep(color=2, clique=frozenset({0, 3}), remaining=4)
        records = [
            step,
            GreedyTrace(steps=[step], uncovered=frozenset({1})),
            ChainCheck(t_size=1, covered=2, m=0, lower=0, upper=0, ok=True),
            CoverReport(valid=True, covered=3),
            EdgeBoundReport(edges=3, omega=3, bound_quadratic=3, bound_linear=6, ok=True),
            CliqueCutsetDecomposition(
                a=frozenset({0}), q=frozenset({1}), b=frozenset({2})
            ),
            BlowupSpec(sizes=[2, 1]),
            RunReport(meta={"n": 1}, results={"r": 1}, checks=[], times={}),
            StrongCover(assignments={1: frozenset({0})}),
            ChordalCertificate(peo=[1, 0]),
            TIntervalFamily(t=1, members=[[(0, 1)]]),
            TSubtreeFamily(host_edges=[(0, 1)], t=1, members=[[{0, 1}]]),
        ]
        assert [type(r).__name__ for r in records] == [
            "GreedyStep", "GreedyTrace", "ChainCheck", "CoverReport",
            "EdgeBoundReport", "CliqueCutsetDecomposition", "BlowupSpec",
            "RunReport", "StrongCover", "ChordalCertificate", "TIntervalFamily",
            "TSubtreeFamily",
        ]
        assert records[1].covered() == 2 and records[1].steps == [step]
        assert records[7].meta == {"n": 1} and records[9].is_chordal

    def test_greedy_step_repr_is_the_dataclass_one(self):
        step = GreedyStep(color=2, clique=frozenset({0, 3}), remaining=4)
        assert repr(step) == "GreedyStep(color=2, clique=frozenset({0, 3}), remaining=4)"

    def test_certificates_compare_by_order_and_failure(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert ChordalCertificate([0]) == ChordalCertificate(peo=[0])
        assert ChordalCertificate(None, (g, [0])) != ChordalCertificate(None)
        assert repr(ChordalCertificate([2, 1])) == "ChordalCertificate(peo=[2, 1])"
