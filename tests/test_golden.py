"""Reports equal the golden digests recorded in ``golden_cover_exact.json``
(``cover exact`` on edges documents), ``golden_families.json`` (the
family covers and checks on family documents) and ``golden_edges.json``
(the covers and checks on edges documents, and ``gen`` and ``verify``
outputs) and ``golden_kernels.json`` (the Bron-Kerbosch kernel's clique
order on edges documents); documents and regeneration in ``golden.py``."""

import json

import pytest

import golden
import oracles
from strongcover.core import (
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    piercing_points,
)

WANT = json.loads(golden.DIGESTS.read_text())
DOCS = golden.documents()
FAMILY_WANT = json.loads(golden.FAMILY_DIGESTS.read_text())
FAMILY_DOCS = golden.family_documents()
EDGES_WANT = json.loads(golden.EDGES_DIGESTS.read_text())
EDGES_DOCS = golden.edges_documents()
ARGV_CASES = golden.argv_cases()
KERNEL_WANT = json.loads(golden.KERNEL_DIGESTS.read_text())


def test_every_document_is_pinned():
    assert sorted(DOCS) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_cover_exact_report_is_golden(name):
    assert golden.run_case(DOCS[name]) == WANT[name]


def test_every_family_document_is_pinned_under_every_command():
    assert sorted(FAMILY_DOCS) == sorted(FAMILY_WANT)
    for runs in FAMILY_WANT.values():
        assert sorted(runs) == sorted(golden.FAMILY_ARGV)


def test_malformed_family_documents_exit_2():
    malformed = [name for name in FAMILY_WANT if name.startswith("malformed")]
    assert malformed
    for name in malformed:
        assert {run["exit"] for run in FAMILY_WANT[name].values()} == {2}


@pytest.mark.parametrize("name", sorted(FAMILY_WANT))
def test_family_reports_are_golden(name):
    assert golden.run_family_case(FAMILY_DOCS[name]) == FAMILY_WANT[name]


def test_every_edges_case_is_pinned_under_every_command():
    assert sorted(EDGES_WANT) == sorted(EDGES_DOCS.keys() | ARGV_CASES.keys())
    for name in EDGES_DOCS:
        assert sorted(EDGES_WANT[name]) == sorted(golden.EDGES_ARGV)


def test_family_colorings_are_the_package_colorings():
    derived = {name[: -len("-coloring")] for name in EDGES_DOCS if name.endswith("-coloring")}
    assert derived == {name for name in FAMILY_DOCS if not name.startswith("malformed")}
    for name in derived:
        doc = FAMILY_DOCS[name]
        if "host_edges" in doc:
            col = coloring_from_subtrees(TSubtreeFamily.from_dict(doc))
        else:
            col = coloring_from_intervals(TIntervalFamily.from_dict(doc))
        assert MultiColoring.from_dict(EDGES_DOCS[f"{name}-coloring"]) == col, name


def test_subtree_piercing_points_match_the_oracle_on_golden_covers():
    """Every valid cover a command prints for a well-formed subtree
    document gets the brute-force points (the reports print points only
    for interval documents, so no digest holds them)."""
    checked = 0
    for name, doc in FAMILY_DOCS.items():
        if "host_edges" not in doc or name.startswith("malformed"):
            continue
        fam = TSubtreeFamily.from_dict(doc)
        for argv in golden.FAMILY_ARGV.values():
            if argv[0] != "cover":
                continue
            out = golden.run_output(argv, json.dumps(doc))[1]
            report = json.loads(out) if out else {"checks": []}  # exit 2 on n < k
            if not any(c["name"] == "cover-valid" and c["pass"] for c in report["checks"]):
                continue
            cover = StrongCover.from_dict(report["results"]["cover"])
            want = oracles.subtree_piercing_points(
                doc["host_edges"], doc["members"], cover.assignments
            )
            assert piercing_points(fam, cover) == want, (name, argv)
            checked += 1
    assert checked == 85


# One test per command line over all of its cases keeps the per-test
# overhead small; a failure lists the cases that moved.
@pytest.mark.parametrize("label", sorted(golden.EDGES_ARGV))
def test_edges_reports_are_golden(label):
    argv = golden.EDGES_ARGV[label]
    moved = [name for name, doc in EDGES_DOCS.items()
             if golden.run_case(doc, argv) != EDGES_WANT[name][label]]
    assert moved == []


def test_kernel_clique_orders_are_golden():
    assert sorted(KERNEL_WANT) == sorted(EDGES_DOCS)
    moved = [name for name, doc in EDGES_DOCS.items()
             if golden.run_kernel_case(doc) != KERNEL_WANT[name]]
    assert moved == []


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_gen_and_verify_outputs_are_golden(command):
    moved = [text for text, argv in ARGV_CASES.items()
             if argv[0] == command and golden.run_argv(argv) != EDGES_WANT[text]]
    assert moved == []
