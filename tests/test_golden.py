"""Reports equal the golden digests recorded in ``golden_cover_exact.json``
(``cover exact`` on edges documents) and ``golden_families.json`` (the
family covers and checks on family documents); documents and regeneration
in ``golden.py``."""

import json

import pytest

import golden

WANT = json.loads(golden.DIGESTS.read_text())
DOCS = golden.documents()
FAMILY_WANT = json.loads(golden.FAMILY_DIGESTS.read_text())
FAMILY_DOCS = golden.family_documents()


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
