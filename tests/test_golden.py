"""``cover exact`` reports equal the golden digests recorded in
``golden_cover_exact.json`` (documents and regeneration in ``golden.py``)."""

import json

import pytest

import golden

WANT = json.loads(golden.DIGESTS.read_text())
DOCS = golden.documents()


def test_every_document_is_pinned():
    assert sorted(DOCS) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_cover_exact_report_is_golden(name):
    assert golden.run_case(DOCS[name]) == WANT[name]
