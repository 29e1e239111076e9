"""Every test corpus is pinned by instance count and sha256, so a change of
seed, name, anchor, host size or sampler fails here instead of quietly
testing other instances."""

import hashlib
import json

import pytest

import corpora

DIGESTS = {
    "chordal_tk_corpus": (216, "82a1683fda6a51752dd87f1fa7e15291984f01087539b96fc97d2e86d6f98c63"),
    "chordal_33_corpus": (104, "b450ef408074b9bbc9825f38ddeef7c1db513b936d612cea8bf1dbb39e02f3e0"),
    "chordal_tt_corpus": (48, "984dd4551cc6c0df02b3a78369a6b1fb251af74cc000ebd75fea6c9a43b8f223"),
    "c4free_22_corpus": (270, "576610fd64c389b18afdead2af77c22140fe941b44a509693740b0a7e51e9306"),
    "substitution_corpus": (50, "c8db93eda3456cd12e5dd854ecd71ee4f235773ea45c2d56b432937ea688bcd2"),
    "helly_corpus": (500, "3e84184d1055dacce01931818f8473a61e8515eb5a57fdfa7d6c12adde345f0f"),
}


def record(item):
    if isinstance(item, corpora.ColoringInstance):
        return [item.name, item.t, item.k, item.coloring.to_dict()]
    if isinstance(item, corpora.SubstitutionCase):
        return [item.name, item.base.to_dict(), item.vertex, item.size]
    return item.to_dict()  # a Helly family


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_corpus_digest(name):
    items = getattr(corpora, name)()
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(record(item), sort_keys=True).encode())
    assert (len(items), h.hexdigest()) == DIGESTS[name]
