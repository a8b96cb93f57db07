"""Pinned report digests.

The sweep is deterministic per seed, so a refactor of the exact-arithmetic
core must leave these ``classify --embed`` reports byte-identical.  The
documents are rendered exactly as ``seaweeds classify --embed --format json``
renders them.  Last re-pinned for report schema 4, whose index is a
formula and whose searches no longer start at an index trial's form.
Against its schema-3 report, each changed in ``schema``, in every
record's ``trial_kernel_dims`` (now always empty) and in every embedded
certificate (its form is the search stream's own draw); every other field
and the summary are equal as JSON values.  The GL and SL digests were
re-pinned once more when a transpose partner (b|a) came to take theta(X) =
-X^T of its searched record's certificates: against the earlier report,
each differs only in those partners' certificates.

Each pinned report is also verified, as ``seaweeds verify`` reads it: the
digests pin the bytes, and ``verify_document`` re-checks every claim in
them.  Of the heavy-tier SO8 report, the test also states what it finds:
four refuted index-one records, and contact FOUND exactly where stable is.
"""

import hashlib
import json

import pytest

from seaweeds import classify, report, verify_document

ATTEMPTS, BOUND, TRIALS = 64, 10**6, 3

DIGESTS = {
    ("GL", 4): "3c2a947a1405c74d4bee3eccd3fec1cce7a82095e2dcd7f3777de654c7816fc0",
    ("GL", 5): "a41a1eee250848fca618a62003b59e60b4f24b884c9b26d88cf1f632bb21d71f",
    # standard-tier GL size: 1024 seaweeds of one ambient
    ("GL", 6): "cbe60a3d8def1bb91002b03dfab65ae618115447aa36fd7f08ba99bb7fa93bfa",
    ("SL", 4): "adced8b3d0ba7383a35450ff7cd2550ec583b2ec3f6b751e0fa00480b8e35bb3",
    ("SP", 2): "ed0b4fba1a197f2ba74d61a44d95111d5acdf561a8f5d36afe518c654d1d1c5c",
    ("SO", 5): "309b6dafe7bbb2363ba236585acbc6aa59a29940738871b5ee1cb1fd1556fba8",
    ("SO", 6): "45d6d09d354a734f36ab4c9d5d8ef98716fd607718e015c33879ccf6fa585564",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "c46489b4472b34339f7dedda372ef7f9e46ee3071a629eb2ca57991a921434a6",
    ("SP", 3): "8fdbc15c0e6372ea44b44047b7fad98f988f286e642e42eab9b18c7d435ec479",
    ("SO", 7): "8633006bbaacf76f47c89a34a09b98e3fd8706d37142259e10d899d368b78813",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "7f055f4290c735a3bb623a57203869862c0451ae380cd0ceb99728eb04aa802d",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "944f9096a76af2bc176223192b4c024f277d8c7be8a8d20fa4affa20c432501e",
    ("SO", 8): "8316343a5c914549cbca11a42805daac7ed639737bd76921f22ce01b93d86802",
}


# the seed the benchmark runs at: (family, n, seed) -> digest
SEEDED_DIGESTS = {
    ("SO", 7, 23): "2302ffc08459424f4261266831ddb630a7b88157f85db125fd48b99ff57dd6a5",
}


def report_text(family, n, seed):
    """The ``classify --embed`` json report."""
    records = classify(
        family, n, seed=seed, attempts=ATTEMPTS, bound=BOUND, trials=TRIALS, embed_certificates=True
    )
    return report(records, "json")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,n", sorted(DIGESTS))
def test_seed0_report_digest(family, n):
    text = report_text(family, n, 0)
    assert digest(text) == DIGESTS[(family, n)]
    assert verify_document(json.loads(text)) is True


@pytest.mark.parametrize("family,n,seed", sorted(SEEDED_DIGESTS))
def test_seeded_report_digest(family, n, seed):
    assert digest(report_text(family, n, seed)) == SEEDED_DIGESTS[(family, n, seed)]


def test_so8_refutes_four_records_and_each_contact_form_is_its_stable_form():
    records = json.loads(report_text("SO", 8, 0))["records"]
    pairs = sorted(
        "|".join(",".join(map(str, r[key])) or "0" for key in ("top", "bottom"))
        for r in records if "NOT_FOUND" in (r["contact"], r["stable"])
    )
    assert pairs == ["0|1,2,1", "0|2,1", "1,2,1|0", "1,2|0"]
    assert all(r["contact"] == r["stable"] for r in records)
    # one search: a contact certificate's form is its stability certificate's,
    # which is then the short shape, without [ker, g]
    found = [r["certificates"] for r in records if "contact" in (r.get("certificates") or {})]
    assert found and all(c["contact"]["form"] == c["stability"]["form"] for c in found)
    assert not any("bracket_span" in c["stability"] for c in found)
