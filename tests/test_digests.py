"""Pinned report digests.

The sweep is deterministic per seed, so a refactor of the exact-arithmetic
core must leave these ``classify --embed`` reports byte-identical.  The
documents are rendered exactly as ``seaweeds classify --embed --format json``
renders them.  Last re-pinned for report schema 4, whose index is a
formula and whose searches no longer start at an index trial's form.
Against its schema-3 report, each changed in ``schema``, in every
record's ``trial_kernel_dims`` (now always empty) and in every embedded
certificate (its form is the search stream's own draw); every other field
and the summary are equal as JSON values.
"""

import hashlib

import pytest

from seaweeds import classify, report

ATTEMPTS, BOUND, TRIALS = 64, 10**6, 3

DIGESTS = {
    ("GL", 4): "dda1bb6b7504f47f433c323fabe28f6cfe33d4253789cfd12ecf5d67a8f04b1f",
    ("GL", 5): "7cfa0c09947247442fec0d79ded23d7db82df68f80945810f8b631da3d3d0615",
    # standard-tier GL size: 1024 seaweeds of one ambient
    ("GL", 6): "66d651f8b98278651ac5c1de7fcdb88d97cfe85ae1d58cfb440240b3b2ec7c59",
    ("SL", 4): "d5c5c27d173d658b0ba1ba61a870ee93d8690411c78f7be0605dedc694e1b7dd",
    ("SP", 2): "ed0b4fba1a197f2ba74d61a44d95111d5acdf561a8f5d36afe518c654d1d1c5c",
    ("SO", 5): "309b6dafe7bbb2363ba236585acbc6aa59a29940738871b5ee1cb1fd1556fba8",
    ("SO", 6): "45d6d09d354a734f36ab4c9d5d8ef98716fd607718e015c33879ccf6fa585564",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "31e0378304b9fb716e1b2bfced40e6e1b211f580f87899eb4d84ad445b746f46",
    ("SP", 3): "8fdbc15c0e6372ea44b44047b7fad98f988f286e642e42eab9b18c7d435ec479",
    ("SO", 7): "8633006bbaacf76f47c89a34a09b98e3fd8706d37142259e10d899d368b78813",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "936af2fdfdaed982353f6cfff02bd916d79aced84363219b2b3831574c1806a7",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "944f9096a76af2bc176223192b4c024f277d8c7be8a8d20fa4affa20c432501e",
    ("SO", 8): "8316343a5c914549cbca11a42805daac7ed639737bd76921f22ce01b93d86802",
}


# the seed the benchmark runs at: (family, n, seed) -> digest
SEEDED_DIGESTS = {
    ("SO", 7, 23): "2302ffc08459424f4261266831ddb630a7b88157f85db125fd48b99ff57dd6a5",
}


def report_digest(family, n, seed):
    records = classify(
        family, n, seed=seed, attempts=ATTEMPTS, bound=BOUND, trials=TRIALS, embed_certificates=True
    )
    meta = {
        "family": family,
        "n": n,
        "seed": seed,
        "budgets": {"attempts": ATTEMPTS, "bound": BOUND, "trials": TRIALS},
    }
    text = report(records, "json", meta=meta)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,n", sorted(DIGESTS))
def test_seed0_report_digest(family, n):
    assert report_digest(family, n, 0) == DIGESTS[(family, n)]


@pytest.mark.parametrize("family,n,seed", sorted(SEEDED_DIGESTS))
def test_seeded_report_digest(family, n, seed):
    assert report_digest(family, n, seed) == SEEDED_DIGESTS[(family, n, seed)]
