"""Pinned seed-0 report digests.

The sweep is deterministic per seed, so a refactor of the exact-arithmetic
core must leave these ``classify --embed`` reports byte-identical.  The
documents are rendered exactly as ``seaweeds classify --embed --format json``
renders them.
"""

import hashlib

import pytest

from seaweeds import classify, report

ATTEMPTS, BOUND, TRIALS = 64, 10**6, 3

DIGESTS = {
    ("SL", 4): "75a0f91fff4bd408e3a4c7f9164cc3b3133bf0412d5341a248fc00b7c927b81e",
    ("SP", 2): "ec92d4262020d10c981d4eaee6ed3a3d8b79555a751a1cf2d9beb8ea666606fe",
    ("SO", 5): "4fc8acb3ad46295268c0099210e1490249db2406a74686b60a5c27742dc4adff",
}


@pytest.mark.parametrize("family,n", sorted(DIGESTS))
def test_seed0_report_digest(family, n):
    records = classify(
        family, n, seed=0, attempts=ATTEMPTS, bound=BOUND, trials=TRIALS, embed_certificates=True
    )
    meta = {
        "family": family,
        "n": n,
        "seed": 0,
        "budgets": {"attempts": ATTEMPTS, "bound": BOUND, "trials": TRIALS},
    }
    text = report(records, "json", meta=meta)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(family, n)]
