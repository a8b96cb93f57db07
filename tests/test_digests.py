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
    ("GL", 4): "5369f9580aca1ca36609455b4e4c104dd930687841a4b4094567ccf4eec04ed0",
    ("GL", 5): "d99312e6060fb6502c77be3be160e3d86c284d40f58753e3ee8de6e7a3a9ccf9",
    ("SL", 4): "75a0f91fff4bd408e3a4c7f9164cc3b3133bf0412d5341a248fc00b7c927b81e",
    ("SP", 2): "ec92d4262020d10c981d4eaee6ed3a3d8b79555a751a1cf2d9beb8ea666606fe",
    ("SO", 5): "4fc8acb3ad46295268c0099210e1490249db2406a74686b60a5c27742dc4adff",
    ("SO", 6): "f48a1253df85a5218b8eafb62ba705d007b35ed436c17b87d9daa75671f0e4dc",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "eee8f9e87468ab54d58ce04fd9454deccc73f0a47a802f1c9bf4d042c8616304",
    ("SP", 3): "921ea9530780793066769569f0cf982fe831085ecf2040eb158c23a2237b5812",
    ("SO", 7): "716a40269ad279d6a4c7aa7548b115b218c1be74dc9281181d434f7bb5075579",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "4b74daf32752f6f9156e87e8b16f9ccf1cff506d06d98267772ee94e12853660",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "426aa51b0fd0431ca37dea38134f6dbfecaf4ebdbc1b51665a7392410d66e1d2",
    ("SO", 8): "ec28a6b78637e55bba05d8e035abd4f45c45e23b997ac17dee1d754082d38212",
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
