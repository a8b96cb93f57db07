"""Pinned report digests.

The sweep is deterministic per seed, so a refactor of the exact-arithmetic
core must leave these ``classify --embed`` reports byte-identical.  The
documents are rendered exactly as ``seaweeds classify --embed --format json``
renders them.  Last re-pinned for report schema 3 (compact JSON, and no
[ker, g] in the stability certificate of a contact form); each schema-3
report minus its certificates equals its schema-2 report as JSON values.
"""

import hashlib

import pytest

from seaweeds import classify, report

ATTEMPTS, BOUND, TRIALS = 64, 10**6, 3

DIGESTS = {
    ("GL", 4): "f02ae8c1691f0d6417f4887777fd9ac5e524d3f5b0a01808d3296dd2f160a0a7",
    ("GL", 5): "b3c7245baf2d09c9917ab4c5963d6ee564b5d398f678367b05da160c8a6c6acd",
    # standard-tier GL size: 1024 seaweeds of one ambient
    ("GL", 6): "996201e89e7f2f8699ecec85b5f61069d4dccaf5e4f267a89cc10caf92fa6886",
    ("SL", 4): "ddd5bd74e18a39c12063042067dfc14bdc79e53565ef4d59415817270039bbce",
    ("SP", 2): "483ae9832e32f7a5171fce0647437790a95c951f9aceb6ff7a845623db881735",
    ("SO", 5): "6d96e4854302915693426f9f84ddb6eaa44a959bd118820986d651c2ab4ff5b8",
    ("SO", 6): "ab9bde86eb62661c44ad50bf4d60023aaec77a3360ee1bc71212fa55fcf1c046",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "0723d7f65024eb05d5a133357187a297c81cc17ecbeb48ed4a6092db471faad7",
    ("SP", 3): "2eedb0b21f9c146c1b4bc3698d4f7d10301f3bb8db3f4f785b473a1271331a8b",
    ("SO", 7): "a5247f019522ae723d0c5a7be77f698886333bb23724f880ea88a849dd17b102",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "607d2fe23cd51589b7cd5d9bb41d33558522978a10e270fc3e5c1f1b0f39ed01",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "fbea270a233fd668a69fd64db5b2cdbcc9905eeaab40fe1924b8207caad8487f",
    ("SO", 8): "878c0576f3ada5cc51aeb2e55eb2ac39fc334f7f1a165a3d85d44a968a4386a6",
}


# the seed the benchmark runs at: (family, n, seed) -> digest
SEEDED_DIGESTS = {
    ("SO", 7, 23): "731fe35c6e3803a446f09fdd97b120d67a5494dc1914e4b4cc7a8a1355ce63e5",
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
