"""Pinned report digests.

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
    ("GL", 4): "ab83985e09cab0d9e9cb24a8067b3ee24f850460f7cf1e171b14b982a232a3c2",
    ("GL", 5): "7cb0f11cb747cded02cb426d2398971eb7fb2d7441b1b5ab7245388258f22894",
    # standard-tier GL size: 1024 seaweeds of one ambient
    ("GL", 6): "34c56f733fe20e746bf488ce2743c1f584bcea149335f79250196bc374f46c99",
    ("SL", 4): "8b0bfd63b1f5e2f78518808429f4e7b4aad3a326df5f299d8417bc7afc5b481d",
    ("SP", 2): "c6bf0c9714f5c51771aa937ca4c453e28f56a5e1c6b725d69b6f8f6598b03990",
    ("SO", 5): "eb560018eb069194958e66cdc544336124c7a754a8127bf0704ad04a123daec2",
    ("SO", 6): "83ead8a38924628dfde1ea2a5114c908a6aa3a72b2432093fc872360320adaf3",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "1fc3bca08636fc7c82d02dc032587ef334cf76c9cc343b7186bb5b7ba53f146f",
    ("SP", 3): "d53c1de4e971eff2f2b11212d33da9aef8f3cb6701939b526f43b554cafc53b3",
    ("SO", 7): "14504d991dd494fd98d115c7f804a1dafae0eb75d909f960d607d7a24a632f6f",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "cd49a4a36f475623bf30ce360bd08a2a52d46bee13467e2dbe1c18140735dbb1",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "f4cd9c365bcf460628c5d04109a1d6a2e6cd789961de3951bc5bfe748b8e773e",
    ("SO", 8): "482d2524a052a84a42659690fc0f74a72ca5bb3ae617d217e6d55bc3bd37e001",
}


# the seed the benchmark runs at: (family, n, seed) -> digest
SEEDED_DIGESTS = {
    ("SO", 7, 23): "5f73010dee32261a988da8cfb0440c36f6451aec238884a1cd03281119915917",
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
