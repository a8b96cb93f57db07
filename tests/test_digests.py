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
    ("GL", 4): "9c356523eed835dbf7d5f1eb34c07d0f92e06a9479b38639827acde5292e6acf",
    ("GL", 5): "3b10d30c25c37e2b97dfef650c636dd60f051271f468e57e975c349598c7ce69",
    # standard-tier GL size: 1024 seaweeds of one ambient
    ("GL", 6): "ca84ca29af2be09f383d88d9005d9d7ff580874ee7341c41f65f61d5407b3ab7",
    ("SL", 4): "e2cfdc73d9433c18bec53cb0b52726e6d97f036814040168ae5a23896bd7f413",
    ("SP", 2): "9cda5303cdaf69a1f9fde4b411065e98a4eaf260b9eea2c57d78520120c20381",
    ("SO", 5): "720e1d49de35f572278ff4bcfc62e5d114fe22101a44c1fca455c72c68952b95",
    ("SO", 6): "a867dc06fe2d4fe73015c0f7afbe1a85226eb44f28ec336f4a4f31c4941583c9",
    # the benchmark workloads, as recorded in perfbench/NOTES.md
    ("SL", 5): "843fe2d6251666df2111ad943f73f9110ab1f085db68d376c9bfaeb4759a7233",
    ("SP", 3): "17ddd1929f0a0e55558a31c708b3174c593dece01fd8a9c923da6cf8d2055f5f",
    ("SO", 7): "7019710245b98d71fc6cc2cffa108082714047aeaa084072e969f6485b99d972",
    # standard-tier SL size from perfbench/NOTES.md: 1024 seaweeds of one ambient
    ("SL", 6): "5dbbbe3d5a352488047dd271bf4f348a8117687979a7b55d81099ea1a3bb0c67",
    # heavy-tier sizes from perfbench/NOTES.md; both exhaust some searches
    ("SP", 4): "7dfc5f156d8f8e86cf0f4b450312ec7bef5d4a9a76d43815977b870bddd7045a",
    ("SO", 8): "5bf46e91db9f51acad2e2393e0742a8ff9552868a00c38d7983106166aaf87a4",
}


# the seed the benchmark runs at: (family, n, seed) -> digest
SEEDED_DIGESTS = {
    ("SO", 7, 23): "2f1022c22e649c8f356d0a241fe22c61a64519d32d121d6bf41ce6cd32f4b805",
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
