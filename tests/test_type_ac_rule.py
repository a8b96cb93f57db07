"""The paper's type-A/C statement on the default sweeps.

Type-A and type-C seaweeds are quasi-reductive (Panyushev), so an index-one
seaweed of gl(n), sl(n) or sp(2n) is contact.  With a positive budget, an
index-one GL, SL or SP record whose contact search comes back NOT_FOUND
would mean that the search failed or that the code is wrong.  This test
runs the seed-0 sweeps at the default budgets up to the sweep limits, holds
every index-one record to contact FOUND, and verifies every report.
"""

import json

import pytest

from seaweeds import classify, report
from seaweeds.classify import LIMITS
from seaweeds.contact import FOUND
from seaweeds.serialize import verify_document

SWEEPS = [("GL", n) for n in range(2, LIMITS["GL"] + 1)]
SWEEPS += [("SL", n) for n in range(2, LIMITS["SL"] + 1)]
SWEEPS += [("SP", n) for n in range(1, LIMITS["SP"] + 1)]


@pytest.mark.slow
@pytest.mark.parametrize("family,n", SWEEPS)
def test_every_index_one_type_a_or_c_record_is_contact(family, n):
    records = classify(family, n, seed=0, embed_certificates=True)
    missed = [(r.top, r.bottom) for r in records if r.index == 1 and r.contact != FOUND]
    assert not missed, missed
    assert verify_document(json.loads(report(records, "json")))
