"""Known index defects, and the mended ones that were pinned here.

Each test states the behaviour the program should have.  A defect still
open is a strict expected failure: it fails today, and when a change mends
the defect, the test passes and strict xfail turns that into a failure, so
the marker must go with the mend.  Both tests run the commands as a user
would, at the small draw bounds where the defects show.
"""

import json

import pytest

from seaweeds import Composition, index, seaweed
from seaweeds.cli import main


@pytest.mark.xfail(
    strict=True,
    reason="an SP/SO index above dim % 2 rests on agreeing trials, not on a proof, and verify accepts it",
)
def test_an_sp4_record_of_index_one_is_not_reported_at_index_three(capsys, tmp_path):
    g = seaweed("SP", 4, Composition((1, 2)), Composition((3, 1)))
    assert g.dim % 2 == 1 and index(g, 0, 3, 10**6, floor=1).index == 1  # a trial at the floor proves it
    out = tmp_path / "sp4.json"
    assert main(["classify", "--family", "SP", "--n", "4", "--bound", "2", "--embed", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    record = next(r for r in records if (r["top"], r["bottom"]) == ([1, 2], [3, 1]))
    # today: index 3, trial_kernel_dims [3, 3, 3], verdict CONSISTENT, and verify says valid
    assert record["index"] == 1 or main(["verify", str(out)]) == 1


def test_an_sl5_sweep_that_misses_the_meander_floor_does_not_exit_0(capsys, tmp_path):
    out = str(tmp_path / "sl5.json")
    code = main(["classify", "--family", "SL", "--n", "5", "--bound", "1", "--embed", "--out", out])
    # 12 records lie above their meander index, 3,2|4,1 at index 2 the first;
    # classify writes the report, names that record and exits 5, and verify
    # refuses the report by the census rule
    err = capsys.readouterr().err
    assert code == 5 and err.count("\n") == 1
    assert err.startswith("error: record 33 (SL5[3,2|4,1]) has index 2") and "12 record(s)" in err
    assert len(json.loads(open(out).read())["records"]) == 256
    assert main(["verify", out]) == 1
