"""Known index defects, pinned as strict expected failures.

Each test states the behaviour the program should have.  It fails today;
when a change mends the defect, the test passes and strict xfail turns
that into a failure, so the marker must go with the mend.  Both run the
commands as a user would, at the small draw bounds where the defects
show.
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


@pytest.mark.xfail(
    strict=True,
    reason="a GL/SL pass that misses the exact meander floor writes its index and exits 0",
)
def test_an_sl5_sweep_that_misses_the_meander_floor_does_not_exit_0(capsys, tmp_path):
    out = str(tmp_path / "sl5.json")
    code = main(["classify", "--family", "SL", "--n", "5", "--bound", "1", "--embed", "--out", out])
    # today classify exits 0 with 12 records above their meander index (3,2|4,1
    # at index 2 among them), and verify refuses the report by the census rule
    assert code != 0 or main(["verify", out]) == 0
