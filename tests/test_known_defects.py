"""Index defects that small draw bounds once showed, pinned as mended.

Before the index was a formula (``meander.index_formula``), it was the
least kernel dimension of a few random Kirillov forms: at a small
``--bound`` an SP/SO record could carry an index above its true one, which
``verify`` accepted, and a GL/SL sweep could miss its meander index.  Each
test runs the commands as a user would, at the bounds where the defects
showed, and states the behaviour the program has now.
"""

import json

import pytest

from seaweeds import Composition, index, seaweed
from seaweeds.cli import main
from seaweeds.meander import index_formula, meander, meander_index


def test_an_sp4_record_of_index_one_is_not_reported_at_index_three(capsys, tmp_path):
    g = seaweed("SP", 4, Composition((1, 2)), Composition((3, 1)))
    assert g.dim % 2 == 1 and index(g, 0, 3, 10**6, floor=1).index == 1  # a trial at the floor proves it
    out = tmp_path / "sp4.json"
    assert main(["classify", "--family", "SP", "--n", "4", "--bound", "2", "--embed", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    record = next(r for r in records if (r["top"], r["bottom"]) == ([1, 2], [3, 1]))
    # once: index 3, trial_kernel_dims [3, 3, 3], verdict CONSISTENT, and verify said valid
    assert record["index"] == 1 or main(["verify", str(out)]) == 1


def test_an_sl5_sweep_at_bound_1_carries_every_meander_index(capsys, tmp_path):
    # 12 records once lay above their meander index, 3,2|4,1 at index 2 the
    # first, and classify exited 5; the index is now the census itself
    out = tmp_path / "sl5.json"
    assert main(["classify", "--family", "SL", "--n", "5", "--bound", "1", "--embed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 256
    for r in doc["records"]:
        assert r["index"] == meander_index(meander(Composition(tuple(r["top"])), Composition(tuple(r["bottom"]))), "SL")
    assert main(["verify", str(out)]) == 0
    record = doc["records"][33]
    assert (record["top"], record["bottom"], record["index"]) == ([3, 2], [4, 1], 0)
    record["index"] = 2  # the old wrong index: statuses stay SKIPPED, the parity holds
    tampered = tmp_path / "sl5-33.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", str(tampered)]) == 1
    assert capsys.readouterr().err == ""


# (family, n) -> {(top, bottom): (index once reported at --bound 2, formula index)}
ONCE_WRONG = {
    ("SP", 4): {((1, 2), (3, 1)): (3, 1), ((1, 1, 2), (1, 2)): (3, 1)},
    ("SO", 6): {((1,), (1, 2)): (2, 0), ((1, 2), (2,)): (3, 1)},
    ("SO", 8): {
        ((2,), (2, 1)): (2, 0),
        ((2,), (1, 1, 1)): (3, 1),
        ((2, 1), (2,)): (4, 2),
        ((2, 1), (2, 2)): (5, 3),
        ((1, 2), (2,)): (2, 0),
        ((1, 1, 2), (1, 1, 1)): (5, 3),
    },
}


@pytest.mark.parametrize("family,n", sorted(ONCE_WRONG))
def test_a_bound_2_sweep_carries_the_formula_index(capsys, tmp_path, family, n):
    out = tmp_path / "b2.json"
    assert main(["classify", "--family", family, "--n", str(n), "--bound", "2", "--embed", "--out", str(out)]) == 0
    records = {(tuple(r["top"]), tuple(r["bottom"])): r for r in json.loads(out.read_text())["records"]}
    for pair, (once, formula) in ONCE_WRONG[(family, n)].items():
        assert index_formula(family, n, *map(Composition, pair)) == formula != once
        assert records[pair]["index"] == formula
    assert main(["verify", str(out)]) == 0
