"""Exit codes and error paths of the command-line interface."""

import json

import pytest

from seaweeds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_exit_0_on_success(capsys):
    code, out, err = run(capsys, "index", "2,1|3", "--family", "GL")
    assert code == 0 and "index 1" in out and not err


def test_exit_1_when_search_comes_up_empty(capsys):
    # GL3[2,1|3] has index one, but a zero budget cannot find a contact form
    code, out, _ = run(capsys, "contact", "2,1|3", "--family", "GL", "--attempts", "0")
    assert code == 1 and "no contact form found" in out


def test_exit_3_on_unresolved_under_strict(capsys):
    args = ("classify", "--family", "SL", "--n", "3", "--attempts", "0")
    assert run(capsys, *args)[0] == 0
    assert run(capsys, *args, "--strict")[0] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--family", "GL", "--n", "9"),
        ("index", "2,x|3"),
        ("index", "3|3", "--family", "SP"),
        ("index", "--top", "2,1"),
    ],
)
def test_exit_2_on_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_2_on_non_integer_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEEDS_SEED", "abc")
    code, _, err = run(capsys, "index", "2|2")
    assert code == 2 and err == "error: SEAWEEDS_SEED must be an integer, got 'abc'\n"


def test_env_defaults_and_flags(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEEDS_SEED", "7")
    monkeypatch.setenv("SEAWEEDS_FORMAT", "json")
    _, out, _ = run(capsys, "index", "2,1|3")
    assert json.loads(out)["seed"] == 7
    _, out, _ = run(capsys, "index", "2,1|3", "--seed", "8")
    assert json.loads(out)["seed"] == 8


def test_identical_invocations_give_identical_bytes(capsys):
    args = ("classify", "--family", "SL", "--n", "3", "--embed", "--seed", "4")
    first = run(capsys, *args)
    assert first[0] == 0
    assert run(capsys, *args) == first


def write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def contact_document(capsys):
    code, out, _ = run(capsys, "contact", "2,1|3", "--family", "GL", "--format", "json")
    assert code == 0
    return json.loads(out)


def test_verify_exit_codes(capsys, tmp_path):
    doc = contact_document(capsys)
    assert run(capsys, "verify", write(tmp_path, doc)) == (0, "valid\n", "")
    doc["certificates"][0]["pairing"] = "2/1"
    assert run(capsys, "verify", write(tmp_path, doc))[:2] == (1, "INVALID\n")
    (tmp_path / "junk.json").write_text("{")
    assert run(capsys, "verify", str(tmp_path / "junk.json"))[0] == 2


def test_verify_exit_2_on_zero_denominator(capsys, tmp_path):
    doc = contact_document(capsys)
    doc["certificates"][0]["form"][0] = "1/0"
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert code == 2 and not out and "zero denominator" in err


def test_verify_exit_2_on_missing_keys(capsys, tmp_path):
    doc = contact_document(capsys)
    del doc["certificates"][0]["reeb"]
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert code == 2 and not out and "reeb" in err
    code, _, _ = run(capsys, "verify", write(tmp_path, {"algebra": {"dim": 1}, "certificates": []}))
    assert code == 2
