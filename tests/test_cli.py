"""Exit codes and error paths of the command-line interface."""

import json
from dataclasses import replace

import pytest

from seaweeds.classify import classify, exit_status
from seaweeds.cli import main
from seaweeds.contact import COUNTEREXAMPLE, UNRESOLVED


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


def with_counterexample(records):
    return [replace(records[0], verdict=COUNTEREXAMPLE), *records[1:]]


def test_exit_status_4_on_a_counterexample():
    records = classify("GL", 3, seed=0)
    assert exit_status(records) == 0
    records = with_counterexample(records)
    assert exit_status(records) == exit_status(records, strict=True) == 4
    unresolved = replace(records[1], verdict=UNRESOLVED)
    assert exit_status([*records, unresolved], strict=True) == 4
    assert exit_status([unresolved], strict=True) == 3


def test_exit_4_on_counterexample_sweep(capsys, monkeypatch):
    def sweep(*args, **kwargs):
        return with_counterexample(classify(*args, **kwargs))

    monkeypatch.setattr("seaweeds.cli.classify", sweep)
    code, out, err = run(capsys, "classify", "--family", "GL", "--n", "2", "--format", "json")
    assert code == 4 and not err
    assert json.loads(out)["summary"]["counterexample"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--family", "GL", "--n", "9"),
        ("index", "2,x|3"),
        ("index", "3|3", "--family", "SP"),
        ("index", "--top", "2,1"),
        ("classify", "--family", "GL", "--n", "3", "--attempts", "-1"),
        ("contact", "2,1|3", "--family", "GL", "--attempts", "-5"),
        ("stable", "2,1|3", "--family", "GL", "--attempts", "-1"),
    ],
)
def test_exit_2_on_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="attempts must be nonnegative"):
        classify("GL", 2, seed=0, attempts=-1)


def test_exit_2_on_a_negative_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEEDS_ATTEMPTS", "-1")
    code, out, err = run(capsys, "classify", "--family", "GL", "--n", "3")
    assert code == 2 and not out and err == "error: attempts must be nonnegative, got -1\n"


def test_exit_2_on_non_integer_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEEDS_SEED", "abc")
    code, _, err = run(capsys, "index", "2|2")
    assert code == 2 and err == "error: SEAWEEDS_SEED must be an integer, got 'abc'\n"


def test_integer_env_default_checked_against_the_chosen_subcommand(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SEAWEEDS_SEED", "abc")
    code, out, err = run(capsys, "classify", "--family", "SL", "--n", "2")
    assert code == 2 and not out and err == "error: SEAWEEDS_SEED must be an integer, got 'abc'\n"
    # neither subcommand takes a seed, and an explicit flag wins
    code, out, err = run(capsys, "meander", "2|2")
    assert code == 0 and "gl index 2" in out and not err
    monkeypatch.delenv("SEAWEEDS_SEED")
    doc = contact_document(capsys)
    monkeypatch.setenv("SEAWEEDS_SEED", "abc")
    assert run(capsys, "verify", write(tmp_path, doc)) == (0, "valid\n", "")
    code, out, _ = run(capsys, "classify", "--family", "SL", "--n", "2", "--seed", "1")
    assert code == 0 and json.loads(out)["seed"] == 1


@pytest.mark.parametrize(
    "env,value,argv",
    [
        ("SEAWEEDS_FORMAT", "xml", ("index", "2|2")),
        ("SEAWEEDS_FORMAT", "csv", ("index", "2|2")),
        ("SEAWEEDS_FAMILY", "XX", ("index", "2|2")),
        ("SEAWEEDS_FORMAT", "xml", ("meander", "2|2")),
        ("SEAWEEDS_FORMAT", "xml", ("classify", "--family", "GL", "--n", "3")),
        ("SEAWEEDS_FAMILY", "XX", ("classify", "--n", "3")),
    ],
)
def test_exit_2_on_env_default_outside_choices(capsys, monkeypatch, env, value, argv):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the defaults were checked")

    monkeypatch.setattr("seaweeds.cli.classify", no_sweep)
    monkeypatch.setenv(env, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: {env}=") and err.count("\n") == 1


def test_env_default_checked_against_the_chosen_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEEDS_FORMAT", "csv")
    code, out, _ = run(capsys, "classify", "--family", "SL", "--n", "2")
    assert code == 0 and out.startswith("family,n,top,bottom,")
    # an explicit flag wins over a default the subcommand would refuse
    code, out, _ = run(capsys, "index", "2|2", "--format", "json")
    assert code == 0 and json.loads(out)["index"] == 2


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
