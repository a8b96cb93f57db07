"""Exit codes and error paths of the command-line interface."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

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
    return [records[0]._replace(verdict=COUNTEREXAMPLE), *records[1:]]


def test_exit_status_4_on_a_counterexample():
    records = classify("GL", 3, seed=0)
    assert exit_status(records) == 0
    records = with_counterexample(records)
    assert exit_status(records) == exit_status(records, strict=True) == 4
    unresolved = records[1]._replace(verdict=UNRESOLVED)
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
        ("classify", "--family", "GL"),
        ("classify", "--family", "XX", "--n", "3"),
        ("frobnicate",),
        ("index", "2|2", "--frobnicate"),
        ("basis", "2,1|3"),
        ("index", "2|2", "--out", "{missing}/x.txt"),
        ("meander", "2|2", "--svg", "{missing}/x.svg"),
        ("classify", "--family", "SL", "--n", "3", "--out", "{missing}/r.json"),
        ("contact", "0|3", "--family", "SO", "--n", "7", "--bound", "0"),
        ("stable", "0|3", "--family", "SO", "--n", "7", "--bound", "-1"),
        ("meander", "0|0"),
    ],
)
def test_exit_2_on_bad_input(capsys, tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_meander_refuses_the_empty_pair_as_index_does(capsys):
    for command in ("meander", "index"):
        assert run(capsys, command, "0|0") == (2, "", "error: rank must be at least 1\n")


# sha256 of what ``seaweeds contact`` and ``seaweeds stable`` print at the
# default seed, bound and budget, pinned when the searches still drew their
# own forms: a search on its own tests the same draws in the same order.
SEARCH_OUTPUT_DIGESTS = {
    ("contact", "2,1|3", "GL", "text"): "d627a273c832ff89c7a2cd3a2f3d068a4e7100e7ae565238eeff94de10d096bd",
    ("contact", "2,1|3", "GL", "json"): "adab457eb26d994f042e32cbf7364dadb397a6d547d2a35d9d2e384a3b270173",
    ("stable", "2,1|3", "GL", "text"): "2d7e4424c3132fde5c6e300ca8e5f43ba88776c1ff2ac3489115360a94a006ec",
    ("stable", "2,1|3", "GL", "json"): "18d43c2d5a3afee23da5b6998844fe1a57ef32d7d06b227dc62e95f33fb78cfc",
    ("contact", "0|3", "SO", "text"): "0dd35ec6cf2ae63a89e777f8dc98fd6a0528e147a37919c66b056b044af6c725",
    ("contact", "0|3", "SO", "json"): "4ec97216b53f1b4df5c763429350fc64954a3b36541176e70d7f74d12ecf8c9c",
    ("stable", "0|3", "SO", "text"): "dd646f4ffb44265358f02d898e06d4c56a8845a47f5e2e34089a74272af1ce46",
    ("stable", "0|3", "SO", "json"): "694bccf5489a38d1f3844916b59cd985faf77d2377646502b014353894d572cd",
}


@pytest.mark.parametrize("command,pair,family,fmt", sorted(SEARCH_OUTPUT_DIGESTS))
def test_search_commands_print_the_pinned_bytes(capsys, command, pair, family, fmt):
    argv = [command, pair, "--family", family, "--format", fmt] + (["--n", "7"] if family == "SO" else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_OUTPUT_DIGESTS[(command, pair, family, fmt)]


# sha256 of what ``seaweeds index`` prints at the default seed, bound and
# trial count: the label, the witness form, the trial count and the seed.
INDEX_OUTPUT_DIGESTS = {
    ("2,1|3", "GL", "text"): "48ea1b4d9d70267328bc209faa76f014538db9059c2a6b719d263bbbd3ba6a79",
    ("2,1|3", "GL", "json"): "0c0fe89b7899185e91eb91e5924e01f85386120f130077eb7c59dc11fe1f7c3e",
    ("0|3", "SO", "text"): "deef4b3b34538cc4ebebe0f12d61e20ec3b7c0de287ad2aefff675cd06d8f57c",
    ("0|3", "SO", "json"): "62dbdb25b7b0418a55a0a8fe3f2fa1a5e0211c5cd0e7495229b34e284acd2507",
}


@pytest.mark.parametrize("pair,family,fmt", sorted(INDEX_OUTPUT_DIGESTS))
def test_index_command_prints_the_pinned_bytes(capsys, pair, family, fmt):
    argv = ["index", pair, "--family", family, "--format", fmt] + (["--n", "7"] if family == "SO" else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == INDEX_OUTPUT_DIGESTS[(pair, family, fmt)]


def test_an_unwritable_out_path_is_refused_before_the_sweep(capsys, monkeypatch, tmp_path):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr("seaweeds.cli.classify", no_sweep)
    out = str(tmp_path / "missing" / "r.json")
    code, _, err = run(capsys, "classify", "--family", "SL", "--n", "3", "--out", out)
    assert code == 2 and err == f"error: cannot write {out}: No such file or directory\n"


def test_out_and_svg_files_receive_the_output(capsys, tmp_path):
    out, svg = tmp_path / "m.txt", tmp_path / "m.svg"
    assert run(capsys, "meander", "2|2", "--out", str(out), "--svg", str(svg)) == (0, "", "")
    assert "gl index 2" in out.read_text() and svg.read_text().startswith("<svg ")


def test_classify_refuses_a_negative_budget(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the budget was checked")

    # the package's ``classify`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("seaweeds.classify"), "composition_pairs", no_sweep)
    with pytest.raises(ValueError, match="attempts must be nonnegative"):
        classify("GL", 2, seed=0, attempts=-1)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            classify("GL", 2, seed=0, bound=bound)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        classify("GL", 2, seed=0, trials=0)


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


def test_verify_exit_2_on_a_zero_denominator_in_a_report(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--family", "GL", "--n", "3", "--embed", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    record = next(r for r in doc["records"] if r.get("certificates"))
    record["certificates"]["stability"]["kernel"]["basis"][0][-1] = "1/0"
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert code == 2 and not out and "zero denominator" in err


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    # Each command runs in a fresh interpreter, so what the package imports
    # is paid on every start; dataclasses alone (with inspect, ast, dis and
    # tokenize behind it) once cost a fifth of the start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = str(tmp_path / "r.json")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import seaweeds.cli; seaweeds.cli.build_parser(); "
        f"assert seaweeds.cli.main(['classify', '--family', 'SO', '--n', '5', '--embed', '--out', {out!r}]) == 0; "
        f"assert seaweeds.cli.main(['verify', {out!r}]) == 0; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, ["[]"]), done.stderr
