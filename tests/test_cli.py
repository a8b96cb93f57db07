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
# Both stable forms are contact, so their certificates hold no [ker, g]
# and the text names them so; the json carries certificate schema 2.
SEARCH_OUTPUT_DIGESTS = {
    ("contact", "2,1|3", "GL", "text"): "d627a273c832ff89c7a2cd3a2f3d068a4e7100e7ae565238eeff94de10d096bd",
    ("contact", "2,1|3", "GL", "json"): "bb7ca188d5339bbc955322b6991696374b935252c0340dd27491b68e889dbfa6",
    ("stable", "2,1|3", "GL", "text"): "030de84cef5a6f7841d7625758b08f952434b47311f6c1d838970523b19335a3",
    ("stable", "2,1|3", "GL", "json"): "f5d3742359f3174022262e493c9bcb0e1c7c72e6d315b07daebae5da2d374e06",
    ("contact", "0|3", "SO", "text"): "0dd35ec6cf2ae63a89e777f8dc98fd6a0528e147a37919c66b056b044af6c725",
    ("contact", "0|3", "SO", "json"): "320cf5e5d8760d9135924a4015b3b795cde3ffd3f7e301bf50edd277a24248de",
    ("stable", "0|3", "SO", "text"): "7e201658eeca8b9dd0f43dafb05af9bd70c047c4b001a0893da6fea2d4d73d52",
    ("stable", "0|3", "SO", "json"): "7c85fe1366bd3bd755ae1a12348e9bba859bd87fa4a26540256d3f41f1aea037",
}


@pytest.mark.parametrize("command,pair,family,fmt", sorted(SEARCH_OUTPUT_DIGESTS))
def test_search_commands_print_the_pinned_bytes(capsys, command, pair, family, fmt):
    argv = [command, pair, "--family", family, "--format", fmt] + (["--n", "7"] if family == "SO" else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_OUTPUT_DIGESTS[(command, pair, family, fmt)]


# sha256 of what ``seaweeds index`` prints at the default seed, bound and
# trial count: the label, the formula index and the dimension, then the
# randomized witness, whose trials stop at the first form that reaches the
# formula: its kernel dimension, the trial count, bound and seed, and in
# json the witness form.  SP4 1,2|3,1 is the index-one seaweed that a
# sweep at --bound 2 once reported at index 3.
INDEX_OUTPUT_DIGESTS = {
    ("2,1|3", "GL", "text"): "96df16649b42d07e1719dba690f7c668329dfec0fc3ada0ffb073305c8dac37a",
    ("2,1|3", "GL", "json"): "67d29a3fa11cbfa4ad6be3718f7eb4d4ca57b8aab5ed5d165b3eabb0fefa6d2d",
    ("0|3", "SO", "text"): "b9c526647d2175022bc131592d18a62a33e932937b55e343b2c95deb26e28a8a",
    ("0|3", "SO", "json"): "daf70c0cbd06a291996c92f00f40ea21dca6236b17cfa74d8b979f8f81203da1",
    ("1,2|3,1", "SP", "text"): "3ca5c8ea3a0d607b7f5b7ecbbfb570f06095484fe9ed69f3f559e11405747b44",
    ("1,2|3,1", "SP", "json"): "eb7342f46b63298120c9180ef84ffe7da5e773e29f493e811987a0f6111cfc46",
}
INDEX_RANK = {"GL": [], "SO": ["--n", "7"], "SP": ["--n", "4"]}


@pytest.mark.parametrize("pair,family,fmt", sorted(INDEX_OUTPUT_DIGESTS))
def test_index_command_prints_the_pinned_bytes(capsys, pair, family, fmt):
    argv = ["index", pair, "--family", family, "--format", fmt] + INDEX_RANK[family]
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == INDEX_OUTPUT_DIGESTS[(pair, family, fmt)]


def test_index_command_prints_the_formula_next_to_the_witness(capsys):
    # at bound 1 and seed 8 the trials of SP4 1,2|3,1 miss the index; the
    # formula still gives it, and the witness says how far the draws got
    argv = ["index", "1,2|3,1", "--family", "SP", "--n", "4", "--bound", "1", "--seed", "8", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["index"] == 1 and doc["witness_kernel_dim"] > 1
    assert doc["samples_used"] == len(doc["trial_kernel_dims"]) == 3
    code, out, _ = run(capsys, *argv[:-2])
    assert out.startswith(f"SP8[1,2|3,1]: index 1 (dim 9); randomized witness kernel dim {doc['witness_kernel_dim']} (")


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


def test_verify_names_the_first_found_record_of_a_report_written_without_embed(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--family", "SL", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    ordinal = next(i for i, r in enumerate(doc["records"]) if "FOUND" in (r["contact"], r["stable"]))
    record = doc["records"][ordinal]
    label = f"SL4[{','.join(map(str, record['top']))}|{','.join(map(str, record['bottom']))}]"
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (1, "INVALID\n")
    assert err.count("\n") == 1 and f"record {ordinal} ({label})" in err and "--embed" in err
    # a report that carries certificates gets no such line when it fails
    code, out, _ = run(capsys, "classify", "--family", "SL", "--n", "4", "--embed")
    doc = json.loads(out)
    doc["summary"]["consistent"] += 1
    assert run(capsys, "verify", write(tmp_path, doc)) == (1, "INVALID\n", "")


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


FULL = Path("/dev/full")


@pytest.mark.skipif(not FULL.exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv,stdout", [
    (["classify", "--family", "GL", "--n", "3", "--out", "/dev/full"], None),
    (["classify", "--family", "GL", "--n", "5", "--out", "/dev/full"], None),  # fills the buffer
    (["index", "2,1|3", "--out", "/dev/full"], None),
    (["contact", "2,1|3", "--out", "/dev/full"], None),
    (["meander", "2,1|3", "--out", "/dev/full"], None),
    (["meander", "2,1|3", "--svg", "/dev/full"], None),
    (["classify", "--family", "GL", "--n", "3"], FULL),
    (["classify", "--family", "GL", "--n", "5"], FULL),
    (["meander", "2,1|3"], FULL),
])
def test_a_failed_write_exits_2_with_one_line(argv, stdout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); from seaweeds.cli import main; sys.exit(main({argv!r}))"
    with open(stdout or "/dev/null", "w") as out:
        done = subprocess.run([sys.executable, "-c", code], stdout=out, stderr=subprocess.PIPE, text=True, timeout=60)
    name = "<stdout>" if stdout else "/dev/full"
    assert (done.returncode, done.stderr) == (2, f"error: cannot write {name}: No space left on device\n")


@pytest.mark.skipif(not FULL.exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv,code", [
    (["index", "2|2", "--bound", "0"], 2),
    (["classify", "--family", "SL", "--n", "5", "--bound", "1", "--out", "/dev/null"], 0),
    (["classify", "--family", "GL", "--n", "3", "--out", "/dev/full"], 2),
    (["verify", "missing.json"], 2),
])
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"import sys; sys.path.insert(0, {src!r}); from seaweeds.cli import main; sys.exit(main({argv!r}))"
    with open(FULL, "w") as err:
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=err, timeout=60
        )
    assert done.returncode == code


class FullWriter:
    """A stream whose every write fails as a full disk does."""

    name = "<stdout>"

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_a_stdout_that_cannot_be_written_exits_2(capsys, monkeypatch, tmp_path):
    report = str(tmp_path / "r.json")
    assert run(capsys, "classify", "--family", "GL", "--n", "2", "--embed", "--out", report)[0] == 0
    for argv in (["index", "2|2"], ["meander", "2,1|3"], ["verify", report]):
        monkeypatch.setattr(sys, "stdout", FullWriter())
        code = main(argv)
        monkeypatch.undo()
        _, err = capsys.readouterr()
        assert (code, err) == (2, "error: cannot write <stdout>: No space left on device\n"), argv
