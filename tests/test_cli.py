"""Exit codes and error paths of the command-line interface."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seaweeds.classify import classify, exit_status, report
from seaweeds.cli import main
from seaweeds.contact import COUNTEREXAMPLE, UNRESOLVED
from seaweeds.serialize import verify_document


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_exit_0_on_success(capsys):
    code, out, err = run(capsys, "index", "2,1|3", "--family", "GL")
    assert code == 0 and "index 1" in out and not err


@pytest.mark.parametrize("argv,line", [
    # GL3[2,1|3] has index one, but a zero budget cannot find a contact form
    (("contact", "2,1|3", "--family", "GL", "--attempts", "0"), "GL3[2,1|3]: no contact form found in 0 attempts"),
    # SO7[1,2|0] has index one and no stable form, so no contact form either
    (("contact", "1,2|0", "--family", "SO", "--n", "7"), "SO7[1,2|0]: no contact form found in 64 attempts"),
    (("stable", "1,2|0", "--family", "SO", "--n", "7"), "SO7[1,2|0]: no stable form found in 64 attempts"),
], ids=["zero-budget", "refuted-contact", "refuted-stable"])
def test_exit_1_when_search_comes_up_empty(capsys, argv, line):
    assert run(capsys, *argv) == (1, line + "\n", "")


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
        ("classify", "--family", "GL", "--n", "99"),
        ("classify", "--family", "GL", "--n", "8", "--force"),
        ("index", "2,x|3"),
        ("index", "3|3", "--family", "SP"),
        ("index", "--top", "2,1"),
        ("index", "2,1|3", "--top", "1", "--bot", "1"),
        ("meander", "2|2", "--top", "2"),
        ("index", "2|2", "--seed", "abc"),
        ("index", "2|2", "--format", "csv"),
        ("classify", "--family", "GL", "--n", "3", "--attempts", "-1"),
        ("contact", "2,1|3", "--family", "GL", "--attempts", "-5"),
        ("stable", "2,1|3", "--family", "GL", "--attempts", "-1"),
        ("classify", "--family", "GL"),
        ("classify", "--family", "XX", "--n", "3"),
        ("classify", "--family", "gl", "--n", "3"),
        ("classify", "--family", "GL", "--n", "2", "--format", "JSON"),
        ("frobnicate",),
        ("index", "2|2", "--frobnicate"),
        ("basis", "2,1|3"),
        ("index", "2|2", "--out", "{missing}/x.txt"),
        ("meander", "2|2", "--svg", "{missing}/x.svg"),
        ("classify", "--family", "SL", "--n", "3", "--out", "{missing}/r.json"),
        ("contact", "0|3", "--family", "SO", "--n", "7", "--bound", "0"),
        ("stable", "0|3", "--family", "SO", "--n", "7", "--bound", "-1"),
        ("stable", "8|8", "--family", "GL"),
        ("stable", "0|3", "--family", "SO", "--n", "9"),
        ("index", "8|8", "--family", "GL"),
        ("index", "0|3", "--family", "SO", "--n", "9"),
        ("meander", "0|0"),
        ("classify", "--family", "GL", "--n", "3", "--embed", "--format", "csv"),
        ("classify", "--family", "GL", "--n", "3", "--embed", "--format", "text"),
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
# and the text names them so.  The json is certificate schema 3, which
# names the seaweed (family, n, top, bottom) where schema 2 embedded its
# table and realization; its certificates are schema 2's, unchanged.
SEARCH_OUTPUT_DIGESTS = {
    ("contact", "2,1|3", "GL", "text"): "d627a273c832ff89c7a2cd3a2f3d068a4e7100e7ae565238eeff94de10d096bd",
    ("contact", "2,1|3", "GL", "json"): "b8e5803c5886d4aa5652eec6adc3c0c7d2d989ce266a8aed99c23e6b59f629f9",
    ("stable", "2,1|3", "GL", "text"): "030de84cef5a6f7841d7625758b08f952434b47311f6c1d838970523b19335a3",
    ("stable", "2,1|3", "GL", "json"): "56294bc81b8790522b1a3ddff9d2a3770f420a4acb2fef7d2af753e750c85c0e",
    ("contact", "0|3", "SO", "text"): "0dd35ec6cf2ae63a89e777f8dc98fd6a0528e147a37919c66b056b044af6c725",
    ("contact", "0|3", "SO", "json"): "22c86d5ab60fb853488e7454ac7f31dd2dcedd153d83abf3776e840247ee1ca3",
    ("stable", "0|3", "SO", "text"): "7e201658eeca8b9dd0f43dafb05af9bd70c047c4b001a0893da6fea2d4d73d52",
    ("stable", "0|3", "SO", "json"): "11d5d0c532ecec1599dd523001313fea447940bc45dbcf9b4c0d06912f4b04d3",
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
    assert code == 0 and doc["index"] == 1 and doc["witness_kernel_dim"] > 1 and doc["seed"] == 8
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


# Each former SEAWEEDS_* default, at a value its option refuses.
FORMER_ENV_DEFAULTS = {
    "SEAWEEDS_SEED": "abc",
    "SEAWEEDS_FORMAT": "xml",
    "SEAWEEDS_FAMILY": "XX",
    "SEAWEEDS_ATTEMPTS": "-1",
    "SEAWEEDS_BOUND": "0",
    "SEAWEEDS_TRIALS": "0",
}


@pytest.mark.parametrize("argv", [
    ("classify", "--family", "SL", "--n", "3", "--embed"),
    ("classify", "--family", "SL", "--n", "2", "--format", "csv"),
    ("index", "2,1|3"),
    ("contact", "2,1|3"),
    ("meander", "2,1|3"),
])
def test_the_environment_sets_no_input(capsys, monkeypatch, argv):
    for name in FORMER_ENV_DEFAULTS:
        monkeypatch.delenv(name, raising=False)
    unset = run(capsys, *argv)
    assert unset[0] == 0 and unset[1] and not unset[2]
    assert "csv" not in argv or unset[1].startswith("family,n,top,bottom,")
    for name, value in FORMER_ENV_DEFAULTS.items():
        monkeypatch.setenv(name, value)
    assert run(capsys, *argv) == unset


def test_the_former_environment_defaults_change_no_report_byte(tmp_path):
    # two fresh interpreters, as a shell runs the console script: one with
    # no SEAWEEDS_* variable, one with each at a value its option refuses
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEAWEEDS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    reports = []
    for extra in ({}, FORMER_ENV_DEFAULTS):
        out = tmp_path / f"r{len(reports)}.json"
        argv = ["classify", "--family", "GL", "--n", "5", "--embed", "--out", str(out)]
        script = f"import sys; from seaweeds.cli import main; sys.exit(main({argv!r}))"
        done = subprocess.run([sys.executable, "-c", script], env={**env, **extra}, capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and json.loads(reports[0])["records"]


def test_identical_invocations_give_identical_bytes(capsys):
    args = ("classify", "--family", "SL", "--n", "3", "--embed", "--seed", "4")
    first = run(capsys, *args)
    assert first[0] == 0 and json.loads(first[1])["seed"] == 4
    assert run(capsys, *args) == first


def test_the_api_report_is_the_cli_report(capsys):
    # ``report`` writes the header from the records: the CLI's bytes, off
    # the default seed and budgets too
    flags = ("--seed", "-5", "--attempts", "3", "--bound", "7", "--trials", "2")
    code, out, _ = run(capsys, "classify", "--family", "SO", "--n", "7", "--embed", *flags)
    records = classify("SO", 7, seed=-5, attempts=3, bound=7, trials=2, embed_certificates=True)
    assert code == 0 and out == report(records, "json")
    header = {key: value for key, value in json.loads(out).items() if key not in ("records", "summary")}
    assert header == {"schema": 4, "family": "SO", "n": 7, "seed": -5, "budgets": {"attempts": 3, "bound": 7, "trials": 2}}


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
    # not JSON, nested past the parser's recursion limit, not UTF-8
    for name, data in (("junk.json", b"{"), ("deep.json", b"[" * 200000 + b"]" * 200000), ("latin.json", b"\xff\xfe{")):
        (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, "verify", str(tmp_path / name))
        assert (code, out) == (2, "") and err.count("\n") == 1, name
        assert err.startswith("error: cannot read certificate file"), name


@pytest.mark.parametrize("family,n,name", [("SL", "4", "SL4"), ("SP", "2", "SP4")])
def test_verify_names_the_first_found_record_of_a_report_written_without_embed(capsys, tmp_path, family, n, name):
    code, out, _ = run(capsys, "classify", "--family", family, "--n", n)
    assert code == 0
    doc = json.loads(out)
    ordinal = next(i for i, r in enumerate(doc["records"]) if "FOUND" in (r["contact"], r["stable"]))
    record = doc["records"][ordinal]
    # the record's seaweed has one name, the one ``seaweeds stable`` prints
    # and the text report gives it: SP by its matrix size
    pair = "|".join(",".join(map(str, record[key])) or "0" for key in ("top", "bottom"))
    code, out, _ = run(capsys, "stable", pair, "--family", family, "--n", n)
    label = out.split(":")[0]
    assert code == 0 and label == f"{name}[{pair}]"
    code, out, _ = run(capsys, "classify", "--family", family, "--n", n, "--format", "text")
    assert code == 0 and out.splitlines()[ordinal].startswith(f"{label} dim=")
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (1, "INVALID\n")
    assert err.count("\n") == 1 and f"record {ordinal} ({label})" in err and "--embed" in err
    # a report that carries certificates gets no such line when it fails
    code, out, _ = run(capsys, "classify", "--family", family, "--n", n, "--embed")
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


# field -> (certificate kind, a setter of its first coordinate)
COORDINATE_FIELDS = {
    "form": ("contact", lambda cert, value: cert["form"].__setitem__(0, value)),
    "reeb": ("contact", lambda cert, value: cert["reeb"].__setitem__(0, value)),
    "pairing": ("contact", lambda cert, value: cert.__setitem__("pairing", value)),
    "kernel basis": ("stability", lambda cert, value: cert["kernel"]["basis"][0].__setitem__(0, value)),
    "bracket span": ("stability", lambda cert, value: cert["bracket_span"]["basis"][0].__setitem__(0, value)),
}


@pytest.mark.parametrize("value,reason", [("abc", "is not a rational"), ("1/x", "is not a rational"), ("1/0", "has a zero denominator")])
@pytest.mark.parametrize("field", sorted(COORDINATE_FIELDS))
@pytest.mark.parametrize("document", ["certificate", "report"])
def test_verify_names_the_field_of_a_coordinate_that_does_not_parse(capsys, tmp_path, document, field, value, reason):
    kind, change = COORDINATE_FIELDS[field]
    if document == "certificate":
        pair = "2,1|3" if kind == "contact" else "3|3"
        code, out, _ = run(capsys, "contact" if kind == "contact" else "stable", pair, "--family", "GL", "--format", "json")
        doc = json.loads(out)
        cert, label = doc["certificates"][0], f"GL3[{pair}]"
    else:
        # at bound 1 some stable forms are not contact, and one SO5 record's
        # [ker, g] is not 0
        code, out, _ = run(capsys, "classify", "--family", "SO", "--n", "5", "--bound", "1", "--embed")
        doc = json.loads(out)
        record = next(
            r for r in doc["records"]
            if kind in (r.get("certificates") or {}) and r["certificates"]["stability"].get("bracket_span", {}).get("basis")
        )
        cert = record["certificates"][kind]
        label = f"SO5[{','.join(map(str, record['top'])) or 0}|{','.join(map(str, record['bottom'])) or 0}]"
    assert code == 0
    change(cert, value)
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {label} {kind} {field} {value!r} {reason}\n"


def _certificate(doc, kind):
    return next(r["certificates"][kind] for r in doc["records"] if kind in (r.get("certificates") or {}))


# Each integer field (and the rational "pairing") a tamper sets, with the
# dicts of a seed-0 SO7 --embed report that hold it.
INTEGER_FIELDS = [
    ("index", lambda doc: [next(r for r in doc["records"] if r["index"] == 1)]),
    ("dim", lambda doc: doc["records"][:1]),
    ("attempts", lambda doc: [doc["budgets"], *doc["records"]]),
    ("pairing", lambda doc: [_certificate(doc, "contact")]),
    ("kernel_dim", lambda doc: [_certificate(doc, "contact")]),
    ("intersection_dim", lambda doc: [_certificate(doc, "stability")]),
]


@pytest.fixture(scope="module")
def so7_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("so7") / "r.json"
    assert main(["classify", "--family", "SO", "--n", "7", "--embed", "--out", str(path)]) == 0
    text = path.read_text()
    assert verify_document(json.loads(text)) is True
    return text


@pytest.mark.parametrize("bad", [float, bool])
@pytest.mark.parametrize("field,holders", INTEGER_FIELDS, ids=[field for field, _ in INTEGER_FIELDS])
def test_verify_exit_2_on_a_float_or_a_bool_in_an_integer_field(capsys, tmp_path, so7_report, field, holders, bad):
    # Python holds 1.0 and True equal to 1, so a float keeps the field's
    # value and so does a bool on a field that holds 0 or 1
    doc = json.loads(so7_report)
    for holder in holders(doc):
        holder[field] = bad(int(Fraction(holder[field])))
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "malformed document" in err


def _found_found(doc):
    return next(r for r in doc["records"] if "contact" in (r.get("certificates") or {}))["certificates"]


@pytest.mark.parametrize("change", [lambda v: v + ["0/1"], lambda v: v[:-1]], ids=["longer", "shorter"])
@pytest.mark.parametrize("key", ["form", "reeb"])
@pytest.mark.parametrize("kind", ["document", "report"])
def test_verify_reads_a_coordinate_list_of_the_wrong_length_as_invalid(capsys, tmp_path, so7_report, kind, key, change):
    # the document is well formed; only its claim about the named seaweed
    # is wrong, so verify reads INVALID (exit 1), not unreadable input
    doc = contact_document(capsys) if kind == "document" else json.loads(so7_report)
    cert = doc["certificates"][0] if kind == "document" else _found_found(doc)["contact"]
    cert[key] = change(cert[key])
    assert run(capsys, "verify", write(tmp_path, doc)) == (1, "INVALID\n", "")


@pytest.mark.parametrize("bad", [float, bool])
@pytest.mark.parametrize("holder", ["contact", "stability"])
def test_verify_refuses_a_float_or_a_bool_in_one_of_two_equal_forms(capsys, tmp_path, holder, bad):
    # a record's two forms are parsed once when they are equal lists of
    # strings; an int form equals one holding True for 1 or 1.0 for 1, and
    # each is still parsed, so the float or bool is refused
    doc = json.loads(run(capsys, "classify", "--family", "GL", "--n", "3", "--bound", "1", "--embed")[1])
    certs = _found_found(doc)
    ints = [int(Fraction(x)) for x in certs["contact"]["form"]]
    t = ints.index(1)
    certs["contact"]["form"], certs["stability"]["form"] = list(ints), list(ints)
    assert run(capsys, "verify", write(tmp_path, doc)) == (0, "valid\n", "")
    certs[holder]["form"][t] = bad(1)
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "malformed document" in err


# A certificate document names its seaweed, and verify rebuilds it.


def test_verify_holds_a_certificate_to_the_seaweed_its_document_names(capsys, tmp_path):
    # GL3[1,2|3] has the dimension of GL3[2,1|3] (and index one), so only
    # the rebuilt seaweed refuses the certificate
    doc = contact_document(capsys)
    doc["top"] = [1, 2]
    assert run(capsys, "verify", write(tmp_path, doc)) == (1, "INVALID\n", "")


@pytest.mark.parametrize("field,value", [("family", "E8"), ("family", "gl"), ("n", 2), ("n", 99), ("top", [2, 2])])
def test_verify_exit_2_on_a_seaweed_that_does_not_exist(capsys, tmp_path, field, value):
    doc = contact_document(capsys)
    doc[field] = value
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [True, 3.0], ids=repr)
@pytest.mark.parametrize("field", ["n", "top", "bottom"])
def test_verify_exit_2_on_a_bool_or_a_float_naming_the_seaweed(capsys, tmp_path, field, bad):
    doc = contact_document(capsys)
    if field == "n":
        doc["n"] = bad
    else:
        doc[field] = [bad if part == 1 or part == 3 else part for part in doc[field]]
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "malformed document" in err


# (kind, family, n, pair): certificate documents keep their first ids
OVER_THE_LIMITS = {
    "GL-8-pair0": ("document", "GL", 8, ([8], [8])),
    "GL-24-pair1": ("document", "GL", 24, ([24], [24])),
    "SO-9-pair2": ("document", "SO", 9, ([], [3])),
    "report-GL-8": ("report", "GL", 8, ([8], [8])),
    "report-SO-9": ("report", "SO", 9, ([], [3])),
}


@pytest.mark.parametrize("kind,family,n,pair", OVER_THE_LIMITS.values(), ids=OVER_THE_LIMITS.keys())
def test_verify_refuses_a_rank_over_the_limits_before_building(capsys, tmp_path, monkeypatch, kind, family, n, pair):
    # one limit rule for both kinds: a certificate document, and a
    # one-record report whose header names the rank
    def no_work(*args):
        raise AssertionError("the sweep was enumerated or an ambient built")

    if kind == "document":
        doc = contact_document(capsys)
        doc.update(family=family, n=n, top=pair[0], bottom=pair[1])
    else:
        doc = json.loads(run(capsys, "classify", "--family", "GL", "--n", "1", "--embed")[1])
        assert len(doc["records"]) == 1
        doc.update(family=family, n=n)
        doc["records"][0].update(family=family, n=n, top=pair[0], bottom=pair[1])
    monkeypatch.setattr("seaweeds.construct._ambient", no_work)
    monkeypatch.setattr("seaweeds.serialize.composition_pairs", no_work)
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "over the sweep limit" in err


def test_verify_refuses_an_embedded_algebra_labelled_as_a_seaweed(capsys, tmp_path):
    # the schema-2 Heisenberg document, labelled SO7[1,2|0]: schema 2 checked
    # its certificates against the embedded table and read valid, though
    # SO7[1,2|0] has dimension 13 and no contact form
    fixture = Path(__file__).parent / "data" / "heisenberg_certificates.json"
    doc = json.loads(fixture.read_text())
    doc["algebra"]["label"] = "SO7[1,2|0]"
    code, out, err = run(capsys, "verify", write(tmp_path, doc))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "run contact or stable again" in err
    # schema 3 with those certificates names the seaweed, which is rebuilt
    named = {"schema": 3, "family": "SO", "n": 7, "top": [1, 2], "bottom": [], "certificates": doc["certificates"]}
    code, out, err = run(capsys, "verify", write(tmp_path, named))
    assert (code, out, err) == (1, "INVALID\n", "")


@pytest.mark.parametrize("argv", [
    ["contact", "2,1|3"],
    ["stable", "2,1|3"],
    ["contact", "0|3", "--family", "SO", "--n", "7"],
    ["stable", "0|3,1", "--family", "SO", "--n", "8"],
    ["stable", "1|1,1", "--family", "SP", "--n", "2"],
    ["contact", "3,1|1,2,1", "--family", "SL"],
    ["stable", "0|3", "--family", "SO", "--n", "7"],
    ["stable", "3|3"],
])
def test_every_certificate_document_the_searches_write_verifies(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema", "family", "n", "top", "bottom", "certificates"]
    assert run(capsys, "verify", write(tmp_path, doc)) == (0, "valid\n", "")
    (cert,) = doc["certificates"]
    if cert["kind"] == "stability":
        # [ker, g] meets ker in 0, and only a contact line may leave [ker, g]
        # out (GL3[3|3] has index 3, so its certificate holds one)
        bad = [{**cert, "intersection_dim": 1}]
        if "bracket_span" in cert:
            bad.append({key: value for key, value in cert.items() if key != "bracket_span"})
        for tampered in bad:
            assert run(capsys, "verify", write(tmp_path, {**doc, "certificates": [tampered]})) == (1, "INVALID\n", "")


@pytest.mark.parametrize("write_args", [
    ["classify", "--family", "SO", "--n", "5", "--embed"],
    ["contact", "2,1|3", "--format", "json"],
], ids=["classify", "contact"])
def test_no_command_imports_dataclasses_or_inspect(tmp_path, write_args):
    # Each command runs in a fresh interpreter, so what the package imports
    # is paid on every start; dataclasses alone (with inspect, ast, dis and
    # tokenize behind it) once cost a fifth of the start-up.  No module
    # builds a rational value either: fractions and decimal stay unloaded.
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = str(tmp_path / "r.json")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import seaweeds.cli; seaweeds.cli.build_parser(); "
        f"assert seaweeds.cli.main({write_args + ['--out', out]!r}) == 0; "
        f"assert seaweeds.cli.main(['verify', {out!r}]) == 0; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
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
