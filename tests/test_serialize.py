import json
from fractions import Fraction
from pathlib import Path

import pytest
from block_reference import gln_seaweed
from fraction_reference import frac_from_str
from stock_algebras import heisenberg

from seaweeds import (
    Composition,
    certificate_to_json,
    find_contact_form,
    find_stable_form,
    is_contact_form,
    is_stable_form,
    verify_document,
)
from seaweeds.classify import REPORT_SCHEMA, classify, report
from seaweeds.cli import main
from seaweeds.contact import count_verdicts
from seaweeds.construct import seaweed
from seaweeds.lie import LieAlgebra
from seaweeds.linalg import as_int
from seaweeds.serialize import CERTIFICATE_SCHEMA, _ratio, _ratio_str, verify_certificate

F = Fraction
FIXTURES = Path(__file__).parent / "data"


def C(*parts):
    return Composition(tuple(parts))


def frac_to_str(x):
    return f"{x.numerator}/{x.denominator}"


def test_fraction_strings():
    assert _ratio_str(-3, 7) == "-3/7"
    assert _ratio_str(2, 1) == "2/1"
    assert _ratio("-3/7") == (-3, 7)
    assert _ratio("5") == (5, 1)
    assert _ratio(4) == (4, 1)
    # a negative and an unreduced denominator, read and written as Fraction reduces them
    assert _ratio("6/-4") == (F(6, -4).numerator, F(6, -4).denominator) == (-3, 2)
    assert _ratio_str(6, -4) == str(F(6, -4)) == "-3/2"


def test_contact_certificate_roundtrip():
    h = heisenberg()
    cert = is_contact_form(h, [0, 0, 1])
    doc = certificate_to_json(cert)
    assert doc["kind"] == "contact"
    assert doc["pairing"] == "1/1"
    assert verify_certificate(h, doc)


def test_contact_certificate_scaled_reeb_fails():
    h = heisenberg()
    cert = is_contact_form(h, [0, 0, 1])
    doc = certificate_to_json(cert)
    doc["reeb"] = ["0/1", "0/1", "2/1"]
    assert not verify_certificate(h, doc)


def test_stability_certificate_roundtrip_and_tamper():
    g = gln_seaweed(C(2, 1), C(3))
    cert = find_stable_form(g, seed=3)
    doc = certificate_to_json(cert)
    assert verify_certificate(g, doc)
    bad = json.loads(json.dumps(doc))
    bad["kernel"]["basis"] = bad["kernel"]["basis"][:-1] if bad["kernel"]["basis"] else [["1/1"] * g.dim]
    assert not verify_certificate(g, bad)


def certificate_document(search, family, n, top, bottom, seed=1):
    """The certificate document ``seaweeds contact`` or ``seaweeds stable``
    writes for the seaweed (family, n, top, bottom)."""
    cert = search(seaweed(family, n, C(*top), C(*bottom)), seed=seed)
    return {
        "schema": CERTIFICATE_SCHEMA,
        "family": family,
        "n": n,
        "top": list(top),
        "bottom": list(bottom),
        "certificates": [certificate_to_json(cert)],
    }


def test_verify_document_naming_its_seaweed():
    assert verify_document(certificate_document(find_contact_form, "GL", 3, [2, 1], [3]))
    assert verify_document(certificate_document(find_stable_form, "SO", 7, [], [3]))


def test_verify_refuses_a_certificate_document_of_another_schema():
    doc = certificate_document(find_contact_form, "GL", 3, [2, 1], [3])
    assert verify_document(doc)
    assert CERTIFICATE_SCHEMA == 3
    for schema in (1, 2, 99):
        doc["schema"] = schema
        with pytest.raises(ValueError, match=f"certificate schema {schema} is not 3: run contact or stable again"):
            verify_document(doc)
    del doc["schema"]
    with pytest.raises(ValueError, match="certificate schema None is not 3"):
        verify_document(doc)


def test_the_heisenberg_fixture_is_an_old_schema_and_its_certificates_hold():
    with open(FIXTURES / "heisenberg_certificates.json") as fh:
        doc = json.load(fh)
    # schema 2 embedded the algebra a certificate was checked against; the
    # Heisenberg algebra is no seaweed, so no document names it any more
    with pytest.raises(ValueError, match="certificate schema 2 is not 3: run contact or stable again"):
        verify_document(doc)
    # its stability certificate is of a contact form in the full shape, with
    # [ker, g]; the search now writes the short one, and both verify
    h = heisenberg()
    contact, full = doc["certificates"]
    short = certificate_to_json(is_stable_form(h, [0, 0, 1]))
    assert "bracket_span" not in short and short == {k: v for k, v in full.items() if k != "bracket_span"}
    assert verify_certificate(h, contact) and verify_certificate(h, full) and verify_certificate(h, short)


def test_verify_document_without_a_schema():
    with pytest.raises(ValueError, match="certificate schema None is not 3"):
        verify_document({"certificates": []})


def test_verify_report_document():
    records = classify("GL", 3, seed=5, embed_certificates=True)
    doc = json.loads(report(records, "json"))
    assert verify_document(doc)


def test_verify_report_document_tampered():
    records = classify("GL", 2, seed=5, embed_certificates=True)
    doc = json.loads(report(records, "json"))
    tampered = False
    for record in doc["records"]:
        certs = record.get("certificates") or {}
        if "contact" in certs:
            certs["contact"]["reeb"] = [f"{2 * frac_from_str(x).numerator}/{frac_from_str(x).denominator}" for x in certs["contact"]["reeb"]]
            tampered = True
            break
    assert tampered
    assert not verify_document(doc)


def test_verify_builds_one_kirillov_matrix_per_certificate_form(monkeypatch):
    # every index-one record of this sweep is FOUND/FOUND, and its two
    # certificates share one form: one B_phi per record serves both checks
    doc = json.loads(report(classify("SL", 5, seed=23, embed_certificates=True), "json"))
    found = [r for r in doc["records"] if r.get("certificates")]
    assert len(found) == 86 and all(len(r["certificates"]) == 2 for r in found)
    builds = []
    kirillov_int_rows = LieAlgebra.kirillov_int_rows
    monkeypatch.setattr(LieAlgebra, "kirillov_int_rows", lambda g, ints: builds.append(g) or kirillov_int_rows(g, ints))
    assert verify_document(doc)
    assert len(builds) == 86


def test_verify_rejects_documents_with_nothing_to_check():
    assert not verify_document({"records": []})
    doc = certificate_document(find_contact_form, "GL", 3, [2, 1], [3])
    doc["certificates"] = []
    assert not verify_document(doc)
    del doc["certificates"]
    assert not verify_document(doc)


def _recounted(doc):
    """The report with its summary recounted from its records' verdicts, as
    a sweep that gave those verdicts would write it; an edited verdict then
    meets only the rule the test is about."""
    doc["summary"] = count_verdicts(r["verdict"] for r in doc["records"])
    return doc


def _index_one_report():
    records = classify("GL", 3, seed=5, embed_certificates=True)
    doc = json.loads(report(records, "json"))
    record = next(r for r in doc["records"] if r.get("certificates"))
    return doc, record


def test_verify_rejects_found_status_without_certificate():
    for status, kind in (("contact", "contact"), ("stable", "stability")):
        doc, record = _index_one_report()
        assert record[status] == "FOUND"
        del record["certificates"][kind]
        assert not verify_document(doc)


def test_verify_rejects_certificates_on_index_other_than_one():
    # the certificates move to a record whose statuses and bookkeeping are
    # those of an index other than one, so only the index refuses them
    doc, record = _index_one_report()
    certificates = record.pop("certificates")
    record["contact"] = record["stable"] = "NOT_FOUND"
    assert verify_document(doc)
    next(r for r in doc["records"] if r["index"] != 1)["certificates"] = certificates
    assert not verify_document(doc)


def _so7_report():
    return json.loads(report(classify("SO", 7, seed=23, embed_certificates=True), "json"))


def test_verify_refuses_a_counterexample_beside_its_refuting_certificate():
    # a FOUND/FOUND record made a counterexample to contact iff stable, its
    # stability certificate kept: the certificate refutes the NOT_FOUND
    doc = _so7_report()
    record = next(r for r in doc["records"] if (r["contact"], r["stable"]) == ("FOUND", "FOUND"))
    record["stable"], record["verdict"] = "NOT_FOUND", "COUNTEREXAMPLE"
    assert not verify_document(_recounted(doc))
    del record["certificates"]["stability"]
    assert verify_document(doc)  # only the kept certificate refused it


def test_verify_refuses_a_certificate_under_the_key_of_another_kind():
    for key, other in (("contact", "stability"), ("stability", "contact")):
        doc = _so7_report()
        certs = next(r for r in doc["records"] if r.get("certificates"))["certificates"]
        certs[key] = dict(certs[other])
        assert not verify_document(doc)


def test_verify_rejects_statuses_that_disagree_with_the_index():
    doc, record = _index_one_report()
    record["contact"] = "SKIPPED"
    assert not verify_document(doc)
    doc = json.loads(report(classify("SP", 2, seed=5, embed_certificates=True), "json"))
    other = next(r for r in doc["records"] if r["index"] != 1)
    other["stable"] = "NOT_FOUND"
    assert not verify_document(doc)
    other["stable"] = "SKIPPED"
    other["verdict"] = "COUNTEREXAMPLE"
    assert not verify_document(_recounted(doc))
    other["verdict"] = "CONSISTENT"
    assert verify_document(_recounted(doc))


def test_verify_rederives_the_index_one_verdict():
    # contact FOUND and stable NOT_FOUND is a counterexample, never CONSISTENT
    doc, record = _index_one_report()
    assert verify_document(doc) and record["verdict"] == "CONSISTENT"
    record["stable"] = "NOT_FOUND"
    del record["certificates"]["stability"]
    assert not verify_document(doc)
    record["verdict"] = "COUNTEREXAMPLE"
    assert verify_document(_recounted(doc))
    # both FOUND at a full budget is CONSISTENT, not UNRESOLVED
    doc, record = _index_one_report()
    record["verdict"] = "UNRESOLVED"
    assert not verify_document(_recounted(doc))


def test_verify_rejects_found_statuses_under_a_zero_budget():
    # the budget is the sweep's, so it changes on every record at once
    doc, record = _index_one_report()
    assert (record["contact"], record["stable"]) == ("FOUND", "FOUND")
    record["verdict"] = "UNRESOLVED"
    for r in doc["records"]:
        r["attempts"] = 0
    assert not verify_document(_recounted(doc))
    # what a zero budget does report: nothing found, nothing decided
    for r in doc["records"]:
        if r["index"] == 1:
            r["contact"] = r["stable"] = "NOT_FOUND"
            r["verdict"] = "UNRESOLVED"
            del r["certificates"]
    assert verify_document(_recounted(doc))


def test_verify_rejects_a_negative_budget():
    # the budget is the sweep's, so it changes on every record at once; the
    # first record checked has a search on SL2 and none on GL3
    for family, n in (("SL", 2), ("GL", 3)):
        doc = json.loads(report(classify(family, n, seed=5, attempts=0, embed_certificates=True), "json"))
        assert verify_document(doc)
        assert (doc["records"][0]["index"] == 1) == (family == "SL")
        for record in doc["records"]:
            record["attempts"] = -1
        assert not verify_document(doc)


def test_verify_rejects_a_bound_below_one(tmp_path):
    # the bound is the sweep's, so it changes on every record and in the
    # report's budgets at once; no sweep draws forms from an empty range
    out = tmp_path / "so5.json"
    assert main(["classify", "--family", "SO", "--n", "5", "--seed", "5", "--embed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert verify_document(doc)
    for bound in (0, -5):
        doc["budgets"]["bound"] = bound
        for record in doc["records"]:
            record["bound"] = bound
        assert not verify_document(doc)


def test_verify_rejects_certificate_forms_off_the_record_bound(tmp_path):
    # the SO5 seed-5 report with the sweep's bound lowered to 2 everywhere:
    # every other claim still holds, but no search at bound 2 draws these forms
    out = tmp_path / "so5.json"
    assert main(["classify", "--family", "SO", "--n", "5", "--seed", "5", "--embed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert verify_document(doc)
    forms = [c["form"] for r in doc["records"] for c in (r.get("certificates") or {}).values()]
    assert max(abs(frac_from_str(x)) for form in forms for x in form) > 2
    doc["budgets"]["bound"] = 2
    for record in doc["records"]:
        record["bound"] = 2
    assert not verify_document(doc)


def test_verify_rejects_a_certificate_form_that_is_not_integral():
    # the form halved and its Reeb vector doubled leave two valid
    # certificates, but a search draws integer forms only
    doc = _so5_report()
    record = next(r for r in doc["records"] if len(r.get("certificates") or ()) == 2)
    certs = record["certificates"]
    assert any(frac_from_str(x).numerator % 2 for x in certs["contact"]["form"])
    for cert in certs.values():
        cert["form"] = [frac_to_str(frac_from_str(x) / 2) for x in cert["form"]]
    certs["contact"]["reeb"] = [frac_to_str(2 * frac_from_str(x)) for x in certs["contact"]["reeb"]]
    g = seaweed("SO", 5, C(*record["top"]), C(*record["bottom"]))
    assert all(verify_certificate(g, cert) for cert in certs.values())
    assert not verify_document(doc)


def test_verify_rejects_an_unknown_index_one_status():
    doc, record = _index_one_report()
    record["stable"] = "MAYBE"
    record["verdict"] = "COUNTEREXAMPLE"  # what the verdict rule gives for it
    assert not verify_document(_recounted(doc))


def test_verify_rejects_gl_sl_index_off_the_meander_census():
    for family in ("GL", "SL"):
        doc = json.loads(report(classify(family, 3, seed=5, embed_certificates=True), "json"))
        assert verify_document(doc)
        record = next(r for r in doc["records"] if r["index"] == 3 - (family == "SL"))
        # statuses stay SKIPPED, as an index other than one requires, and
        # the parity holds; only the census refuses it
        record["index"] += 2
        assert not verify_document(doc)


def test_verify_malformed_document_raises_value_error():
    doc, record = _index_one_report()
    del record["index"]
    with pytest.raises(ValueError, match="malformed document"):
        verify_document(doc)
    with pytest.raises(ValueError, match="zero denominator"):
        _ratio("1/0")


@pytest.mark.parametrize("top", [[0], [9], [1, 0, 2]])
def test_verify_refuses_a_record_naming_compositions_off_the_sweep(top):
    doc, record = _index_one_report()
    record["top"] = top
    assert verify_document(doc) is False


def test_verify_raises_on_a_record_top_that_is_not_a_list():
    doc, record = _index_one_report()
    record["top"] = 5
    with pytest.raises(ValueError, match="malformed document"):
        verify_document(doc)


@pytest.mark.parametrize("part", ["x", True, 2.0])
def test_verify_raises_on_a_record_top_part_that_is_not_an_integer(part):
    doc, record = _index_one_report()
    record["top"] = [part, *record["top"][1:]]
    with pytest.raises(ValueError, match="malformed document"):
        verify_document(doc)


@pytest.mark.parametrize("value", [True, False, 1.0, None])
def test_ratio_refuses_a_bool_a_float_or_null(value):
    with pytest.raises(TypeError, match="is not a rational"):
        _ratio(value)


@pytest.mark.parametrize("value", [True, 1.0, "1", None, F(7)])
def test_int_refuses_anything_but_an_integer(value):
    with pytest.raises(TypeError, match="not an integer"):
        as_int(value, "dim")
    assert as_int(7, "dim") == 7


def _so5_report(bound=10**6):
    return json.loads(report(classify("SO", 5, seed=5, bound=bound, embed_certificates=True), "json"))


def test_verify_rejects_a_parity_that_disagrees_with_the_dimension():
    doc = _so5_report()
    assert verify_document(doc)
    record = doc["records"][0]
    record["parity"] = {"odd": "even", "even": "odd"}[record["parity"]]
    assert not verify_document(doc)


def test_verify_rejects_an_index_of_the_other_parity():
    # index moved by one: only the formula refuses it, as the parity field
    # still names the dimension's
    doc = _so5_report()
    record = next(r for r in doc["records"] if r["index"] >= 2)
    record["index"] += 1
    assert not verify_document(doc)


@pytest.mark.parametrize("family,n", [("SP", 3), ("SO", 6), ("SO", 7)])
def test_verify_rejects_an_sp_so_index_off_its_formula_by_two(family, n):
    # the shape of the old defect: an index wrong by 2, of the right parity,
    # on a record whose statuses stay SKIPPED (above) or turn SKIPPED (below
    # one: index one moved up to three)
    doc = json.loads(report(classify(family, n, seed=5, embed_certificates=True), "json"))
    assert verify_document(doc)
    raised = next(r for r in doc["records"] if r["index"] >= 2)
    raised["index"] += 2
    assert not verify_document(doc)
    doc = json.loads(report(classify(family, n, seed=5, embed_certificates=True), "json"))
    record = next(r for r in doc["records"] if r["index"] == 1 and r["contact"] == "FOUND")
    record.update(index=3, contact="SKIPPED", stable="SKIPPED", verdict="CONSISTENT")
    del record["certificates"]
    assert not verify_document(_recounted(doc))


def test_verify_refuses_any_trial_kernel_dims():
    # no index trial is drawn, so the list is empty; a trial at the index
    # itself, which a real trial could have drawn, is refused all the same
    doc = _so5_report()
    record = doc["records"][0]
    assert all(r["trial_kernel_dims"] == [] for r in doc["records"])
    record["trial_kernel_dims"] = [record["index"]]
    assert not verify_document(doc)
    # a trial count classify refuses, on every record as the sweep budget
    doc = _so5_report()
    for record in doc["records"]:
        record["trials"] = 0
    assert not verify_document(doc)


def test_verify_refuses_a_report_of_another_schema():
    doc = _so5_report()
    assert doc["schema"] == REPORT_SCHEMA == 4
    for schema in (1, 2, 3, None):
        doc["schema"] = schema
        with pytest.raises(ValueError, match="report schema"):
            verify_document(doc)
    del doc["schema"]
    with pytest.raises(ValueError, match="report schema"):
        verify_document(doc)


def test_verify_rejects_a_dimension_off_the_named_seaweed():
    # dim raised by 2 keeps parity, index and statuses; only the seaweed the
    # record names refuses it
    doc = _so5_report()
    record = next(r for r in doc["records"] if r["index"] != 1 and not r.get("certificates"))
    assert (record["top"], record["bottom"], record["dim"], record["index"]) == ([], [], 10, 2)
    record["dim"] += 2
    assert not verify_document(doc)
    # on a record with certificates, the rebuilt seaweed's dimension decides
    doc = _so5_report()
    record = next(r for r in doc["records"] if r.get("certificates"))
    record["dim"] += 2
    assert not verify_document(doc)


def test_verify_recounts_the_summary():
    doc = _so5_report()
    assert verify_document(doc)
    doc["summary"]["consistent"] -= 1
    doc["summary"]["counterexample"] += 1
    assert not verify_document(doc)
    doc = _so5_report()
    doc["summary"]["records"] += 1
    assert not verify_document(doc)
    del doc["summary"]
    with pytest.raises(ValueError, match="malformed document"):
        verify_document(doc)


def test_verify_rejects_a_report_missing_a_record():
    doc = _so5_report()
    del doc["records"][3]
    assert not verify_document(_recounted(doc))


def test_verify_rejects_a_duplicated_record():
    doc = _so5_report()
    doc["records"].append(dict(doc["records"][3]))
    assert not verify_document(_recounted(doc))
    # in place of another record, so the count still holds
    doc = _so5_report()
    doc["records"][4] = dict(doc["records"][3])
    assert not verify_document(_recounted(doc))


def test_verify_rejects_a_record_seed_off_the_sweep_seed():
    doc = _so5_report()
    doc["records"][2]["seed"] += 1000
    assert not verify_document(doc)


def test_verify_rejects_records_with_swapped_tops():
    # both seaweeds keep their dimension and index under the swap, so only
    # the enumeration order refuses it
    doc = _so5_report()
    first, second = (
        next(r for r in doc["records"] if (r["top"], r["bottom"]) == (top, [1])) for top in ([1], [2])
    )
    first["top"], second["top"] = second["top"], first["top"]
    assert not verify_document(doc)


def test_verify_holds_the_records_to_the_sweep_the_report_names():
    records = classify("SO", 5, seed=5, embed_certificates=True)
    for key, wrong in (("family", "SP"), ("n", 6), ("seed", 6)):
        doc = json.loads(report(records, "json", meta={"family": "SO", "n": 5, "seed": 5}))
        assert verify_document(doc)
        doc[key] = wrong
        assert not verify_document(doc), key
    # records of one family under a name the sweep never writes
    doc = _so5_report()
    for record in doc["records"]:
        record["family"] = "so"
    assert not verify_document(doc)


def test_verify_counts_the_records_before_enumerating_them(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the composition pairs were enumerated")

    monkeypatch.setattr("seaweeds.serialize.composition_pairs", no_enumeration)
    doc = _so5_report()
    del doc["records"][0]
    assert not verify_document(_recounted(doc))
    # a rank whose sweep has 4^20 records
    doc = _so5_report()
    for record in doc["records"]:
        record["n"] = 41
    assert not verify_document(doc)


def _sl4_report(tmp_path):
    """The report of ``seaweeds classify --family SL --n 4 --seed 0
    --embed``, which names the sweep's budgets."""
    out = tmp_path / "sl4.json"
    assert main(["classify", "--family", "SL", "--n", "4", "--seed", "0", "--embed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert verify_document(doc)
    return doc


def test_verify_rejects_a_record_off_the_sweep_budget(tmp_path):
    # a trial count of 1 and a bound of 7 are budgets classify accepts;
    # only the sweep's budget refuses them
    doc = _sl4_report(tmp_path)
    record = doc["records"][5]
    assert record["trial_kernel_dims"] == []
    record["trials"], record["bound"] = 1, 7
    assert not verify_document(doc)


def test_verify_rejects_a_budget_changed_only_on_records_without_a_search(tmp_path):
    doc = _sl4_report(tmp_path)
    for record in doc["records"]:
        if record["index"] != 1:
            record["attempts"] = 0
    assert not verify_document(doc)


def test_verify_holds_the_records_to_the_budgets_the_report_names(tmp_path):
    doc = _sl4_report(tmp_path)
    doc["budgets"]["attempts"] = 5
    assert not verify_document(doc)
