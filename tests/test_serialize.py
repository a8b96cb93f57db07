import json
from fractions import Fraction
from pathlib import Path

import pytest

from seaweeds import (
    Composition,
    OneForm,
    abelian,
    algebra_from_json,
    algebra_to_json,
    certificate_to_json,
    find_contact_form,
    find_stable_form,
    gln_seaweed,
    heisenberg,
    is_contact_form,
    verify_document,
)
from seaweeds.classify import classify, report
from seaweeds.lie import StructureError
from seaweeds.serialize import frac_from_str, frac_to_str, verify_certificate

F = Fraction
FIXTURES = Path(__file__).parent / "data"


def C(*parts):
    return Composition(tuple(parts))


def test_fraction_strings():
    assert frac_to_str(F(-3, 7)) == "-3/7"
    assert frac_to_str(F(2)) == "2/1"
    assert frac_from_str("-3/7") == F(-3, 7)
    assert frac_from_str("5") == F(5)
    assert frac_from_str(4) == F(4)


def test_algebra_roundtrip_with_realization():
    h = heisenberg()
    doc = algebra_to_json(h)
    back = algebra_from_json(doc)
    assert back.dim == h.dim
    assert back.label == h.label
    assert list(back.structure_items()) == list(h.structure_items())
    assert back.realization == h.realization


def test_algebra_roundtrip_without_realization():
    doc = algebra_to_json(abelian(4))
    doc["realization"] = None
    back = algebra_from_json(doc)
    assert back.realization is None and back.dim == 4


def test_tampered_structure_constant_fails_construction():
    g = gln_seaweed(C(2), C(2))
    doc = algebra_to_json(g)
    doc["structure"][0][3] = "2/1"  # perturb one constant
    with pytest.raises(StructureError):
        algebra_from_json(doc)


def test_contact_certificate_roundtrip():
    h = heisenberg()
    cert = is_contact_form(h, OneForm(h, (F(0), F(0), F(1))))
    doc = certificate_to_json(cert)
    assert doc["kind"] == "contact"
    assert doc["pairing"] == "1/1"
    assert verify_certificate(h, doc)


def test_contact_certificate_scaled_reeb_fails():
    h = heisenberg()
    cert = is_contact_form(h, OneForm(h, (F(0), F(0), F(1))))
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


def test_verify_document_with_embedded_algebra():
    g = gln_seaweed(C(2, 1), C(3))
    cert = find_contact_form(g, seed=1)
    doc = {
        "schema": 1,
        "algebra": algebra_to_json(g),
        "certificates": [certificate_to_json(cert)],
    }
    assert verify_document(doc)


def test_verify_document_fixture():
    with open(FIXTURES / "heisenberg_certificates.json") as fh:
        doc = json.load(fh)
    assert verify_document(doc)


def test_verify_document_without_algebra():
    with pytest.raises(ValueError, match="unknown algebra reference"):
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


def test_verify_rejects_documents_with_nothing_to_check():
    assert not verify_document({"records": []})
    h = heisenberg()
    assert not verify_document({"schema": 1, "algebra": algebra_to_json(h), "certificates": []})
    assert not verify_document({"schema": 1, "algebra": algebra_to_json(h)})


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
    doc, record = _index_one_report()
    record["index"] = 99
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
    assert not verify_document(doc)
    other["verdict"] = "CONSISTENT"
    assert verify_document(doc)


def test_verify_rederives_the_index_one_verdict():
    # contact FOUND and stable NOT_FOUND is a counterexample, never CONSISTENT
    doc, record = _index_one_report()
    assert verify_document(doc) and record["verdict"] == "CONSISTENT"
    record["stable"] = "NOT_FOUND"
    del record["certificates"]["stability"]
    assert not verify_document(doc)
    record["verdict"] = "COUNTEREXAMPLE"
    assert verify_document(doc)
    # both FOUND at a full budget is CONSISTENT, not UNRESOLVED
    doc, record = _index_one_report()
    record["verdict"] = "UNRESOLVED"
    assert not verify_document(doc)


def test_verify_rejects_found_statuses_under_a_zero_budget():
    doc, record = _index_one_report()
    assert (record["contact"], record["stable"]) == ("FOUND", "FOUND")
    record["verdict"], record["attempts"] = "UNRESOLVED", 0
    assert not verify_document(doc)
    # what a zero budget does report: nothing found, nothing decided
    record["contact"] = record["stable"] = "NOT_FOUND"
    del record["certificates"]
    assert verify_document(doc)


def test_verify_rejects_a_negative_budget():
    doc, record = _index_one_report()
    record["contact"] = record["stable"] = "NOT_FOUND"
    record["verdict"], record["attempts"] = "UNRESOLVED", -1
    del record["certificates"]
    assert not verify_document(doc)
    record["attempts"] = 0
    assert verify_document(doc)
    doc, _ = _index_one_report()
    other = next(r for r in doc["records"] if r["index"] != 1)
    other["attempts"] = -1  # also on a record with no search
    assert not verify_document(doc)


def test_verify_rejects_an_unknown_index_one_status():
    doc, record = _index_one_report()
    record["stable"] = "MAYBE"
    assert not verify_document(doc)


def test_verify_rejects_gl_sl_index_off_the_meander_census():
    for family in ("GL", "SL"):
        doc = json.loads(report(classify(family, 3, seed=5, embed_certificates=True), "json"))
        assert verify_document(doc)
        record = next(r for r in doc["records"] if r["index"] == 3 - (family == "SL"))
        record["index"] += 2  # statuses stay SKIPPED, as an index other than one requires
        assert not verify_document(doc)


def test_verify_malformed_document_raises_value_error():
    doc, record = _index_one_report()
    del record["index"]
    with pytest.raises(ValueError, match="malformed document"):
        verify_document(doc)
    with pytest.raises(ValueError, match="zero denominator"):
        frac_from_str("1/0")
