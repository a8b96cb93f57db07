"""The sweep's one search on index-one seaweeds: the stability search
draws one stream, one skew elimination per drawn form (besides those of a
line refutation, which ``test_bracket_refusal.py`` covers), the contact
test takes each stable certificate's form with its kernel, no form is
drawn for any other seaweed, and certificates are written from integer
rows exactly as the rational route writes them.  In a GL or SL sweep the
transpose partner (b|a) of a searched record (a|b) draws nothing: it takes
that record's statuses and verdict, and its certificates are theta(X) =
-X^T applied to that record's (``transpose_reference``)."""

import importlib
import json
import random
from fractions import Fraction

import fraction_reference as ref
import pytest
from transpose_reference import check_partners

from seaweeds import report, seaweed
from seaweeds.construct import Composition

# the package's ``classify`` attribute is the function, not the module
classify_module = importlib.import_module("seaweeds.classify")
contact_module = importlib.import_module("seaweeds.contact")
lie_module = importlib.import_module("seaweeds.lie")
linalg_module = importlib.import_module("seaweeds.linalg")

SWEEPS = [("GL", n) for n in (2, 3, 4, 5)] + [("SL", n) for n in (2, 3, 4, 5)]
SWEEPS += [("SP", 2), ("SP", 3)] + [("SO", n) for n in (5, 6, 7)]


def traced_sweep(monkeypatch, family, n, seed, bound=10**6):
    """``classify --embed`` of one sweep, with what its searches did: the
    forms each test was given, in order, keyed by record seed, and the
    number of skew eliminations outside the line refutation (``_line``,
    ``_no_stable_form``).  The sweep calls no ``lie.index``."""
    tested, eliminations = {}, [0]
    current, refuting = [None], [False]

    def recorded(kind, test):
        def wrapped(g, form, kernel=None, **kwargs):
            tested.setdefault(current[0], {}).setdefault(kind, []).append(tuple(form))
            return test(g, form, kernel, **kwargs)

        return wrapped

    draws = contact_module.form_draws

    def seeded(g, search_seed, *args):
        current[0] = search_seed ^ classify_module._CONTACT_SALT
        return draws(g, search_seed, *args)

    eliminate = linalg_module._skew_pivots

    def counted(rows):
        eliminations[0] += not refuting[0]
        return eliminate(rows)

    def uncounted(refutation):
        def wrapped(*args):
            refuting[0] = True
            try:
                return refutation(*args)
            finally:
                refuting[0] = False

        return wrapped

    def no_index(*args, **kwargs):
        raise AssertionError("the sweep drew an index trial")

    monkeypatch.setattr(classify_module, "index", no_index)
    monkeypatch.setattr(contact_module, "form_draws", seeded)
    for kind in ("is_contact_form", "is_stable_form"):
        monkeypatch.setattr(contact_module, kind, recorded(kind, getattr(contact_module, kind)))
    monkeypatch.setattr(linalg_module, "_skew_pivots", counted)
    for name in ("_line", "_no_stable_form"):
        monkeypatch.setattr(contact_module, name, uncounted(getattr(contact_module, name)))
    records = classify_module.classify(family, n, seed=seed, bound=bound, embed_certificates=True)
    return records, tested, eliminations[0]


def first_draw(record, bound):
    """The first form of the record's search stream."""
    rng = random.Random(record.seed ^ classify_module._CONTACT_SALT)
    return tuple(rng.randint(-bound, bound) for _ in range(record.dim))


def check_searches(family, n, records, tested, eliminations, bound):
    """Every searched record's stability search tests its stream from the
    first draw on, with coordinates within the bound; the searched records
    are the index-one records but the transpose partners, which
    ``check_partners`` checks.  A stable certificate without [ker, g]
    sends its form, and that form only, to the contact test; any other
    stable certificate sends the record to the contact search, which tests
    the same stream from the first draw on; no stable form sends nothing.
    Each form drawn costs one elimination, and no other record draws a
    form.  Returns how many records fell back to the contact search, and
    the partner records' ordinals."""
    partners = check_partners(family, n, records)
    drawn = fallbacks = 0
    for i, r in enumerate(records):
        forms = tested.get(r.seed)
        if r.index != 1 or i in partners:
            assert forms is None
            continue
        stable, contact = forms["is_stable_form"], forms.get("is_contact_form", [])
        assert stable[0] == first_draw(r, bound)
        assert all(abs(c) <= bound for form in stable + contact for c in form)
        drawn += len(stable)
        cert = (r.certificates or {}).get("stability")
        if r.stable == "NOT_FOUND":
            assert cert is None and contact == []
        elif "bracket_span" not in cert:
            assert r.contact == "FOUND" and contact == [stable[-1]]
            assert tuple(Fraction(x) for x in cert["form"]) == stable[-1]
        else:
            fallbacks += 1
            shorter, longer = sorted((contact, stable), key=len)
            assert longer[: len(shorter)] == shorter  # one stream, in one order
            drawn += len(contact)
    assert eliminations == drawn
    return fallbacks, partners


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", SWEEPS)
def test_one_search_draws_one_stream_and_contact_takes_its_kernel(monkeypatch, family, n, seed):
    records, tested, eliminations = traced_sweep(monkeypatch, family, n, seed)
    index_one = [r for r in records if r.index == 1]
    assert index_one and all(r.trial_kernel_dims == () for r in records)
    # at the default bound every stable form drawn is contact: no fallback
    fallbacks, partners = check_searches(family, n, records, tested, eliminations, 10**6)
    assert fallbacks == 0
    # in a type-A sweep, half of the index-one records with top != bottom
    # are transpose partners; (a|a) is its own transpose and is searched
    unpaired = sum(r.top != r.bottom for r in index_one)
    assert len(partners) == (unpaired // 2 if family in ("GL", "SL") else 0)
    for r in index_one:
        certs = r.certificates or {}
        if (r.contact, r.stable) == ("FOUND", "FOUND"):
            assert certs["contact"]["form"] == certs["stability"]["form"]
        g = seaweed(family, n, Composition(r.top), Composition(r.bottom))
        for kind, rational in (("contact", ref.is_contact_form), ("stability", ref.is_stable_form)):
            if kind in certs:
                form = [Fraction(x) for x in certs[kind]["form"]]
                assert certs[kind] == ref.certificate_json(rational(g, form))


def test_a_small_bound_draws_within_it(monkeypatch):
    # at bound 1 each coordinate is -1, 0 or 1, and the searches still find
    # forms, some stable ones not contact, which send their records to the
    # contact search; no index trial is drawn at any bound.  Some of those
    # certificates carry [ker, g] to a transpose partner.
    records, tested, eliminations = traced_sweep(monkeypatch, "GL", 4, 0, bound=1)
    fallbacks, partners = check_searches("GL", 4, records, tested, eliminations, 1)
    assert fallbacks >= 1
    assert any("bracket_span" in (records[i].certificates or {}).get("stability", {}) for i in partners)
    assert any(r.contact == "FOUND" for r in records)


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", SWEEPS)
def test_every_contact_form_is_stable_so_no_sweep_finds_a_counterexample(family, n, seed):
    # ker B_phi = <k> with phi(k) != 0 puts [k, g] in ker phi, which misses k:
    # a stability certificate of a contact form holds no [ker, g], and the
    # rational route takes [ker, g] and confirms the trivial meet
    records = classify_module.classify(family, n, seed=seed, embed_certificates=True)
    assert all(r.verdict != "COUNTEREXAMPLE" for r in records)
    contact = [r for r in records if r.contact == "FOUND"]
    assert contact
    for r in records:
        if r.stable != "FOUND":
            continue
        g = seaweed(family, n, Composition(r.top), Composition(r.bottom))
        cert = r.certificates["stability"]
        form = [Fraction(x) for x in cert["form"]]
        kernel = ref.kirillov_kernel(g, form)
        short = "bracket_span" not in cert
        assert short == (r.contact == "FOUND") == ref.is_contact_kernel(form, kernel)
        if short:
            assert ref.meets_trivially(kernel, ref.bracket_span(g, kernel))


def test_verify_takes_one_kernel_for_a_record_whose_certificates_share_a_form(monkeypatch):
    doc = json.loads(report(classify_module.classify("SO", 5, seed=5, embed_certificates=True), "json"))
    shared = sum(
        len(r.get("certificates") or ()) == 2
        and r["certificates"]["contact"]["form"] == r["certificates"]["stability"]["form"]
        for r in doc["records"]
    )
    assert shared >= 1
    # every skew elimination, the kernels' and any rank's, goes through _skew_pivots
    linalg = importlib.import_module("seaweeds.linalg")
    original = linalg._skew_pivots
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_skew_pivots", counted)
    assert importlib.import_module("seaweeds.serialize").verify_document(doc)
    assert len(calls) == shared


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("family,n", [("SL", 4), ("SO", 7)])
def test_certificates_and_index_reports_hold_integers_only(monkeypatch, family, n):
    certs = []
    to_json = classify_module.certificate_to_json

    def recorded(cert):
        certs.append(cert)
        return to_json(cert)

    monkeypatch.setattr(classify_module, "certificate_to_json", recorded)
    records, _, _ = traced_sweep(monkeypatch, family, n, 23)
    reports = [
        lie_module.index(seaweed(family, n, Composition(r.top), Composition(r.bottom)), r.seed)
        for r in records[:16]
    ]
    assert {type(cert).__name__ for cert in certs} == {"ContactCertificate", "StabilityCertificate"}
    held = [(cert, ()) for cert in certs] + [(rep, ()) for rep in reports]
    assert any(cert.bracket_span_rows is None for cert in certs if type(cert).__name__ == "StabilityCertificate")
    for value, skipped in held:
        for name in value._fields:
            field = getattr(value, name)
            if name not in skipped and not (name == "bracket_span_rows" and field is None):
                assert all(type(x) is int for x in _leaves(field)), name
