"""The sweep's searches on index-one seaweeds: one draw stream whose first
form is the index witness, one skew elimination per drawn form, one kernel
per draw shared by the contact and stability tests, and certificates
written from integer rows exactly as the rational route writes them."""

import importlib
import json
import random
from fractions import Fraction

import fraction_reference as ref
import pytest

from seaweeds import OneForm, report, seaweed
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
    index passes of each record, the forms each test was given, in order,
    keyed by record seed, and the number of skew eliminations."""
    passes, tested, eliminations = {}, {}, [0]
    current = [None]

    def index(g, record_seed, *args, **kwargs):
        rep = lie_module.index(g, record_seed, *args, **kwargs)
        passes.setdefault(record_seed, []).append(rep)
        current[0] = record_seed
        return rep

    def recorded(kind, test):
        def wrapped(g, form, kernel=None, **kwargs):
            tested.setdefault(current[0], {}).setdefault(kind, []).append(tuple(form))
            return test(g, form, kernel, **kwargs)

        return wrapped

    eliminate = linalg_module._skew_pivots

    def counted(rows):
        eliminations[0] += 1
        return eliminate(rows)

    monkeypatch.setattr(classify_module, "index", index)
    for kind in ("is_contact_form", "is_stable_form"):
        monkeypatch.setattr(contact_module, kind, recorded(kind, getattr(contact_module, kind)))
    monkeypatch.setattr(linalg_module, "_skew_pivots", counted)
    monkeypatch.setattr(lie_module, "_skew_pivots", counted)
    records = classify_module.classify(family, n, seed=seed, bound=bound, embed_certificates=True)
    return records, passes, tested, eliminations[0]


def first_draw(record, bound):
    """The first form of the record's search stream when no witness leads it."""
    rng = random.Random(record.seed ^ classify_module._CONTACT_SALT)
    return tuple(rng.randint(-bound, bound) for _ in range(record.dim))


def check_searches(records, passes, tested, eliminations, bound):
    """Every index-one record's searches test one draw stream, led by the
    index witness when the first pass reached index one, with coordinates
    within the bound; the stream costs one elimination per form drawn
    after the witness.  Returns how many records the witness led."""
    led = 0
    drawn = sum(len(r.trial_kernel_dims) for r in records)
    for r in records:
        forms = tested.get(r.seed)
        if r.index != 1:
            assert forms is None
            continue
        contact, stable = forms["is_contact_form"], forms["is_stable_form"]
        shorter, longer = sorted((contact, stable), key=len)
        assert longer[: len(shorter)] == shorter  # one stream, in one order
        first_pass = passes[r.seed][0]
        if first_pass.index == 1:
            assert longer[0] == first_pass.witness_coords
            led += 1
        else:
            assert longer[0] == first_draw(r, bound)
        assert all(abs(c) <= bound for form in longer for c in form)
        drawn += len(longer) - (first_pass.index == 1)
    assert eliminations == drawn
    return led


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", SWEEPS)
def test_the_searches_draw_the_index_witness_first_and_share_each_kernel(monkeypatch, family, n, seed):
    records, passes, tested, eliminations = traced_sweep(monkeypatch, family, n, seed)
    index_one = [r for r in records if r.index == 1]
    assert check_searches(records, passes, tested, eliminations, 10**6) == len(index_one)
    for r in index_one:
        certs = r.certificates or {}
        if (r.contact, r.stable) == ("FOUND", "FOUND"):
            assert certs["contact"]["form"] == certs["stability"]["form"]
        g = seaweed(family, n, Composition(r.top), Composition(r.bottom))
        for kind, rational in (("contact", ref.is_contact_form), ("stability", ref.is_stable_form)):
            if kind in certs:
                form = OneForm(g, tuple(Fraction(x) for x in certs[kind]["form"]))
                assert certs[kind] == ref.certificate_json(rational(g, form))


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
        form = OneForm(g, tuple(Fraction(x) for x in cert["form"]))
        kernel = ref.kirillov_kernel(g, form)
        short = "bracket_span" not in cert
        assert short == (r.contact == "FOUND") == ref.is_contact_kernel(g, form, kernel)
        if short:
            assert ref.meets_trivially(kernel, ref.bracket_span(g, kernel))


def test_a_witness_from_the_rerun_is_not_drawn(monkeypatch):
    # at bound 1, records 6, 20 and 34 of GL4 seed 0 reach index one only in
    # the re-run at bound 100, whose witness a search at bound 1 cannot draw
    records, passes, tested, eliminations = traced_sweep(monkeypatch, "GL", 4, 0, bound=1)
    rerun = [r for r in records if r.index == 1 and passes[r.seed][0].index != 1]
    assert [records.index(r) for r in rerun] == [6, 20, 34]
    led = check_searches(records, passes, tested, eliminations, 1)
    assert led == sum(r.index == 1 for r in records) - len(rerun)


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
    _, passes, _, _ = traced_sweep(monkeypatch, family, n, 23)
    reports = [rep for reps in passes.values() for rep in reps]
    assert {type(cert).__name__ for cert in certs} == {"ContactCertificate", "StabilityCertificate"}
    held = [(cert, ()) for cert in certs] + [(rep, ("witness_steps",)) for rep in reports]
    assert any(cert.bracket_span_rows is None for cert in certs if type(cert).__name__ == "StabilityCertificate")
    for value, skipped in held:
        for name in value._fields:
            field = getattr(value, name)
            if name not in skipped and not (name == "bracket_span_rows" and field is None):
                assert all(type(x) is int for x in _leaves(field)), name
