"""The integer-row Kirillov kernels, contact and stability tests and
certificate checks against the rational reference route."""

import random
from fractions import Fraction
from math import lcm

import fraction_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweeds import Composition, Matrix, OneForm, Subspace, abelian, heisenberg, seaweed
from seaweeds.classify import composition_pairs
from seaweeds.contact import StabilityCertificate, is_contact_form, is_stable_form, pairing
from seaweeds.lie import Element, LieAlgebra, kirillov_kernel
from seaweeds.linalg import echelon_int_rows, kernel_int_rows, skew_kernel_int_rows, span_int_rows
from seaweeds.serialize import _int_row, _ratio, certificate_to_json, verify_certificate

F = Fraction
frac_from_str = ref.frac_from_str


def frac_to_str(x):
    return f"{x.numerator}/{x.denominator}"


FAMILIES = [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3), ("SL", 4)]
FAMILIES += [("SP", 1), ("SP", 2)] + [("SO", n) for n in (3, 4, 5, 6)]
SEAWEEDS = [seaweed(f, n, a, b) for f, n in FAMILIES for a, b in composition_pairs(f, n)]


def halved(g):
    """The same algebra in the basis x_i / 2: [y_i, y_j] = sum_r (c_ijr / 2) y_r,
    realized by X_i / 2."""
    structure = {}
    for i, j, r, c in g.structure_items():
        structure.setdefault((i, j), {})[r] = F(c, 2)
    mats = tuple(m.scale(F(1, 2)) for m in g.realization)
    return LieAlgebra(g.dim, structure, realization=mats, label="halved")


RESCALED = [h for h in map(halved, SEAWEEDS[:21]) if not h._integral]  # GL1-3
ALGEBRAS = SEAWEEDS + RESCALED + [heisenberg(), abelian(3)]

scalars = st.one_of(
    st.integers(-2, 2),
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
)


@st.composite
def algebras_with_forms(draw):
    g = draw(st.sampled_from(ALGEBRAS))
    coords = draw(st.lists(scalars, min_size=g.dim, max_size=g.dim))
    return g, OneForm(g, tuple(F(c) for c in coords))


def bases(doc):
    """The keys of the bases a stability certificate holds: the kernel, and
    [ker, g] unless the certificate is of a contact form."""
    return [key for key in ("kernel", "bracket_span") if key in doc]


def bumped(data, pos):
    """A copy of a JSON coordinate list with entry pos increased by one."""
    out = list(data)
    out[pos] = frac_to_str(frac_from_str(out[pos]) + 1)
    return out


def test_rescaled_algebras_are_non_integral():
    assert len(RESCALED) >= 15


@settings(max_examples=400, deadline=None)
@given(algebras_with_forms())
def test_integer_route_issues_the_rational_certificates(case):
    g, form = case
    kernel = ref.kirillov_kernel(g, form)
    assert kirillov_kernel(g, form) == kernel
    pairs = [(is_stable_form(g, form), ref.is_stable_form(g, form))]
    if g.dim % 2:
        pairs.append((is_contact_form(g, form), ref.is_contact_form(g, form)))
    for new, old in pairs:
        assert ref.matches(new, old)


@settings(max_examples=300, deadline=None)
@given(algebras_with_forms(), st.data())
def test_verify_accepts_certificates_and_refuses_changed_ones(case, data):
    g, form = case
    docs = []
    if g.dim % 2:
        cert = is_contact_form(g, form)
        if cert is not None:
            docs.append(certificate_to_json(cert))
    cert = is_stable_form(g, form)
    if cert is not None:
        docs.append(certificate_to_json(cert))
    if g.dim % 2:
        # a normalized kernel vector of a form whose kernel is not a line
        kernel = ref.kirillov_kernel(g, form)
        for k in kernel.basis if kernel.dim > 1 else ():
            pairing = form(Element(g, k))
            if pairing:
                reeb = Element(g, tuple(x / pairing for x in k))
                forged = ref.certificate_json(ref.ContactReference(form, reeb, 1, F(1)))
                assert not verify_certificate(g, forged) and not ref.verify_certificate(g, forged)
    index = st.integers(0, g.dim - 1)
    for doc in docs:
        assert verify_certificate(g, doc) and ref.verify_certificate(g, doc)
        refused, judged = [], []  # changes that must fail; changes the reference judges
        if doc["kind"] == "contact":
            refused.append({**doc, "reeb": bumped(doc["reeb"], data.draw(index))})
            # the pairing with the Reeb vector moves off 1
            support = [i for i, x in enumerate(doc["reeb"]) if frac_from_str(x)]
            refused.append({**doc, "form": bumped(doc["form"], data.draw(st.sampled_from(support)))})
        else:
            for key in bases(doc):
                basis = doc[key]["basis"]
                if basis:
                    r, j = data.draw(st.integers(0, len(basis) - 1)), data.draw(index)
                    rows = [bumped(row, j) if pos == r else row for pos, row in enumerate(basis)]
                    refused.append({**doc, key: {**doc[key], "basis": rows}})
            # a form moved along a coordinate that [ker, g] reaches no longer
            # kills the whole kernel; other moves may leave a valid certificate
            reached = [i for i in range(g.dim)
                       if any(frac_from_str(row[i]) for row in doc.get("bracket_span", {"basis": ()})["basis"])]
            if reached:
                refused.append({**doc, "form": bumped(doc["form"], data.draw(st.sampled_from(reached)))})
            if g.dim:
                judged.append({**doc, "form": bumped(doc["form"], data.draw(index))})
        for bad in refused:
            assert not verify_certificate(g, bad) and not ref.verify_certificate(g, bad)
        for other in judged:
            assert verify_certificate(g, other) == ref.verify_certificate(g, other)


@pytest.mark.parametrize("top,bottom,stable", [
    ((), (2, 1), False),  # both searches run out on these two
    ((1, 2), (), False),
    ((), (3,), True),
], ids=["0|2,1", "1,2|0", "0|3"])
def test_so7_stability_decision_matches_the_rational_route(top, bottom, stable):
    g = seaweed("SO", 7, Composition(top), Composition(bottom))
    rng = random.Random(7)
    for _ in range(8):
        form = OneForm(g, tuple(F(rng.randint(-10**6, 10**6)) for _ in range(g.dim)))
        cert = is_stable_form(g, form)
        assert (cert is not None) == stable
        assert ref.matches(cert, ref.is_stable_form(g, form))


def check_kernel(rows, n):
    out = kernel_int_rows(rows, n)
    m = Matrix.from_rows(rows) if rows else None
    for v in out:
        pivot = next(x for x in v if x)
        assert pivot > 0
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    if m is not None:
        assert Subspace.from_int_rows(n, out) == ref.nullspace(m)
    return out


def test_kernel_int_rows_special_matrices():
    assert check_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert check_kernel([[0, 0, 0], [0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert check_kernel([[2, 1], [1, 1]], 2) == []
    assert check_kernel([[0, 0, 0], [1, 1, 0], [0, 2, 4]], 3) == [[2, -2, 1]]
    assert check_kernel([[2, 4, 6]], 3) == [[3, 0, -1], [0, 3, -2]]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=6)
))
def test_kernel_int_rows_matches_nullspace(rows):
    check_kernel(rows, len(rows[0]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=6)
))
def test_echelon_int_rows_is_an_echelon_basis_of_the_row_space(rows):
    echelon, canonical = echelon_int_rows(rows), span_int_rows(rows)
    assert len(echelon) == len(canonical)  # the rank, from the reduced form
    leads = [next(k for k, v in enumerate(row) if v) for row in echelon]
    assert all(a < b for a, b in zip(leads, leads[1:]))
    assert span_int_rows(echelon) == canonical


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=8)
))
def test_the_rows_echelon_int_rows_reports_are_a_basis_of_the_row_space(rows):
    echelon, indices = echelon_int_rows(rows, sources=True)
    assert echelon == echelon_int_rows(rows)
    assert len(set(indices)) == len(indices) and all(0 <= i < len(rows) for i in indices)
    kept = [rows[i] for i in indices]
    assert len(echelon_int_rows(kept)) == len(kept)  # independent
    assert span_int_rows(kept) == span_int_rows(rows)  # spanning


def _certificate_cases():
    """(algebra, certificate document) for a small random form on every
    seaweed of SEAWEEDS, and on the non-integral rescaled ones."""
    rng = random.Random(1)
    cases = []
    for g in SEAWEEDS + RESCALED:
        form = OneForm(g, tuple(F(rng.randint(-3, 3)) for _ in range(g.dim)))
        certs = [is_stable_form(g, form)] + ([is_contact_form(g, form)] if g.dim % 2 else [])
        cases += [(g, certificate_to_json(c)) for c in certs if c is not None]
    return cases


CERTIFICATES = _certificate_cases()
STABILITY = [(g, doc) for g, doc in CERTIFICATES if doc["kind"] == "stability"]
CONTACT = [(g, doc) for g, doc in CERTIFICATES if doc["kind"] == "contact"]


def both_verdicts(g, doc):
    return verify_certificate(g, doc), ref.verify_certificate(g, doc)


def with_basis(doc, key, basis):
    return {**doc, key: {**doc[key], "basis": basis}}


def test_certificate_cases_cover_both_kinds():
    assert len(STABILITY) >= 100 and len(CONTACT) >= 20
    # a stability certificate of a contact form holds no [ker, g]
    short = sum("bracket_span" not in doc for _, doc in STABILITY)
    assert short == len(CONTACT) and len(STABILITY) - short >= 100


def test_verify_refuses_a_canonical_row_scaled_by_two():
    # with an even lcm of denominators, 2 * row clears to the same integer
    # row as the canonical one; only its leading entry 2 tells them apart
    even = 0
    for g, doc in STABILITY:
        for key in bases(doc):
            basis = doc[key]["basis"]
            for pos, row in enumerate(basis):
                values = [frac_from_str(x) for x in row]
                even += lcm(*(x.denominator for x in values)) % 2 == 0
                doubled = [frac_to_str(2 * x) for x in values]
                bad = with_basis(doc, key, basis[:pos] + [doubled] + basis[pos + 1:])
                assert both_verdicts(g, bad) == (False, False)
    assert even >= 10


def unreduced(s, factor):
    """The same rational as "num/den" with both terms times factor."""
    x = frac_from_str(s)
    return f"{factor * x.numerator}/{factor * x.denominator}"


def rewritten(doc, factor):
    """A certificate with every rational string rewritten by ``unreduced``."""
    out = {}
    for key, value in doc.items():
        if key in ("form", "reeb"):
            value = [unreduced(x, factor) for x in value]
        elif key == "pairing":
            value = unreduced(value, factor)
        elif key in ("kernel", "bracket_span"):
            value = {**value, "basis": [[unreduced(x, factor) for x in row] for row in value["basis"]]}
        out[key] = value
    return out


@pytest.mark.parametrize("factor", [2, -1, -2], ids=["2/4", "1/-2", "-2/-4"])
def test_verify_reads_unreduced_strings_as_the_reference_does(factor):
    for g, doc in CERTIFICATES:
        assert both_verdicts(g, rewritten(doc, factor)) == (True, True)
    # a doubled row written with unreduced terms is still refused
    g, doc = next((g, d) for g, d in STABILITY if d["kernel"]["basis"])
    row = doc["kernel"]["basis"][0]
    doubled = [unreduced(frac_to_str(2 * frac_from_str(x)), factor) for x in row]
    bad = with_basis(doc, "kernel", [doubled] + doc["kernel"]["basis"][1:])
    assert both_verdicts(g, bad) == (False, False)


def test_verify_on_rows_and_forms_of_the_wrong_length():
    for g, doc in STABILITY[:40]:
        for key in bases(doc):
            basis = doc[key]["basis"]
            if basis:
                for row in (basis[0] + ["0/1"], basis[0][:-1]):
                    assert both_verdicts(g, with_basis(doc, key, [row] + basis[1:])) == (False, False)
        for form in (doc["form"] + ["0/1"], doc["form"][:-1]):
            for verify in (verify_certificate, ref.verify_certificate):
                with pytest.raises(ValueError, match="coordinate length"):
                    verify(g, {**doc, "form": form})
    for g, doc in CONTACT[:20]:
        for key in ("form", "reeb"):
            for coords in (doc[key] + ["0/1"], doc[key][:-1]):
                for verify in (verify_certificate, ref.verify_certificate):
                    with pytest.raises(ValueError, match="coordinate length"):
                        verify(g, {**doc, key: coords})


def test_verify_raises_on_a_zero_denominator():
    g, doc = next((g, d) for g, d in STABILITY if d["kernel"]["basis"] and d.get("bracket_span", {}).get("basis"))
    bad = [{**doc, "form": ["1/0"] + doc["form"][1:]}]
    for key in bases(doc):
        basis = doc[key]["basis"]
        bad.append(with_basis(doc, key, basis[:-1] + [basis[-1][:-1] + ["0/0"]]))
    bad.append({**bad[-1], "intersection_dim": 1})  # parsed before any check
    g_contact, contact = CONTACT[0]
    cases = [(g, d) for d in bad] + [
        (g_contact, {**contact, "reeb": contact["reeb"][:-1] + ["3/0"]}),
        (g_contact, {**contact, "pairing": "1/0"}),
    ]
    for h, d in cases:
        for verify in (verify_certificate, ref.verify_certificate):
            with pytest.raises(ValueError, match="zero denominator"):
                verify(h, d)


nonzero = st.integers(-60, 60).filter(bool) | st.integers(-10**9, 10**9).filter(bool)
# (JSON rational, its value), the value made from the same integers by Fraction
rationals = st.one_of(
    st.integers(-10**6, 10**6).map(lambda n: (n, F(n))),
    st.integers(-10**6, 10**6).map(lambda n: (str(n), F(n))),
    st.builds(lambda n, d: (f"{n}/{d}", F(n, d)), st.integers(-10**6, 10**6), nonzero),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(rationals, max_size=8))
def test_integer_parse_agrees_with_frac_from_str(cases):
    data, values = [s for s, _ in cases], [x for _, x in cases]
    assert [frac_from_str(s) for s in data] == values
    assert [_ratio(s) for s in data] == [(x.numerator, x.denominator) for x in values]
    row, den = _int_row(data)
    assert den == lcm(*(x.denominator for x in values))
    assert [F(v, den) for v in row] == values


# The rules of a stability certificate of a contact form, which holds its
# kernel line and no [ker, g]: each tamper below breaks exactly one.


def short_certificate(g, ints):
    """The certificate ``is_stable_form`` issues for a contact form, as JSON."""
    doc = certificate_to_json(is_stable_form(g, ints))
    assert "bracket_span" not in doc and verify_certificate(g, doc) and ref.verify_certificate(g, doc)
    return doc


SO7_CONTACT = seaweed("SO", 7, Composition(()), Composition((3,)))


def so7_short_certificate():
    rng = random.Random(3)
    return short_certificate(SO7_CONTACT, [rng.randint(-9, 9) for _ in range(SO7_CONTACT.dim)])


def test_a_short_certificate_with_a_changed_kernel_row_is_refused():
    doc = so7_short_certificate()
    (row,) = doc["kernel"]["basis"]
    for j in range(len(row)):
        assert both_verdicts(SO7_CONTACT, with_basis(doc, "kernel", [bumped(row, j)])) == (False, False)


def test_a_short_certificate_of_a_form_whose_kernel_is_not_a_line_is_refused():
    # gl3 has index 3; this form is stable, with [ker, g] of dimension 6
    g = seaweed("GL", 3, Composition((3,)), Composition((3,)))
    doc = certificate_to_json(is_stable_form(g, [-5, 9, -7, -1, -6, 6, 5, 6, 3]))
    assert len(doc["kernel"]["basis"]) == 3 and len(doc["bracket_span"]["basis"]) == 6
    assert both_verdicts(g, doc) == (True, True)
    short = {key: value for key, value in doc.items() if key != "bracket_span"}
    assert both_verdicts(g, short) == (False, False)


def test_a_short_certificate_with_intersection_dim_1_is_refused():
    doc = so7_short_certificate()
    assert both_verdicts(SO7_CONTACT, {**doc, "intersection_dim": 1}) == (False, False)


def test_a_short_certificate_of_a_form_that_vanishes_on_its_kernel_line_is_refused():
    # every regular form of SO7 0|2,1 kills its kernel line and none is stable
    g = seaweed("SO", 7, Composition(()), Composition((2, 1)))
    rng = random.Random(1)
    ints = [rng.randint(-9, 9) for _ in range(g.dim)]
    (k,) = skew_kernel_int_rows(g.kirillov_int_rows(ints))
    assert pairing(ints, k) == 0 and is_stable_form(g, ints) is None
    forged = certificate_to_json(StabilityCertificate(tuple(ints), 1, (tuple(k),), None))
    assert both_verdicts(g, forged) == (False, False)



# The rules of a contact certificate, checked on the kernel line that
# verify takes once per form: each tamper below breaks exactly one.


def test_a_contact_certificate_whose_reeb_leaves_the_kernel_line_is_refused():
    # in dimension 1 the kernel line is the whole algebra
    cases = [(g, doc) for g, doc in CONTACT if g.dim > 1]
    assert len(cases) >= 20
    for g, doc in cases:
        # reeb + form[j] e_i - form[i] e_j: the form kills the (nonzero) move,
        # so the pairing stays 1, and misses the kernel line
        form = [frac_from_str(x) for x in doc["form"]]
        j = next(t for t, x in enumerate(form) if x)
        i = (j + 1) % g.dim
        reeb = [frac_from_str(x) for x in doc["reeb"]]
        reeb[i] += form[j]
        reeb[j] -= form[i]
        assert sum(x * y for x, y in zip(form, reeb)) == 1
        assert both_verdicts(g, {**doc, "reeb": [frac_to_str(x) for x in reeb]}) == (False, False)


def test_a_contact_certificate_whose_reeb_pairs_off_1_is_refused():
    for g, doc in CONTACT:
        for factor in (2, -1, F(1, 3)):
            rescaled = [frac_to_str(factor * frac_from_str(x)) for x in doc["reeb"]]
            assert both_verdicts(g, {**doc, "reeb": rescaled}) == (False, False)


def test_a_contact_certificate_of_a_form_with_a_3_dim_kernel_is_refused():
    # gl3 has index 3; reeb is a kernel vector of this form, normalized to
    # pair to 1, so only the line rule fails
    g = seaweed("GL", 3, Composition((3,)), Composition((3,)))
    form = OneForm(g, tuple(F(x) for x in (-5, 9, -7, -1, -6, 6, 5, 6, 3)))
    kernel = ref.kirillov_kernel(g, form)
    assert kernel.dim == 3
    k = next(k for k in kernel.basis if form(Element(g, k)))
    reeb = Element(g, tuple(x / form(Element(g, k)) for x in k))
    forged = ref.certificate_json(ref.ContactReference(form, reeb, 1, F(1)))
    assert both_verdicts(g, forged) == (False, False)
