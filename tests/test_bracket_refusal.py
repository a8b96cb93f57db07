"""The stability search's refusal on learned bracket rows: a draw is refused
when K meets the span of the rows of [K, g] that held a vector of K at the
search's last full refusal, and that refusal is exact, draw by draw,
against the rational route."""

import importlib
from fractions import Fraction

import fraction_reference as ref
import pytest

from seaweeds import Composition, OneForm, abelian, find_stable_form, is_stable_form, seaweed
from seaweeds.contact import _bracket_rows

classify_module = importlib.import_module("seaweeds.classify")
contact_module = importlib.import_module("seaweeds.contact")

# index-one records whose searches both run out (and SO7 0|3, found at once)
RECORDS = {
    ("SO", 7): [((1, 2), ()), ((), (2, 1)), ((), (3,))],
    ("SO", 8): [((1, 2), ()), ((), (2, 1)), ((1, 2, 1), ()), ((), (1, 2, 1))],
}


def stability_decisions(monkeypatch, family, n, seed):
    """The sweep's records, and for each composition pair the forms its
    stability search tested, in order, with whether each was certified."""
    decisions, current = {}, [None]
    build = classify_module.seaweed

    def seaweed_of(family, n, top, bottom):
        current[0] = (top.parts, bottom.parts)
        return build(family, n, top, bottom)

    test = contact_module.is_stable_form

    def recorded(g, form, kernel=None, **kwargs):
        assert "learned" in kwargs  # every draw of a search goes through the learned rows
        cert = test(g, form, kernel, **kwargs)
        decisions.setdefault(current[0], []).append((g, tuple(form), cert is not None))
        return cert

    monkeypatch.setattr(classify_module, "seaweed", seaweed_of)
    monkeypatch.setattr(contact_module, "is_stable_form", recorded)
    return classify_module.classify(family, n, seed=seed), decisions


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", sorted(RECORDS))
def test_each_decision_of_the_search_equals_the_rational_test(monkeypatch, family, n, seed):
    records, decisions = stability_decisions(monkeypatch, family, n, seed)
    by_pair = {(r.top, r.bottom): r for r in records}
    for pair in RECORDS[(family, n)]:
        r, tested = by_pair[pair], decisions[pair]
        assert r.index == 1
        assert len(tested) == (64 if r.stable == "NOT_FOUND" else 1 + [ok for *_, ok in tested].index(True))
        if pair != ((), (3,)):
            assert (r.contact, r.stable) == ("NOT_FOUND", "NOT_FOUND")
        for g, ints, certified in tested:
            rational = ref.is_stable_form(g, OneForm(g, tuple(map(Fraction, ints))))
            assert certified == (rational is not None), (pair, ints)


def test_zero_learned_rows_refuse_no_stable_form():
    # [K, g] = 0: the learned row [k, x_0] is zero, and a zero span meets nothing
    g = abelian(1)
    cert = is_stable_form(g, [0], learned={1: [0]})
    assert cert is not None and cert == is_stable_form(g, [0])
    assert cert.bracket_span_rows == ()


def test_dependent_learned_rows_refuse_no_stable_form():
    # gl3 at a generic form: K is a Cartan subalgebra (3 rows), [K, g] the six
    # root lines, and the form is stable without being contact
    g = seaweed("GL", 3, Composition((3,)), Composition((3,)))
    cert = find_stable_form(g, 0)
    assert cert is not None and cert.bracket_span_rows
    kernel = [list(k) for k in cert.kernel_rows]
    rows = _bracket_rows(g, kernel)
    nonzero = [i for i, row in enumerate(rows) if any(row)]
    i, j = nonzero[0], nonzero[1]
    for indices in ([i, i], [i, j, i, j], [*nonzero, *nonzero], [i, *range(len(rows))]):
        learned = {len(kernel): indices}
        assert is_stable_form(g, cert.form_row, kernel, learned=learned) == cert
        assert learned == {len(kernel): indices}  # a certificate teaches nothing


def test_the_search_eliminates_the_learned_rows_only_after_its_first_refusal(monkeypatch):
    # SO7 1,2|0 (dim 13): [k, g] has rank 7 on every draw, k lies in the span
    # of 4 of the 7 rows the first full refusal kept, and those 4 refuse all
    # 63 later draws, so the search eliminates 13 + 63 * 4 bracket rows where
    # the full test on every draw would eliminate 64 * 13 = 832
    g = seaweed("SO", 7, Composition((1, 2)), Composition(()))
    eliminated = []
    echelon = contact_module.echelon_int_rows

    def counted(rows, **kwargs):
        eliminated.append(len(rows))
        return echelon(rows, **kwargs)

    monkeypatch.setattr(contact_module, "echelon_int_rows", counted)
    assert find_stable_form(g, 23) is None
    assert eliminated == [13] + [4] * 63
    assert sum(eliminated) == 265
