"""The searches' one line refutation: after a refused first draw, a few
exact ranks on a line through it prove that no stable form exists, hence
no contact form, and the search ends there.  On the six non-contact SO7
and SO8 seaweeds it ends the sweep's search, and the contact and the
stability search run on their own, after one draw; the rational route
refuses every draw those searches would have tested, and the refutation
changes no report byte where it declines.  In a GL or SL sweep a
transpose partner runs no search, and its record is theta(X) = -X^T
applied to its partner's (``transpose_reference``), with or without the
refutation."""

import importlib
from itertools import islice

import fraction_reference as ref
import pytest
from transpose_reference import check_partners

from seaweeds import certificate_to_json, report, seaweed
from seaweeds.construct import Composition

classify_module = importlib.import_module("seaweeds.classify")
contact_module = importlib.import_module("seaweeds.contact")

# index-one records whose searches both end NOT_FOUND (and SO7 0|3, found at once)
RECORDS = {
    ("SO", 7): [((1, 2), ()), ((), (2, 1)), ((), (3,))],
    ("SO", 8): [((1, 2), ()), ((), (2, 1)), ((1, 2, 1), ()), ((), (1, 2, 1))],
}
REFUTED = [(family, n, pair) for (family, n), pairs in RECORDS.items() for pair in pairs if pair != ((), (3,))]
REFUTATIONS = ("_no_stable_form",)


def search_seed(family, n, seed, pair):
    """The seed ``classify`` gives the search of composition pair ``pair``."""
    ordinal = {(a.parts, b.parts): i for i, (a, b) in enumerate(classify_module.composition_pairs(family, n))}
    return seed ^ ordinal[pair] ^ classify_module._CONTACT_SALT


def search_streams(family, n, seed):
    """For each refuted record of the sweep, its algebra and the first 64
    draws of its search stream, as ``classify`` seeds it."""
    streams = {}
    for fam, m, (top, bottom) in REFUTED:
        if (fam, m) == (family, n):
            g = seaweed(family, n, Composition(top), Composition(bottom))
            draws = contact_module.form_draws(g, search_seed(family, n, seed, (top, bottom)), 10**6)
            streams[(top, bottom)] = g, [next(draws) for _ in range(64)]
    return streams


def search_decisions(monkeypatch, family, n, seed, route):
    """For each composition pair, its (contact, stable) statuses and the
    forms each of its two tests was given, in order, with whether each was
    certified: in the sweep (``route`` "sweep"), or in ``find_contact_form``
    and ``find_stable_form`` run on their own for each pair of ``RECORDS``
    on the seed the sweep gives it (``route`` "searches")."""
    decisions, current = {}, [None]
    build = classify_module.seaweed

    def seaweed_of(family, n, top, bottom):
        current[0] = (top.parts, bottom.parts)
        return build(family, n, top, bottom)

    def recorded(kind, test):
        def wrapped(g, form, kernel=None):
            cert = test(g, form, kernel)
            decisions.setdefault(current[0], {}).setdefault(kind, []).append((g, tuple(form), cert is not None))
            return cert

        return wrapped

    monkeypatch.setattr(classify_module, "seaweed", seaweed_of)
    for kind in ("is_contact_form", "is_stable_form"):
        monkeypatch.setattr(contact_module, kind, recorded(kind, getattr(contact_module, kind)))
    if route == "sweep":
        records = classify_module.classify(family, n, seed=seed)
        assert all(r.index == 1 for r in records if (r.top, r.bottom) in RECORDS[(family, n)])
        return {(r.top, r.bottom): (r.contact, r.stable) for r in records}, decisions
    statuses = {}
    for top, bottom in RECORDS[(family, n)]:
        g = seaweed_of(family, n, Composition(top), Composition(bottom))
        record_seed = search_seed(family, n, seed, (top, bottom))
        searches = (contact_module.find_contact_form, contact_module.find_stable_form)
        found = [search(g, record_seed) is not None for search in searches]
        statuses[(top, bottom)] = tuple("FOUND" if f else "NOT_FOUND" for f in found)
    return statuses, decisions


def check_one_draw_decided_as_the_rational_test(monkeypatch, family, n, seed, route):
    """Each refuted search of ``route`` tests one draw and certifies none,
    each search of SO7 0|3 certifies its first draw, and each tested draw
    is certified exactly when the rational test certifies it."""
    statuses, decisions = search_decisions(monkeypatch, family, n, seed, route)
    rational = {"is_contact_form": ref.is_contact_form, "is_stable_form": ref.is_stable_form}
    for pair in RECORDS[(family, n)]:
        if route == "searches":
            assert set(decisions[pair]) == set(rational)
        for kind, tested in decisions[pair].items():
            if pair == ((), (3,)):
                assert statuses[pair] == ("FOUND", "FOUND")
                assert [ok for *_, ok in tested] == [True]
            else:
                assert statuses[pair] == ("NOT_FOUND", "NOT_FOUND")
                assert len(tested) == 1
            for g, ints, certified in tested:
                assert certified == (rational[kind](g, ints) is not None), (pair, kind, ints)


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", sorted(RECORDS))
def test_each_refuted_search_tests_one_draw_and_decides_it_as_the_rational_test(monkeypatch, family, n, seed):
    # in the sweep a refuted record runs the stability search alone
    check_one_draw_decided_as_the_rational_test(monkeypatch, family, n, seed, "sweep")


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", sorted(RECORDS))
def test_each_search_on_its_own_tests_one_draw_and_decides_it_as_the_rational_test(monkeypatch, family, n, seed):
    # on their own, the contact search and the stability search each end
    # after one draw on the one refutation
    check_one_draw_decided_as_the_rational_test(monkeypatch, family, n, seed, "searches")


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", sorted(RECORDS))
def test_the_rational_test_refuses_every_draw_of_each_refuted_search(family, n, seed):
    # the exhaustion oracle: the 64 draws the parent's searches tested are
    # all refused by the rational route, so ending at the first changes no answer
    for pair, (g, draws) in search_streams(family, n, seed).items():
        for ints, _ in draws:
            kernel = ref.kirillov_kernel(g, ints)
            assert not ref.is_contact_kernel(ints, kernel), (pair, ints)
            assert not ref.meets_trivially(kernel, ref.bracket_span(g, kernel)), (pair, ints)


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n,pair", REFUTED)
def test_the_line_has_degree_one_and_the_generic_bound_refutes_too(family, n, pair, seed):
    (g, ((ints, kernel), *_)) = search_streams(family, n, seed)[pair]
    r, d = contact_module._line(g, kernel)
    assert d == 1 and kernel[0][r]
    generic = (g.dim - 1) // 2
    for name in REFUTATIONS:
        refutes = getattr(contact_module, name)
        assert refutes(g, ints, kernel, r, d)
        assert refutes(g, ints, kernel, r, generic)


def test_a_contact_seaweed_is_refuted_on_no_line():
    # SO7 0|3 is contact, so no line may refute it: take the bound-1 draws
    # whose kernel is a line on which the form vanishes (they are neither
    # contact nor stable), and the refutation declines on each
    g = seaweed("SO", 7, Composition(()), Composition((3,)))
    draws = contact_module.form_draws(g, 0, 1)
    refused = [
        (ints, kernel) for ints, kernel in islice(draws, 120)
        if len(kernel) == 1 and not contact_module.pairing(ints, kernel[0])
    ]
    assert len(refused) >= 20
    for ints, kernel in refused:
        assert contact_module.is_stable_form(g, ints, kernel) is None
        r, d = contact_module._line(g, kernel)
        for name in REFUTATIONS:
            assert not getattr(contact_module, name)(g, ints, kernel, r, d), (name, ints)


def sweep_bytes(family, n, seed, bound=10**6):
    return report(classify_module.classify(family, n, seed=seed, bound=bound, embed_certificates=True))


def checked_sweep_bytes(family, n, seed, bound):
    """``sweep_bytes``, once ``check_partners`` holds on the sweep."""
    records = classify_module.classify(family, n, seed=seed, bound=bound, embed_certificates=True)
    check_partners(family, n, records)
    return report(records)


def declining(monkeypatch):
    for name in REFUTATIONS:
        monkeypatch.setattr(contact_module, name, lambda *args: False)


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", [("SO", n) for n in (5, 6, 7, 8)] + [("SP", n) for n in (2, 3, 4)])
def test_reports_are_the_full_searches_at_the_default_bound(monkeypatch, family, n, seed):
    refuted = sweep_bytes(family, n, seed)
    declining(monkeypatch)
    assert sweep_bytes(family, n, seed) == refuted


SMALL_SWEEPS = [("GL", n) for n in (3, 4, 5)] + [("SL", n) for n in (3, 4, 5)]
SMALL_SWEEPS += [("SP", 2), ("SP", 3)] + [("SO", n) for n in (5, 6, 7)]
SMALL_BOUND_SWEEPS = [(family, n, seed, bound) for family, n in SMALL_SWEEPS for seed in (0, 5) for bound in (1, 2, 3)]


def test_reports_are_the_full_searches_at_small_bounds(monkeypatch):
    # at bounds 1-3 many first draws are refused: the refutation runs on
    # each, declines on almost all, and where it ends a search the full
    # search runs out too.  Transpose partners search nothing, so a third
    # seed keeps the count of declined refutations over 500; each partner
    # is theta of its searched record in both runs
    tried, refuted = [0], [0]
    line = contact_module._line

    def counted_line(g, kernel):
        tried[0] += 1
        return line(g, kernel)

    def counted(refutes):
        def wrapped(*args):
            proved = refutes(*args)
            refuted[0] += proved
            return proved

        return wrapped

    sweeps = SMALL_BOUND_SWEEPS + [(family, n, 7, bound) for family, n in SMALL_SWEEPS for bound in (1, 2, 3)]
    with monkeypatch.context() as patch:
        patch.setattr(contact_module, "_line", counted_line)
        for name in REFUTATIONS:
            patch.setattr(contact_module, name, counted(getattr(contact_module, name)))
        refuting = [checked_sweep_bytes(*sweep) for sweep in sweeps]
    assert tried[0] - refuted[0] >= 500 and refuted[0] > 0
    declining(monkeypatch)
    for sweep, text in zip(sweeps, refuting):
        assert checked_sweep_bytes(*sweep) == text, sweep


def test_each_record_is_what_both_searches_find_on_their_own(monkeypatch):
    # the oracle for the sweep's one search: at bounds 1-3 some stable forms
    # are not contact, and a searched record's statuses and certificates
    # are still those of the contact and the stability search run apart on
    # its seed.  A transpose partner's are theta of its searched record's,
    # [ker, g] among them at bounds 1 and 2.
    fallbacks = []
    fallback = classify_module.find_contact_form
    mapped_spans = set()

    def counted(*args):
        fallbacks.append(args)
        return fallback(*args)

    monkeypatch.setattr(classify_module, "find_contact_form", counted)
    for family, n, seed, bound in SMALL_BOUND_SWEEPS:
        records = classify_module.classify(family, n, seed=seed, bound=bound, embed_certificates=True)
        partners = check_partners(family, n, records)
        for i in partners:
            if "bracket_span" in (records[i].certificates or {}).get("stability", {}):
                mapped_spans.add(bound)
        for i, r in enumerate(records):
            if r.index != 1 or i in partners:
                continue
            g = seaweed(family, n, Composition(r.top), Composition(r.bottom))
            record_seed = r.seed ^ classify_module._CONTACT_SALT
            certs = r.certificates or {}
            for status, kind, search in (
                (r.contact, "contact", contact_module.find_contact_form),
                (r.stable, "stability", contact_module.find_stable_form),
            ):
                alone = search(g, record_seed, r.attempts, bound)
                assert status == ("NOT_FOUND" if alone is None else "FOUND"), (family, n, r.top, r.bottom)
                assert certs.get(kind) == (None if alone is None else certificate_to_json(alone))
    assert fallbacks
    assert {1, 2} <= mapped_spans


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", sorted(RECORDS))
def test_a_refuted_record_takes_one_line_and_no_contact_refutation(monkeypatch, family, n, seed):
    # no stable form proves no contact form, so each refuted record runs the
    # line once, for its one search, and no separate contact refutation
    lines, current = [], [None]
    build, line = classify_module.seaweed, contact_module._line

    def seaweed_of(family, n, top, bottom):
        current[0] = (top.parts, bottom.parts)
        return build(family, n, top, bottom)

    def counted(g, kernel):
        lines.append(current[0])
        return line(g, kernel)

    monkeypatch.setattr(classify_module, "seaweed", seaweed_of)
    monkeypatch.setattr(contact_module, "_line", counted)
    records = classify_module.classify(family, n, seed=seed)
    refuted = [(r.top, r.bottom) for r in records if r.index == 1 and r.stable == "NOT_FOUND"]
    assert sorted(lines) == sorted(refuted) == sorted(pair for fam, m, pair in REFUTED if (fam, m) == (family, n))
