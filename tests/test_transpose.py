"""theta(X) = -X^T on the GL and SL ambients, and the sweep's one search
per transpose pair: a record (b|a) whose partner (a|b) was searched
earlier in the sweep takes theta of that record's certificates, and no
other record is mapped."""

import importlib
import json

import pytest

from seaweeds.cli import main
from seaweeds.construct import LIMITS, Composition, _kept_elements, composition_pairs, seaweed, transpose_map
from seaweeds.lie import StructureError

classify_module = importlib.import_module("seaweeds.classify")
construct = importlib.import_module("seaweeds.construct")

AMBIENTS = [("GL", n) for n in range(1, LIMITS["GL"] + 1)] + [("SL", n) for n in range(2, LIMITS["SL"] + 1)]


def negated_transpose(m):
    return tuple(tuple(-m[v][u] for v in range(len(m))) for u in range(len(m)))


def scaled(m, s):
    return tuple(tuple(s * x for x in row) for row in m)


@pytest.mark.parametrize("family,n", AMBIENTS)
def test_theta_is_a_signed_involution_of_the_ambient_basis(family, n):
    perm, signs = construct._transpose(family, n)
    mats = construct._ambient(family, n)[0].realization
    assert sorted(perm) == list(range(len(mats)))
    assert set(signs) <= {1, -1}
    for k, m in enumerate(mats):
        assert negated_transpose(m) == scaled(mats[perm[k]], signs[k]), k
        assert perm[perm[k]] == k and signs[k] * signs[perm[k]] == 1


@pytest.mark.slow
@pytest.mark.parametrize("family,n", AMBIENTS)
def test_pi_maps_the_kept_elements_of_each_pair_onto_its_transposes(family, n):
    perm, signs = construct._transpose(family, n)
    for a, b in composition_pairs(family, n):
        kept, partner = _kept_elements(family, n, a, b), _kept_elements(family, n, b, a)
        assert sorted(perm[k] for k in kept) == partner
        theta = transpose_map(family, n, a, b)
        assert [partner[j] for j, _ in theta] == [perm[k] for k in kept]
        assert [s for _, s in theta] == [signs[k] for k in kept]


def test_theta_maps_basis_matrices_onto_the_partner_seaweed():
    a, b = Composition((2, 1)), Composition((1, 2))
    g, h = seaweed("SL", 3, a, b), seaweed("SL", 3, b, a)
    for m, (j, s) in zip(g.realization, transpose_map("SL", 3, a, b)):
        assert negated_transpose(m) == scaled(h.realization[j], s)


def test_theta_is_refused_outside_type_a():
    for family, n in (("SP", 2), ("SO", 5)):
        with pytest.raises(ValueError, match="GL and SL"):
            construct._transpose(family, n)
        with pytest.raises(ValueError):
            transpose_map(family, n, Composition((1,)), Composition((2,)))


def test_a_basis_matrix_without_a_signed_transpose_is_refused(monkeypatch):
    # the upper Borel of gl2 alone: -e_01^T = -e_10 is no basis matrix
    class Borel:
        realization = (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1)))

    monkeypatch.setattr(construct, "_ambient", lambda family, n: (Borel, None, None))
    with pytest.raises(StructureError, match="not a signed basis matrix"):
        construct._transpose.__wrapped__("GL", 2)


def test_a_permutation_that_misses_the_partner_is_refused(monkeypatch):
    # the identity permutation keeps (2,1|3) where its transpose (3|2,1) is not
    size = len(construct._transpose("GL", 3)[0])
    monkeypatch.setattr(construct, "_transpose", lambda family, n: (tuple(range(size)), (-1,) * size))
    with pytest.raises(StructureError, match="does not map"):
        transpose_map("GL", 3, Composition((2, 1)), Composition((3,)))


def counted_searches(monkeypatch, family, n, seed=0):
    """The sweep's records, the (top, bottom) of each record whose
    ``find_stable_form`` ran, and the (source top, source bottom) of each
    ``transpose_map`` the sweep asked for."""
    searched, mapped, current = [], [], [None]
    build, search, theta = classify_module.seaweed, classify_module.find_stable_form, classify_module.transpose_map

    def seaweed_of(family, n, top, bottom):
        current[0] = (top.parts, bottom.parts)
        return build(family, n, top, bottom)

    def counted(*args):
        searched.append(current[0])
        return search(*args)

    def counted_map(family, n, a, b):
        mapped.append((a.parts, b.parts))
        return theta(family, n, a, b)

    monkeypatch.setattr(classify_module, "seaweed", seaweed_of)
    monkeypatch.setattr(classify_module, "find_stable_form", counted)
    monkeypatch.setattr(classify_module, "transpose_map", counted_map)
    return classify_module.classify(family, n, seed=seed, embed_certificates=True), searched, mapped


@pytest.mark.parametrize("family,n,searches", [("SL", 5, 43), ("GL", 5, 17), ("SL", 4, 13)])
def test_one_search_per_transpose_pair(monkeypatch, family, n, searches):
    records, searched, mapped = counted_searches(monkeypatch, family, n)
    index_one = [(r.top, r.bottom) for r in records if r.index == 1]
    assert len(searched) == searches == len(index_one) // 2
    # each mapped record's partner was searched before it, and every other
    # index-one record was searched
    assert sorted(searched + [(b, a) for a, b in mapped]) == sorted(index_one)
    order = {pair: i for i, pair in enumerate(index_one)}
    assert all(order[source] < order[source[::-1]] for source in mapped)
    assert set(mapped) <= set(searched)


@pytest.mark.parametrize("family,n", [("SP", 3), ("SO", 7)])
def test_no_record_outside_type_a_is_mapped(monkeypatch, family, n):
    records, searched, mapped = counted_searches(monkeypatch, family, n)
    assert mapped == []
    assert searched == [(r.top, r.bottom) for r in records if r.index == 1] and len(searched) == 26


def test_a_refused_map_is_a_one_line_exit_2(monkeypatch, capsys):
    def refused(family, n, a, b):
        raise StructureError(f"-X^T does not map the seaweed {a}|{b} onto {b}|{a}")

    monkeypatch.setattr(classify_module, "transpose_map", refused)
    assert main(["classify", "--family", "GL", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("error: -X^T does not map")


@pytest.mark.parametrize("family,index_one", [("GL", 150), ("SL", 764)])
def test_heavy_tier_reports_verify_and_agree_with_their_transposes(capsys, tmp_path, family, index_one):
    # the heavy-tier GL7 and SL7 sweeps, through the CLI's entry point
    out = tmp_path / "r.json"
    assert main(["classify", "--family", family, "--n", "7", "--embed", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr() == ("valid\n", "")
    records = {(tuple(r["top"]), tuple(r["bottom"])): r for r in json.loads(out.read_text())["records"]}
    assert len(records) == 4096 and sum(r["index"] == 1 for r in records.values()) == index_one
    claims = ("dim", "index", "contact", "stable", "verdict")
    for (top, bottom), r in records.items():
        assert [r[k] for k in claims] == [records[(bottom, top)][k] for k in claims], (top, bottom)
    # one search: a contact certificate's form is its stability certificate's,
    # which is then the short shape, without [ker, g]
    found = [r["certificates"] for r in records.values() if "contact" in (r.get("certificates") or {})]
    assert len(found) == index_one and all(c["contact"]["form"] == c["stability"]["form"] for c in found)
    assert not any("bracket_span" in c["stability"] for c in found)
