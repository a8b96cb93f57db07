import json
from fractions import Fraction

import pytest

from seaweeds import Composition, construct, enumerate_compositions, parse_pair, seaweed
import fraction_reference as ref
from block_reference import gln_seaweed, matrix_span
from full_check_reference import full_check_seaweed, full_walk_restriction, killed_entry_kept
from stock_algebras import heisenberg, unit

from seaweeds.classify import LIMITS, classify, composition_pairs, report
from seaweeds.lie import LieAlgebra, StructureError
from seaweeds.meander import meander, meander_index
from seaweeds.serialize import verify_document

F = Fraction


def C(*parts):
    return Composition(tuple(parts))


def algebra(g):
    """What a construction is held to: its label, table and realization."""
    return g.label, list(g.structure_items()), g.realization


SMALL = [("GL", 1), ("GL", 3), ("SL", 2), ("SL", 4), ("SP", 1), ("SP", 2), ("SO", 3), ("SO", 5)]


# -- compositions ----------------------------------------------------------------


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition((-1,))


def test_composition_parse_and_str():
    assert Composition.parse("2,1") == C(2, 1)
    assert Composition.parse("0") == C()
    assert str(C(2, 1)) == "2,1"
    assert str(C()) == "0"
    assert C(2, 1).total == 3
    assert C(3, 1, 2).prefix_sums() == (3, 4, 6)


def test_parse_pair():
    assert parse_pair("2,1|3") == (C(2, 1), C(3))
    with pytest.raises(ValueError):
        parse_pair("2,1")


def test_enumerate_compositions_counts():
    assert enumerate_compositions(1) == [C(1)]
    assert len(enumerate_compositions(6)) == 32


def test_enumerate_compositions_documented_order():
    assert enumerate_compositions(3) == [C(3), C(2, 1), C(1, 2), C(1, 1, 1)]


# -- gln_seaweed -------------------------------------------------------------------


def test_gln_seaweed_dimension_example():
    assert gln_seaweed(C(2, 1), C(3)).dim == 7


def test_gln_seaweed_full_algebra():
    for n in (1, 2, 3):
        assert gln_seaweed(C(n), C(n)).dim == n * n


def test_gln_seaweed_torus():
    g = gln_seaweed(C(1, 1, 1, 1), C(1, 1, 1, 1))
    assert g.dim == 4
    for i in range(4):
        for j in range(4):
            assert not any(g.ad_int_rows(unit(g, i))[j])


def test_gln_seaweed_total_mismatch():
    with pytest.raises(ValueError):
        gln_seaweed(C(2, 1), C(4))


def test_gln_transpose_symmetry_of_dimension():
    for n in range(2, 6):
        comps = enumerate_compositions(n)
        for a in comps:
            for b in comps:
                assert gln_seaweed(a, b).dim == gln_seaweed(b, a).dim


# -- sl seaweeds -------------------------------------------------------------------


def test_sln_drops_one_dimension():
    for a, b in [(C(2), C(2)), (C(2, 1), C(3)), (C(1, 1, 1), C(3))]:
        assert seaweed("SL", a.total, a, b).dim == gln_seaweed(a, b).dim - 1


def test_sl2_structure():
    sl2 = seaweed("SL", 2, C(2), C(2))  # basis h = e00 - e11, e = e01, f = e10
    ad_h, ad_e = sl2.ad_int_rows(unit(sl2, 0)), sl2.ad_int_rows(unit(sl2, 1))
    assert ad_h[1] == [0, 2, 0]  # [h, e] = 2e
    assert ad_h[2] == [0, 0, -2]  # [h, f] = -2f
    assert ad_e[2] == [1, 0, 0]  # [e, f] = h


def test_sl_is_trace_zero_part_of_gl_block_seaweed():
    for n in range(2, 5):
        trace_row = tuple(F(1) if t % (n + 1) == 0 else F(0) for t in range(n * n))
        trace_zero = ref.nullspace(ref.Matrix((trace_row,)))
        for a in enumerate_compositions(n):
            for b in enumerate_compositions(n):
                sl, gl = seaweed("SL", n, a, b), gln_seaweed(a, b)
                assert sl.dim == gl.dim - 1
                assert matrix_span(sl) == ref.intersect(matrix_span(gl), trace_zero)


# -- seaweed ----------------------------------------------------------------------


def test_flag_matches_block_construction_small():
    for a in enumerate_compositions(3):
        for b in enumerate_compositions(3):
            assert matrix_span(seaweed("GL", 3, a, b)) == matrix_span(gln_seaweed(a, b))


def test_gl_seaweed_equals_block_reference():
    # the full table and realization, not just the span
    for n in range(1, 5):
        for a in enumerate_compositions(n):
            for b in enumerate_compositions(n):
                assert algebra(seaweed("GL", n, a, b)) == algebra(gln_seaweed(a, b))


def test_shared_ambient_entries_are_diagonal():
    # flag stabilizers only kill off-diagonal entries, so a shared entry on
    # the diagonal never merges two basis matrices into one constraint
    first = {"GL": 1, "SL": 2, "SP": 1, "SO": 2}
    for family, limit in LIMITS.items():
        for n in range(first[family], limit + 1):
            size = construct.matrix_size(family, n)
            _, _, shared = construct._ambient(family, n)
            bits = [e for e in range(size * size) if shared >> e & 1]
            assert all(e // size == e % size for e in bits), (family, n)


@pytest.mark.slow
@pytest.mark.parametrize("family,n", [
    (f, n) for f, top in sorted(LIMITS.items()) for n in range({"GL": 1, "SL": 2, "SP": 1, "SO": 2}[f], top + 1)
])
def test_seaweed_dim_is_the_dimension_of_the_seaweed_it_counts(family, n):
    # verify holds every record without certificates to seaweed_dim
    for a, b in composition_pairs(family, n):
        assert construct.seaweed_dim(family, n, a, b) == seaweed(family, n, a, b).dim, (a, b)


def test_no_fraction_is_built_to_construct_search_report_or_verify(cold_ambients, monkeypatch):
    # a cold ambient cache, so every ambient is built under the count too
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for family, n in SMALL:
        doc = json.loads(report(classify(family, n, seed=0, embed_certificates=True), "json"))
        assert verify_document(doc) is True
    assert built == []


def clear_ambients():
    """Empty the cache of ambient algebras and their masks."""
    construct._ambient.cache_clear()


@pytest.fixture
def cold_ambients():
    """Empty the ambient cache before and after a test that tampers with
    what an ambient is built from, so the test builds its own and leaves
    none behind.  Tests request it before ``monkeypatch``, whose patches
    are then undone before the cache is cleared."""
    clear_ambients()
    yield
    clear_ambients()


def test_ambient_basis_not_closed_under_bracket_raises_when_built(cold_ambients, monkeypatch):
    # e00, e01 + e10, e11: [e00, e01 + e10] = e01 - e10, which the pivot
    # coordinates read as e01 + e10, so only the residual sees it
    rows = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    monkeypatch.setattr(construct, "kernel_int_rows", lambda *args: rows)
    with pytest.raises(StructureError, match=r"^realization is not closed under bracket \(0,1\)$"):
        seaweed("GL", 2, C(2), C(2))


def test_ambient_basis_row_without_pivot_one_raises(cold_ambients, monkeypatch):
    rows = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # 2 e00, e01, e10, e11
    monkeypatch.setattr(construct, "kernel_int_rows", lambda *args: rows)
    with pytest.raises(StructureError, match=r"^basis matrix 0 has pivot 2, not 1$"):
        seaweed("GL", 2, C(2), C(2))


def test_flag_refuses_a_shared_killed_entry(cold_ambients, monkeypatch):
    # GL2[1,1|2] kills e10, bit 2 of the masks and ambient index 2
    g, supports, _ = construct._ambient("GL", 2)
    monkeypatch.setattr(construct, "_ambient", lambda family, n: (g, supports, 1 << 2))
    with pytest.raises(StructureError, match=r"^a killed entry is shared by two ambient basis matrices$"):
        construct._kept_elements("GL", 2, C(1, 1), C(2))


def test_flag_refuses_a_table_term_outside_the_kept_set(cold_ambients, monkeypatch):
    # a checked algebra whose [x0, x1] = x2 leaves GL2[1,1|2]'s kept 0, 1, 3:
    # the Heisenberg algebra and the identity
    _, supports, shared = construct._ambient("GL", 2)
    bad = LieAlgebra((*heisenberg().realization, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    monkeypatch.setattr(construct, "_ambient", lambda family, n: (bad, supports, shared))
    with pytest.raises(StructureError, match=r"^kept elements are not closed under bracket \(0,1\)$"):
        seaweed("GL", 2, C(1, 1), C(2))


AMBIENTS = [("GL", n) for n in range(1, 5)] + [("SL", n) for n in range(2, 7)]
AMBIENTS += [("SP", n) for n in range(1, 5)] + [("SO", n) for n in range(2, 9)]


@pytest.mark.parametrize("family,n", AMBIENTS)
def test_ambient_basis_equals_the_rational_derivation(family, n):
    # the uncached function, so a basis a test has swapped cannot answer
    assert construct._ambient.__wrapped__(family, n)[0].realization == ref.ambient_basis(family, n)


@pytest.mark.parametrize("family,n", SMALL)
def test_realizations_are_built_from_ints(family, n):
    # the ambient's matrices and every restriction's are integer row tuples
    g = construct._ambient(family, n)[0]
    algebras = [g] + [seaweed(family, n, a, b) for a, b in composition_pairs(family, n)]
    for h in algebras:
        assert type(h.realization) is tuple and len(h.realization) == h.dim
        for m in h.realization:
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            assert {type(x) for row in m for x in row} == {int}, (h.label, m)


SWEPT = [("GL", n) for n in range(1, 6)] + [("SL", n) for n in range(2, 6)]
SWEPT += [("SP", n) for n in range(1, 4)] + [("SO", n) for n in range(2, 8)]


@pytest.mark.parametrize("family,n", SWEPT)
def test_restriction_equals_full_check_construction(family, n):
    for a, b in composition_pairs(family, n):
        expected = algebra(full_check_seaweed(family, n, a, b))
        assert algebra(seaweed(family, n, a, b)) == expected, (family, n, a, b)


@pytest.mark.parametrize("family,n", AMBIENTS + [("GL", 6), ("SL", 7)])
def test_mask_selection_and_row_walk_equal_the_full_references(family, n):
    # the bit-mask selection keeps what the killed-entry set keeps, and the
    # row-indexed restriction issues the full table walk's keys, in its
    # order, with its terms
    g = construct._ambient(family, n)[0]
    for a, b in composition_pairs(family, n):
        kept = construct._kept_elements(family, n, a, b)
        assert kept == killed_entry_kept(family, n, a, b), (family, n, a, b)
        sub = g.restrict(kept)
        assert list(sub._table.items()) == list(full_walk_restriction(g, kept).items()), (family, n, a, b)
        assert sub.realization == tuple(g.realization[k] for k in kept)


def test_restrict_refuses_a_set_not_closed_under_bracket():
    gl2 = construct._ambient("GL", 2)[0]  # e00, e01, e10, e11
    with pytest.raises(StructureError, match=r"\(1,2\)"):
        gl2.restrict([1, 2])  # [e01, e10] = e00 - e11
    with pytest.raises(StructureError, match=r"\(0,1\)"):
        heisenberg().restrict([0, 1])  # [x, y] = z
    with pytest.raises(StructureError, match=r"\(1,2\)"):
        gl2.restrict([0, 1, 2])  # kept pair (1, 2) of the parent
    assert gl2.restrict([0, 1]).dim == 2


@pytest.mark.parametrize("kept", [[2, 1], [1, 1], [0, 4], [-1, 0], [0, 1, 1, 2]])
def test_restrict_refuses_unsorted_repeated_or_out_of_range_indices(kept):
    with pytest.raises(ValueError):
        construct._ambient("GL", 2)[0].restrict(kept)


def test_flag_full_gl():
    g = seaweed("GL", 3, C(3), C(3))
    assert g.dim == 9


def test_flag_sp4_proper_seaweed():
    # Independent count: sp(4) has 10 parameters, one per entry orbit
    # {(i,j),(N-1-j,N-1-i)}.  The flag (1)|(1) kills column 0 below the
    # diagonal and column 3 above it; those 6 entries cover 6 distinct
    # orbits, so the stabilizer has dimension 10 - 6 = 4.
    size = 4
    killed = {(r, 0) for r in range(1, size)} | {(r, 3) for r in range(3)}
    orbits = {frozenset({(r, c), (size - 1 - c, size - 1 - r)}) for (r, c) in killed}
    expected = 10 - len(orbits)
    assert expected == 4

    g = seaweed("SP", 2, C(1), C(1))
    assert g.dim == expected
    assert g.dim < 10


def test_sp_so_membership_equation():
    for family, n in (("SP", 2), ("SP", 3), ("SO", 4), ("SO", 5)):
        size = construct.matrix_size(family, n)
        s = ref.bilinear_form(family, size)
        g = seaweed(family, n, C(1), C(1))
        assert g.dim >= 1
        for mat in map(ref.Matrix.from_rows, g.realization):
            lhs = ref.matmul(ref.transpose(mat), s) + ref.matmul(s, mat)
            assert lhs == ref.Matrix.zeros(size, size)


def test_flag_bad_prefix_sums():
    with pytest.raises(ValueError):
        seaweed("SP", 2, C(3), C(1))
    with pytest.raises(ValueError):
        seaweed("GL", 3, C(2), C(3))


def test_flag_closed_under_bracket():
    g = seaweed("SP", 2, C(1, 1), C(2))
    span = matrix_span(g)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            a, b = ref.Matrix.from_rows(g.realization[i]), ref.Matrix.from_rows(g.realization[j])
            comm = ref.matmul(a, b) + ref.matmul(b, a).scale(-1)
            assert ref.contains(span, ref.vec(comm.rows))


def test_seaweed_dispatcher():
    assert seaweed("GL", 3, C(2, 1), C(3)).label == "GL3[2,1|3]"
    assert seaweed("SL", 2, C(2), C(2)).dim == 3
    assert seaweed("SP", 2, C(1), C(1)).dim == 4
    with pytest.raises(ValueError):
        seaweed("GL", 4, C(2, 1), C(3))


def test_ambient_validation():
    assert [construct.matrix_size(family, 3) for family in construct.FAMILIES] == [3, 3, 6, 3]
    for family, n in (("E8", 8), ("gl", 3), ("SO", 1), ("SL", 1), ("SP", 0), ("GL", 0)):
        with pytest.raises(ValueError):
            construct.matrix_size(family, n)


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: seaweed("gl", 3, C(3), C(3)), "family must be one of"),
        (lambda: construct.seaweed_dim("gl", 3, C(3), C(3)), "family must be one of"),
        (lambda: composition_pairs("gl", 3), "family must be one of"),
        (lambda: meander_index(meander(C(3), C(3)), "gl"), "GL and SL only"),
        (lambda: classify("gl", 2, seed=0), "unknown family"),
        (lambda: report([], "JSON"), "unknown report format"),
    ],
    ids=["seaweed", "seaweed_dim", "composition_pairs", "meander_index", "classify", "report"],
)
def test_the_api_takes_one_name_per_family_and_format(call, refusal):
    # the family has one name, its upper-case one, in every entry point, and
    # the report format one, its lower-case one (``index_formula``:
    # test_index_formula.py)
    with pytest.raises(ValueError, match=refusal):
        call()


def test_realizations_are_attached_and_independent():
    g = gln_seaweed(C(2, 1), C(3))
    assert len(g.realization) == g.dim
    assert ref.rank(ref.Matrix.from_rows(ref.vec(m) for m in g.realization)) == g.dim
