from fractions import Fraction

import pytest

from seaweeds import (
    AmbientAlgebra,
    Composition,
    bracket,
    construct,
    enumerate_compositions,
    flag_seaweed,
    parse_pair,
    seaweed,
)
import fraction_reference as ref
from block_reference import gln_seaweed, matrix_span
from full_check_reference import full_check_seaweed, full_walk_restriction, killed_entry_kept

from seaweeds.classify import LIMITS, composition_pairs
from seaweeds.lie import LieAlgebra, OneForm, StructureError, heisenberg, index, kernel_dim
from seaweeds.linalg import Matrix
from seaweeds.serialize import algebra_to_json

F = Fraction


def C(*parts):
    return Composition(tuple(parts))


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
            assert not any(bracket(g.basis_element(i), g.basis_element(j)).coords)


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
    h, e, f = (sl2.basis_element(i) for i in range(3))
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)
    assert bracket(e, f) == h


def test_sl_is_trace_zero_part_of_gl_block_seaweed():
    for n in range(2, 5):
        trace_row = tuple(F(1) if t % (n + 1) == 0 else F(0) for t in range(n * n))
        trace_zero = ref.nullspace(Matrix((trace_row,)))
        for a in enumerate_compositions(n):
            for b in enumerate_compositions(n):
                sl, gl = seaweed("SL", n, a, b), gln_seaweed(a, b)
                assert sl.dim == gl.dim - 1
                assert matrix_span(sl) == ref.intersect(matrix_span(gl), trace_zero)


# -- flag_seaweed ------------------------------------------------------------------


def test_flag_matches_block_construction_small():
    amb = AmbientAlgebra("GL", 3)
    for a in enumerate_compositions(3):
        for b in enumerate_compositions(3):
            assert matrix_span(flag_seaweed(amb, a, b)) == matrix_span(gln_seaweed(a, b))


def test_gl_seaweed_equals_block_reference():
    # the full table and realization, not just the span
    for n in range(1, 5):
        for a in enumerate_compositions(n):
            for b in enumerate_compositions(n):
                assert algebra_to_json(seaweed("GL", n, a, b)) == algebra_to_json(gln_seaweed(a, b))


def test_shared_ambient_entries_are_diagonal():
    # flag stabilizers only kill off-diagonal entries, so a shared entry on
    # the diagonal never merges two basis matrices into one constraint
    first = {"GL": 1, "SL": 2, "SP": 1, "SO": 2}
    for family, limit in LIMITS.items():
        for n in range(first[family], limit + 1):
            size = AmbientAlgebra(family, n).matrix_size
            _, _, shared = construct._ambient(family, n)
            bits = [e for e in range(size * size) if shared >> e & 1]
            assert all(e // size == e % size for e in bits), (family, n)


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
    # coordinates read as e01 + e10, so only the realization check sees it
    rows = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    monkeypatch.setattr(construct, "kernel_int_rows", lambda *args: rows)
    with pytest.raises(StructureError, match=r"^realization incompatible with table on pair \(0,1\)$"):
        seaweed("GL", 2, C(2), C(2))


def test_ambient_basis_row_without_pivot_one_raises(cold_ambients, monkeypatch):
    rows = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # 2 e00, e01, e10, e11
    monkeypatch.setattr(construct, "kernel_int_rows", lambda *args: rows)
    with pytest.raises(StructureError, match=r"^ambient basis row 0 has pivot 2, not 1$"):
        seaweed("GL", 2, C(2), C(2))


def test_flag_refuses_a_shared_killed_entry(cold_ambients, monkeypatch):
    # GL2[1,1|2] kills e10, bit 2 of the masks and ambient index 2
    g, supports, _ = construct._ambient("GL", 2)
    monkeypatch.setattr(construct, "_ambient", lambda family, n: (g, supports, 1 << 2))
    with pytest.raises(StructureError, match=r"^a killed entry is shared by two ambient basis matrices$"):
        construct._kept_elements(AmbientAlgebra("GL", 2), C(1, 1), C(2))


def test_flag_refuses_a_table_term_outside_the_kept_set(cold_ambients, monkeypatch):
    # a checked algebra whose [x0, x1] = x2 leaves GL2[1,1|2]'s kept 0, 1, 3
    _, supports, shared = construct._ambient("GL", 2)
    bad = LieAlgebra(4, {(0, 1): {2: 1}})
    monkeypatch.setattr(construct, "_ambient", lambda family, n: (bad, supports, shared))
    with pytest.raises(StructureError, match=r"^kept elements are not closed under bracket \(0,1\)$"):
        flag_seaweed(AmbientAlgebra("GL", 2), C(1, 1), C(2))


AMBIENTS = [("GL", n) for n in range(1, 5)] + [("SL", n) for n in range(2, 7)]
AMBIENTS += [("SP", n) for n in range(1, 5)] + [("SO", n) for n in range(2, 9)]


@pytest.mark.parametrize("family,n", AMBIENTS)
def test_ambient_basis_equals_the_rational_derivation(family, n):
    # the uncached function, so a basis a test has swapped cannot answer
    assert construct._ambient.__wrapped__(family, n)[0].realization == ref.ambient_basis(family, n)


SWEPT = [("GL", n) for n in range(1, 6)] + [("SL", n) for n in range(2, 6)]
SWEPT += [("SP", n) for n in range(1, 4)] + [("SO", n) for n in range(2, 8)]


@pytest.mark.parametrize("family,n", SWEPT)
def test_restriction_equals_full_check_construction(family, n):
    for a, b in composition_pairs(family, n):
        expected = algebra_to_json(full_check_seaweed(family, n, a, b))
        assert algebra_to_json(seaweed(family, n, a, b)) == expected, (family, n, a, b)


@pytest.mark.parametrize("family,n", AMBIENTS + [("GL", 6), ("SL", 7)])
def test_mask_selection_and_row_walk_equal_the_full_references(family, n):
    # the bit-mask selection keeps what the killed-entry set keeps, and the
    # row-indexed restriction issues the full table walk's keys, in its
    # order, with its terms
    amb, g = AmbientAlgebra(family, n), construct._ambient(family, n)[0]
    for a, b in composition_pairs(family, n):
        kept = construct._kept_elements(amb, a, b)
        assert kept == killed_entry_kept(family, n, a, b), (family, n, a, b)
        sub = g.restrict(kept)
        assert list(sub._table.items()) == list(full_walk_restriction(g, kept).items()), (family, n, a, b)
        assert sub._integral and sub.realization == tuple(g.realization[k] for k in kept)


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


def graded_heisenberg():
    """x0 = e01, x1 = e12 / 2, x2 = e02, x3 = diag(1, 0, -1): [x0, x1] = x2 / 2
    and ad x3 is the grading (1, 1, 2)."""
    mats = (
        Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.from_rows([[0, 0, 0], [0, 0, F(1, 2)], [0, 0, 0]]),
        Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
        Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
    )
    structure = {(0, 1): {2: F(1, 2)}, (3, 0): {0: 1}, (3, 1): {1: 1}, (3, 2): {2: 2}}
    return LieAlgebra(4, structure, realization=mats, label="graded")


def test_restriction_of_a_non_integral_algebra():
    g = graded_heisenberg()
    assert not g._integral
    for kept in ([0, 1, 2], [0, 1, 2, 3], [0, 2, 3], [1, 3], [2]):
        sub = g.restrict(kept, label="sub")
        position = {k: t for t, k in enumerate(kept)}
        structure = {}
        for i, j, r, c in g.structure_items():
            if i in position and j in position:
                structure.setdefault((position[i], position[j]), {})[position[r]] = c
        mats = tuple(g.realization[k] for k in kept)
        full = LieAlgebra(len(kept), structure, realization=mats, label="sub")
        assert algebra_to_json(sub) == algebra_to_json(full)
        assert sub._integral == full._integral == (1 not in kept or 0 not in kept)
        rep, full_rep = index(sub, seed=7), index(full, seed=7)
        assert rep.trial_kernel_dims == full_rep.trial_kernel_dims
        form = OneForm(sub, tuple(F(k + 2, 3) for k in range(sub.dim)))
        assert kernel_dim(sub, form) == kernel_dim(full, OneForm(full, form.coords))


def test_flag_full_gl():
    g = flag_seaweed(AmbientAlgebra("GL", 3), C(3), C(3))
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

    g = flag_seaweed(AmbientAlgebra("SP", 2), C(1), C(1))
    assert g.dim == expected
    assert g.dim < 10


def test_sp_so_membership_equation():
    for family, n in (("SP", 2), ("SP", 3), ("SO", 4), ("SO", 5)):
        amb = AmbientAlgebra(family, n)
        s = ref.bilinear_form(family, amb.matrix_size)
        g = flag_seaweed(amb, C(1), C(1))
        assert g.dim >= 1
        for mat in g.realization:
            lhs = ref.matmul(ref.transpose(mat), s) + ref.matmul(s, mat)
            assert lhs == Matrix.zeros(amb.matrix_size, amb.matrix_size)


def test_flag_bad_prefix_sums():
    with pytest.raises(ValueError):
        flag_seaweed(AmbientAlgebra("SP", 2), C(3), C(1))
    with pytest.raises(ValueError):
        flag_seaweed(AmbientAlgebra("GL", 3), C(2), C(3))


def test_flag_closed_under_bracket():
    g = flag_seaweed(AmbientAlgebra("SP", 2), C(1, 1), C(2))
    span = matrix_span(g)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            a, b = g.realization[i], g.realization[j]
            comm = ref.matmul(a, b) + ref.matmul(b, a).scale(-1)
            assert ref.contains(span, ref.vec(comm))


def test_seaweed_dispatcher():
    assert seaweed("GL", 3, C(2, 1), C(3)).label == "GL3[2,1|3]"
    assert seaweed("SL", 2, C(2), C(2)).dim == 3
    assert seaweed("SP", 2, C(1), C(1)).dim == 4
    with pytest.raises(ValueError):
        seaweed("GL", 4, C(2, 1), C(3))


def test_ambient_validation():
    with pytest.raises(ValueError):
        AmbientAlgebra("E8", 8)
    with pytest.raises(ValueError):
        AmbientAlgebra("SO", 1)


def test_realizations_are_attached_and_independent():
    g = gln_seaweed(C(2, 1), C(3))
    assert len(g.realization) == g.dim
    assert ref.rank(Matrix(tuple(ref.vec(m) for m in g.realization))) == g.dim
