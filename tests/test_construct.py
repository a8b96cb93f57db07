from fractions import Fraction

import pytest

from seaweeds import (
    AmbientAlgebra,
    Composition,
    bracket,
    construct,
    enumerate_compositions,
    flag_seaweed,
    gln_seaweed,
    matrix_span,
    parse_pair,
    seaweed,
)
from seaweeds.classify import LIMITS
from seaweeds.construct import _ambient_view
from seaweeds.lie import StructureError
from seaweeds.linalg import Matrix, intersect, nullspace, rank
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
            assert bracket(g.basis_element(i), g.basis_element(j)).is_zero()


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
        trace_zero = nullspace(Matrix((trace_row,)))
        for a in enumerate_compositions(n):
            for b in enumerate_compositions(n):
                sl, gl = seaweed("SL", n, a, b), gln_seaweed(a, b)
                assert sl.dim == gl.dim - 1
                assert matrix_span(sl) == intersect(matrix_span(gl), trace_zero)


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
            assert all(u == v for u, v in _ambient_view(family, n).shared), (family, n)


def test_flag_refuses_a_view_it_cannot_restrict(monkeypatch):
    # GL2[1,1|2] kills e10, ambient index 2
    view = _ambient_view("GL", 2)
    amb, a, b = AmbientAlgebra("GL", 2), C(1, 1), C(2)
    for bad in (
        view._replace(shared=frozenset({(1, 0)})),
        view._replace(table={**view.table, (0, 1): {2: 1}}),
    ):
        monkeypatch.setattr(construct, "_ambient_view", lambda family, n, bad=bad: bad)
        with pytest.raises(StructureError):
            flag_seaweed(amb, a, b)


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
        s = amb.bilinear_form
        g = flag_seaweed(amb, C(1), C(1))
        assert g.dim >= 1
        for mat in g.realization:
            lhs = mat.transpose() @ s + s @ mat
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
            comm = a @ b - b @ a
            assert span.contains(comm.vec())


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
    assert rank(Matrix([m.vec() for m in g.realization])) == g.dim
