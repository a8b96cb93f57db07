import random
from fractions import Fraction

import pytest
import fraction_reference as ref
from block_reference import gln_seaweed
from fraction_reference import kirillov_matrix

from seaweeds import (
    Composition,
    Element,
    LieAlgebra,
    Matrix,
    OneForm,
    abelian,
    bracket,
    center,
    heisenberg,
    index,
)
from seaweeds.lie import StructureError, kernel_dim

F = Fraction


def gl(n):
    return gln_seaweed(Composition((n,)), Composition((n,)))


def torus(n):
    ones = Composition((1,) * n)
    return gln_seaweed(ones, ones)


def form(g, coords):
    return OneForm(g, tuple(F(c) for c in coords))


def elem(g, coords):
    return Element(g, tuple(F(c) for c in coords))


def random_form(g, seed, bound=10**6):
    """An integer form with coordinates uniform in [-bound, bound],
    deterministic per seed."""
    rng = random.Random(seed)
    return form(g, [rng.randint(-bound, bound) for _ in range(g.dim)])


# -- bracket -------------------------------------------------------------------


def test_heisenberg_defining_relation():
    h = heisenberg()
    x, y = h.basis_element(0), h.basis_element(1)
    assert bracket(x, y) == h.basis_element(2)


def test_bracket_of_element_with_itself_vanishes():
    h = heisenberg()
    v = elem(h, [2, -3, 5])
    assert not any(bracket(v, v).coords)


def test_gl2_elementary_bracket():
    g = gl(2)  # basis order: e11, e12, e21, e22
    e12, e21 = g.basis_element(1), g.basis_element(2)
    assert bracket(e12, e21) == elem(g, [1, 0, 0, -1])


def test_ad_columns_are_brackets_with_the_basis():
    g = gl(3)
    rng = random.Random(12)
    for h in (g, rescaled(g, [2, 3, 5, 7, 1, 2, 3, 5, 7]), heisenberg()):
        for _ in range(3):
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(h.dim)]
            cols = h.ad_columns(x)
            for j in range(h.dim):
                assert cols[j] == h.bracket_coords(x, h.basis_element(j).coords)


def test_bracket_algebra_mismatch():
    with pytest.raises(ValueError):
        bracket(heisenberg().basis_element(0), heisenberg().basis_element(1))


# -- construction checks ---------------------------------------------------------


def test_antisymmetry_enforced():
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 1}, (1, 0): {2: 1}})


def test_antisymmetry_checked_against_an_empty_orientation():
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 1}, (1, 0): {}})
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 0}, (1, 0): {2: 1}})
    assert not list(LieAlgebra(3, {(0, 1): {}, (1, 0): {2: 0}}).structure_items())


def test_float_scalars_refused():
    with pytest.raises(TypeError, match="inexact"):
        LieAlgebra(3, {(0, 1): {2: 0.1}})
    e12, e23, e13 = _heisenberg_matrices()
    float_e12 = Matrix(tuple(tuple(float(x) for x in row) for row in e12.rows))
    with pytest.raises(TypeError, match="inexact"):
        LieAlgebra(3, {(0, 1): {2: 1}}, realization=(float_e12, e23, e13))


def test_self_bracket_must_vanish():
    with pytest.raises(StructureError):
        LieAlgebra(2, {(0, 0): {1: 1}})


def test_jacobi_enforced():
    # [x0,x1]=x2, [x0,x2]=x0: the (0,1,2) Jacobi sum is [x1,[x2,x0]] = x2 != 0
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    # flipping to [x1,x2]=x0 with [x0,x2]=-x1 closes the identity (split so(3))
    LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})


def test_realization_compatibility_enforced():
    e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 2}}, realization=(e12, e23, e13))
    with pytest.raises(StructureError):
        # x2 and x0 do not commute in this wrong realization
        LieAlgebra(3, {(0, 1): {2: 1}}, realization=(e12, e23, e23))


def _heisenberg_matrices(x=1, y=1, z=1):
    e12 = Matrix.from_rows([[0, x, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.from_rows([[0, 0, 0], [0, 0, y], [0, 0, 0]])
    e13 = Matrix.from_rows([[0, 0, z], [0, 0, 0], [0, 0, 0]])
    return e12, e23, e13


def test_rational_structure_constant_realized():
    # [x, y] = z/2 with z = 2 e13: [e12, e23] = e13 = z/2
    h = LieAlgebra(3, {(0, 1): {2: F(1, 2)}}, realization=_heisenberg_matrices(z=2))
    assert bracket(h.basis_element(0), h.basis_element(1)) == elem(h, [0, 0, F(1, 2)])
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: F(1, 3)}}, realization=_heisenberg_matrices(z=2))


def test_rational_realization_entries():
    # x = e12/2, y = e23, z = e13/2: [x, y] = e13/2 = z
    mats = _heisenberg_matrices(x=F(1, 2), z=F(1, 2))
    h = LieAlgebra(3, {(0, 1): {2: 1}}, realization=mats)
    assert h.realization == mats
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 2}}, realization=mats)


def rescaled(g, scales):
    """The same algebra in the basis x_i / scales[i]: the structure constants
    and the realization become non-integral, the index does not change."""
    structure = {}
    for i, j, r, c in g.structure_items():
        structure.setdefault((i, j), {})[r] = F(c * scales[r], scales[i] * scales[j])
    mats = tuple(m.scale(F(1, s)) for m, s in zip(g.realization, scales))
    return LieAlgebra(g.dim, structure, realization=mats, label="rescaled")


def test_index_and_kernel_dim_agree_on_rational_algebra():
    g = gl(3)
    scales = [2, 3, 5, 7, 1, 2, 3, 5, 7]
    h = rescaled(g, scales)
    rep = index(h, seed=41)
    assert rep.index == 3
    assert kernel_dim(h, form(h, rep.witness_coords)) == rep.index
    rng = random.Random(8)
    for _ in range(5):
        phi = random_form(g, rng.randint(0, 10**6), bound=5)
        # phi'(x_r / s_r) = phi(x_r) / s_r, a form with rational coordinates
        psi = OneForm(h, tuple(c / s for c, s in zip(phi.coords, scales)))
        assert kernel_dim(h, psi) == kernel_dim(g, phi)
        assert kernel_dim(h, psi) == h.dim - ref.rank(kirillov_matrix(h, psi))


# -- kirillov matrix -------------------------------------------------------------


def test_kirillov_heisenberg():
    h = heisenberg()
    b = kirillov_matrix(h, form(h, [0, 0, 1]))
    assert b == Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_kirillov_zero_form():
    g = gl(2)
    assert kirillov_matrix(g, form(g, [0] * 4)) == Matrix.zeros(4, 4)


def test_kirillov_abelian():
    a = abelian(3)
    assert kirillov_matrix(a, form(a, [5, -1, 2])) == Matrix.zeros(3, 3)


def test_kirillov_skew_and_linear():
    g = gl(2)
    rng = random.Random(11)
    for _ in range(20):
        phi = random_form(g, rng.randint(0, 10**6), bound=50)
        psi = random_form(g, rng.randint(0, 10**6), bound=50)
        bphi, bpsi = kirillov_matrix(g, phi), kirillov_matrix(g, psi)
        assert ref.transpose(bphi) == bphi.scale(-1)
        combo = OneForm(g, tuple(3 * a - 2 * b for a, b in zip(phi.coords, psi.coords)))
        assert kirillov_matrix(g, combo) == bphi.scale(3) + bpsi.scale(-2)


# -- index -----------------------------------------------------------------------


def brute_force_min_kernel(g, magnitude):
    """Independent oracle: exhaustive sweep of integer forms with small
    coordinates."""
    from itertools import product

    best = g.dim
    for coords in product(range(-magnitude, magnitude + 1), repeat=g.dim):
        best = min(best, kernel_dim(g, form(g, coords)))
        if best == g.dim % 2:
            break
    return best


def test_index_gl2():
    g = gl(2)
    oracle = brute_force_min_kernel(g, 2)
    assert oracle == 2
    assert index(g, seed=17).index == 2


def test_index_heisenberg():
    assert index(heisenberg(), seed=3).index == 1


def test_index_abelian():
    for n in (1, 2, 5):
        assert index(abelian(n), seed=9).index == n


def test_index_report_invariants():
    g = gl(3)
    rep = index(g, seed=23)
    assert rep.index % 2 == g.dim % 2
    assert kernel_dim(g, form(g, rep.witness_coords)) == rep.index
    assert len(rep.trial_kernel_dims) == 3
    assert index(g, seed=23) == rep  # deterministic


def test_index_parity_and_upper_bound():
    rng = random.Random(5)
    for g in (gl(2), gl(3), heisenberg(), torus(4)):
        rep = index(g, seed=77)
        for _ in range(10):
            phi = random_form(g, rng.randint(0, 10**9))
            kd = kernel_dim(g, phi)
            assert kd % 2 == g.dim % 2
            assert rep.index <= kd


def test_index_gl_n_classical_value():
    for n in (1, 2, 3, 4):
        assert index(gl(n), seed=101).index == n


# -- regular forms ---------------------------------------------------------------


def test_is_regular_heisenberg():
    # a form is regular when its kernel has the index's dimension
    h = heisenberg()
    assert kernel_dim(h, form(h, [0, 0, 1])) == 1
    assert kernel_dim(h, form(h, [1, 0, 0])) != 1


def test_witness_form_is_regular():
    g = gl(3)
    rep = index(g, seed=300)
    assert kernel_dim(g, form(g, rep.witness_coords)) == rep.index


# -- center ----------------------------------------------------------------------


def test_center_heisenberg():
    assert center(heisenberg()) == ref.span([[0, 0, 1]], 3)


def test_center_gl_is_scalars():
    for n in (2, 3):
        g = gl(n)  # basis e_ij in row-major order, so e_ii sits at i*n+i
        identity_coords = [1 if t in {i * n + i for i in range(n)} else 0 for t in range(g.dim)]
        z = center(g)
        assert z.dim == 1
        assert ref.contains(z, identity_coords)


def test_center_sl2_trivial():
    from seaweeds import seaweed

    sl2 = seaweed("SL", 2, Composition((2,)), Composition((2,)))
    assert center(sl2).dim == 0


def test_center_of_a_non_integral_table():
    # [x, y] = z/2 + w/3: z and w are central, x and y are not
    g = LieAlgebra(4, {(0, 1): {2: F(1, 2), 3: F(1, 3)}})
    assert not g._integral
    assert center(g) == ref.span([[0, 0, 1, 0], [0, 0, 0, 1]], 4)
    # [h, e] = e/2 has no center
    assert center(LieAlgebra(2, {(0, 1): {1: F(1, 2)}})) == ref.span([], 2)
    # gl(3) in the basis e_ij / s_ij: the scalars e11 + e22 + e33 have
    # coordinates s_11, s_22, s_33
    h = rescaled(gl(3), [2, 3, 5, 7, 1, 2, 3, 5, 7])
    assert not h._integral
    assert center(h) == ref.span([[2, 0, 0, 0, 1, 0, 0, 0, 7]], 9)


def test_center_contained_in_every_kernel():
    from seaweeds.lie import kirillov_kernel

    for g in (heisenberg(), gl(2), gl(3)):
        z = center(g)
        for seed in (4, 99, 561):
            ker = kirillov_kernel(g, random_form(g, seed))
            assert all(ref.contains(ker, v) for v in z.basis)

