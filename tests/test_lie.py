import random
from fractions import Fraction

import pytest
import fraction_reference as ref
from block_reference import gln_seaweed
from fraction_reference import kirillov_matrix
from stock_algebras import abelian, heisenberg, unit

from seaweeds import Composition, LieAlgebra, index
from seaweeds.lie import StructureError
from seaweeds.linalg import clear_denominators, skew_rank_int_rows

F = Fraction


def gl(n):
    return gln_seaweed(Composition((n,)), Composition((n,)))


def torus(n):
    ones = Composition((1,) * n)
    return gln_seaweed(ones, ones)


def form(g, coords):
    """A form's coordinates as Fractions, for the rational reference."""
    return tuple(F(c) for c in coords)


def kernel_dim(g, coords):
    """dim ker B_phi by the package's skew elimination of B_phi as integer
    rows; rational coordinates are cleared over their least common
    denominator first, which keeps the kernel."""
    ints, _ = clear_denominators(coords)
    return g.dim - skew_rank_int_rows(g.kirillov_int_rows(ints))


def random_form(g, seed, bound=10**6):
    """An integer form with coordinates uniform in [-bound, bound],
    deterministic per seed."""
    rng = random.Random(seed)
    return form(g, [rng.randint(-bound, bound) for _ in range(g.dim)])


# -- bracket -------------------------------------------------------------------


def test_heisenberg_defining_relation():
    h = heisenberg()
    assert h.ad_columns(unit(h, 0))[1] == [0, 0, 1]  # [x, y] = z


def test_bracket_of_element_with_itself_vanishes():
    h = heisenberg()
    v = [2, -3, 5]
    cols = h.ad_columns(v)
    assert not any(sum(c * col[r] for c, col in zip(v, cols)) for r in range(h.dim))


def test_gl2_elementary_bracket():
    g = gl(2)  # basis order: e11, e12, e21, e22
    assert g.ad_columns(unit(g, 1))[2] == [1, 0, 0, -1]  # [e12, e21]


def test_ad_columns_are_brackets_with_the_basis():
    g = gl(3)
    rng = random.Random(12)
    for h in (g, rescaled(g, [2, 3, 5, 7, 1, 2, 3, 5, 7]), heisenberg()):
        for _ in range(3):
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(h.dim)]
            cols = h.ad_columns(x)
            for j in range(h.dim):
                assert cols[j] == ref.bracket(h, x, unit(h, j))


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
    float_e12 = tuple(tuple(float(x) for x in row) for row in e12)
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
    e12, e23, e13 = _heisenberg_matrices()
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 2}}, realization=(e12, e23, e13))
    with pytest.raises(StructureError):
        # x2 and x0 do not commute in this wrong realization
        LieAlgebra(3, {(0, 1): {2: 1}}, realization=(e12, e23, e23))


def _heisenberg_matrices(x=1, y=1, z=1):
    e12 = ((0, x, 0), (0, 0, 0), (0, 0, 0))
    e23 = ((0, 0, 0), (0, 0, y), (0, 0, 0))
    e13 = ((0, 0, z), (0, 0, 0), (0, 0, 0))
    return e12, e23, e13


def test_rational_structure_constant_realized():
    # [x, y] = z/2 with z = 2 e13: [e12, e23] = e13 = z/2
    h = LieAlgebra(3, {(0, 1): {2: F(1, 2)}}, realization=_heisenberg_matrices(z=2))
    assert h.ad_columns(unit(h, 0))[1] == [0, 0, F(1, 2)]
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: F(1, 3)}}, realization=_heisenberg_matrices(z=2))


@pytest.mark.parametrize("tamper", ["a long row 1", "a short row 2"])
@pytest.mark.parametrize("which", [(0, 1, 2), (2,)])
def test_ragged_realization_refused(tamper, which):
    # every row of every matrix must have n entries, not only the first row
    mats = [[list(row) for row in m] for m in _heisenberg_matrices()]
    for k in which:
        if tamper == "a long row 1":
            mats[k][1] += [0, 0]
        else:
            mats[k][2].pop()  # a trailing zero
    with pytest.raises(StructureError, match="^realization matrices must be square of equal size$"):
        LieAlgebra(3, {(0, 1): {2: 1}}, realization=mats)


def test_rational_realization_entries():
    # x = e12/2, y = e23, z = e13/2: [x, y] = e13/2 = z
    mats = _heisenberg_matrices(x=F(1, 2), z=F(1, 2))
    h = LieAlgebra(3, {(0, 1): {2: 1}}, realization=mats)
    assert h.realization == mats
    # held exactly: ints where integral, Fractions elsewhere
    assert [type(x) for x in h.realization[0][0]] == [int, F, int]
    whole = LieAlgebra(3, {(0, 1): {2: 1}}, realization=_heisenberg_matrices(x=F(2, 2)))
    assert type(whole.realization[0][0][1]) is int
    with pytest.raises(StructureError):
        LieAlgebra(3, {(0, 1): {2: 2}}, realization=mats)


def rescaled(g, scales):
    """The same algebra in the basis x_i / scales[i]: the structure constants
    and the realization become non-integral, the index does not change."""
    structure = {}
    for i, j, r, c in g.structure_items():
        structure.setdefault((i, j), {})[r] = F(c * scales[r], scales[i] * scales[j])
    mats = tuple(tuple(tuple(F(x, s) for x in row) for row in m) for m, s in zip(g.realization, scales))
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
        psi = tuple(c / s for c, s in zip(phi, scales))
        assert kernel_dim(h, psi) == kernel_dim(g, phi)
        assert kernel_dim(h, psi) == h.dim - ref.rank(kirillov_matrix(h, psi))


# -- kirillov matrix -------------------------------------------------------------


def test_kirillov_heisenberg():
    h = heisenberg()
    b = kirillov_matrix(h, form(h, [0, 0, 1]))
    assert b == ref.Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_kirillov_zero_form():
    g = gl(2)
    assert kirillov_matrix(g, form(g, [0] * 4)) == ref.Matrix.zeros(4, 4)


def test_kirillov_abelian():
    a = abelian(3)
    assert kirillov_matrix(a, form(a, [5, -1, 2])) == ref.Matrix.zeros(3, 3)


def test_kirillov_skew_and_linear():
    g = gl(2)
    rng = random.Random(11)
    for _ in range(20):
        phi = random_form(g, rng.randint(0, 10**6), bound=50)
        psi = random_form(g, rng.randint(0, 10**6), bound=50)
        bphi, bpsi = kirillov_matrix(g, phi), kirillov_matrix(g, psi)
        assert ref.transpose(bphi) == bphi.scale(-1)
        combo = tuple(3 * a - 2 * b for a, b in zip(phi, psi))
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
