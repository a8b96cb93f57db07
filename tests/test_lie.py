import random
from fractions import Fraction

import pytest
import fraction_reference as ref
from block_reference import gln_seaweed
from fraction_reference import clear_denominators, kirillov_matrix
from stock_algebras import abelian, heisenberg, unit

from seaweeds import Composition, LieAlgebra, index
from seaweeds.lie import StructureError
from seaweeds.linalg import skew_rank_int_rows

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
    assert h.ad_int_rows(unit(h, 0))[1] == [0, 0, 1]  # [x, y] = z


def test_bracket_of_element_with_itself_vanishes():
    h = heisenberg()
    v = [2, -3, 5]
    rows = h.ad_int_rows(v)
    assert not any(sum(c * row[r] for c, row in zip(v, rows)) for r in range(h.dim))


def test_gl2_elementary_bracket():
    g = gl(2)  # basis order: e11, e12, e21, e22
    assert g.ad_int_rows(unit(g, 1))[2] == [1, 0, 0, -1]  # [e12, e21]


def test_ad_int_rows_are_brackets_with_the_basis():
    rng = random.Random(12)
    for h in (gl(3), heisenberg()):
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(h.dim)]
            rows = h.ad_int_rows(x)
            for j in range(h.dim):
                assert rows[j] == ref.bracket(h, x, unit(h, j))


# -- construction checks ---------------------------------------------------------


def test_the_table_is_read_off_the_matrices():
    # [e12, e23] = e13, read at e13's pivot; the other pairs commute
    assert list(heisenberg().structure_items()) == [(0, 1, 2, 1)]
    assert LieAlgebra(()).dim == 0


@pytest.mark.parametrize("bad", [F(1, 2), F(1, 1), True, 1.0], ids=repr)
def test_a_realization_entry_that_is_not_an_int_is_refused(bad):
    e12, e23, e13 = _heisenberg_matrices()
    e12 = ((0, bad, 0), *e12[1:])
    with pytest.raises(TypeError, match=r"^realization entry is .*, not an integer$"):
        LieAlgebra((e12, e23, e13))


@pytest.mark.parametrize("mats,message", [
    ((((0, 0), (0, 0)),), "basis matrix 0 is zero"),
    ((((1, 0), (0, 0)), ((0, 2), (0, 0))), "basis matrix 1 has pivot 2, not 1"),
    ((((0, -1), (0, 0)),), "basis matrix 0 has pivot -1, not 1"),
    ((((1, 0), (0, 1)), ((0, 0), (0, 1))), "basis matrix 0 is nonzero at the pivot of basis matrix 1"),
    ((((0, 1), (0, 0)), ((0, 1), (1, 0))), "basis matrix 1 is nonzero at the pivot of basis matrix 0"),
], ids=["zero", "pivot-2", "pivot-minus-1", "shared-later", "shared-earlier"])
def test_the_pivot_rule_is_enforced(mats, message):
    with pytest.raises(StructureError, match=f"^{message}$"):
        LieAlgebra(mats)


def test_realization_compatibility_enforced():
    # the matrices must span a space closed under the commutator
    e12, e23, e13 = _heisenberg_matrices()
    with pytest.raises(StructureError, match=r"^realization is not closed under bracket \(0,1\)$"):
        LieAlgebra((e12, e23))  # [e12, e23] = e13 is not in the span
    with pytest.raises(StructureError, match=r"^realization is not closed under bracket \(0,1\)$"):
        # e12 + e21 has its pivot at e12: [e11, e12 + e21] = e12 - e21 reads as x1 there
        LieAlgebra((((1, 0), (0, 0)), ((0, 1), (1, 0))))
    LieAlgebra((e12, e23, e13))


def _heisenberg_matrices():
    return heisenberg().realization


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
        LieAlgebra(mats)


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
