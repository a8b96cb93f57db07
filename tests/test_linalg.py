import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seaweeds.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    intersect,
    inverse,
    is_squarefree,
    minimal_polynomial,
    nullspace,
    poly_gcd,
    rank,
    rref,
    rref_int_rows,
    solve,
)

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


# -- rank ---------------------------------------------------------------------


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_zero():
    assert rank(Matrix.zeros(4, 4)) == 0


def test_rank_skew_two_blocks():
    m = M([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert rank(m) == 4


def test_rank_rectangular():
    assert rank(M([[1, 2, 3], [2, 4, 6]])) == 1


# -- nullspace ----------------------------------------------------------------


def test_nullspace_identity_is_zero():
    assert nullspace(Matrix.identity(3)) == Subspace.zero(3)


def test_nullspace_zero_matrix_is_full():
    ns = nullspace(Matrix.zeros(5, 5))
    assert ns == Subspace.full(5)
    assert ns.dim == 5


def test_nullspace_single_pivot():
    ns = nullspace(M([[0, 1], [0, 0]]))
    assert ns.basis == ((F(1), F(0)),)


def test_nullspace_dimension_formula():
    m = M([[1, 2, 3], [4, 5, 6]])
    assert rank(m) + nullspace(m).dim == 3


# -- subspaces and intersection ------------------------------------------------


def test_intersect_equal_subspaces():
    u = Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3)
    assert intersect(u, u) == u


def test_intersect_transverse_lines():
    u = Subspace.from_vectors([[1, 0]], 2)
    v = Subspace.from_vectors([[0, 1]], 2)
    assert intersect(u, v) == Subspace.zero(2)


def test_intersect_coordinate_planes():
    u = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    v = Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)
    assert intersect(u, v) == Subspace.from_vectors([[0, 1, 0]], 3)


def test_intersect_dimension_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(Subspace.zero(2), Subspace.zero(3))


def test_subspace_canonical_form_is_representation_independent():
    u = Subspace.from_vectors([[1, 1, 0], [0, 2, 2]], 3)
    v = Subspace.from_vectors([[2, 4, 2], [1, 1, 0]], 3)
    assert u == v


def test_subspace_contains():
    u = Subspace.from_vectors([[1, 0, 1], [0, 1, 0]], 3)
    assert u.contains([2, 3, 2])
    assert not u.contains([1, 0, 0])


# -- solve / inverse -----------------------------------------------------------


def test_solve_unique():
    a = M([[2, 1], [1, 3]])
    x = solve(a, [5, 10])
    assert x == (F(1), F(3))


def test_solve_inconsistent():
    assert solve(M([[1, 1], [1, 1]]), [0, 1]) is None


def test_inverse_roundtrip():
    a = M([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    assert a @ inverse(a) == Matrix.identity(3)


def test_inverse_singular():
    with pytest.raises(ValueError):
        inverse(M([[1, 2], [2, 4]]))


def test_rref_pivots():
    reduced, pivots = rref(M([[0, 2, 4], [0, 1, 2]]))
    assert pivots == (1,)
    assert reduced.rows == ((F(0), F(1), F(2)),)


def random_int_matrices(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mag = rng.choice((1, 3, 10**6))
        rows = [[rng.randint(-mag, mag) for _ in range(n)] for _ in range(m)]
        # sprinkle in rank deficiency
        if m > 1 and rng.random() < 0.4:
            scale = rng.randint(-2, 2)
            rows[-1] = [scale * x for x in rows[0]]
        cases.append(rows)
    cases.append([[0, 0], [0, 0]])
    cases.append([])
    return cases


def test_rref_output_is_primitive_with_positive_pivot():
    for rows in random_int_matrices(3, count=40):
        pivots, out = rref_int_rows(rows)
        for piv, row in zip(pivots, out):
            assert row[piv] > 0
            g = 0
            for v in row:
                g = gcd(g, abs(v))
            assert g in (0, 1)


# -- minimal polynomial / squarefree -------------------------------------------


def test_minpoly_identity():
    assert minimal_polynomial(Matrix.identity(3)) == (F(-1), F(1))


def test_minpoly_nilpotent():
    assert minimal_polynomial(M([[0, 1], [0, 0]])) == (F(0), F(0), F(1))


def test_minpoly_diag_distinct():
    assert minimal_polynomial(M([[1, 0], [0, 2]])) == (F(2), F(-3), F(1))


def test_minpoly_requires_square():
    with pytest.raises(ValueError):
        minimal_polynomial(M([[1, 2, 3], [4, 5, 6]]))


def test_squarefree_examples():
    assert not is_squarefree((F(0), F(0), F(1)))          # t^2
    assert is_squarefree((F(2), F(-3), F(1)))             # (t-1)(t-2)
    assert is_squarefree((F(0), F(-1), F(0), F(1)))       # t^3 - t


def test_squarefree_zero_polynomial():
    with pytest.raises(ValueError):
        is_squarefree(())


def test_poly_gcd_monic():
    # gcd(t^2 - 1, t^2 - 2t + 1) = t - 1
    assert poly_gcd((F(-1), F(0), F(1)), (F(1), F(-2), F(1))) == (F(-1), F(1))


# -- property tests -------------------------------------------------------------

small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def matrices(draw, max_size=5):
    nrows = draw(st.integers(1, max_size))
    ncols = draw(st.integers(1, max_size))
    rows = draw(
        st.lists(
            st.lists(small_fraction, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix.from_rows(rows)


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).dim == m.ncols


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_permutation_invariant(m, rng):
    rows = list(m.rows)
    rng.shuffle(rows)
    cols = list(zip(*rows))
    rng.shuffle(cols)
    shuffled = Matrix(tuple(zip(*cols)))
    assert rank(shuffled) == rank(m)


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    vecs = st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=n)
    u = Subspace.from_vectors(draw(vecs), n)
    v = Subspace.from_vectors(draw(vecs), n)
    return u, v


@given(subspace_pairs())
def test_intersect_properties(pair):
    u, v = pair
    w = intersect(u, v)
    assert w == intersect(v, u)
    assert intersect(u, u) == u
    assert w.dim >= u.dim + v.dim - u.ambient_dim
    assert u.contains_subspace(w) and v.contains_subspace(w)


def test_minpoly_conjugation_invariant():
    rng = random.Random(4096)
    for _ in range(30):
        n = rng.choice((2, 3))
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        while True:
            p = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(p) == n:
                break
        conj = inverse(p) @ m @ p
        assert minimal_polynomial(conj) == minimal_polynomial(m)


def test_exactness_200_digit_numerators():
    rng = random.Random(20240817)
    for _ in range(50):
        a = rng.getrandbits(670) + 1  # roughly 200 decimal digits
        b = rng.getrandbits(670) + 1
        x = F(a, b)
        assert x * F(b, a) == 1
