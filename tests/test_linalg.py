import random
from fractions import Fraction
from math import gcd, lcm

import fraction_reference as ref
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seaweeds.linalg import (
    echelon_int_rows,
    kernel_int_rows,
    meets_trivially_int_rows,
    rank_int_rows,
    rref_int_rows,
    span_int_rows,
)

F = Fraction
Matrix, Subspace = ref.Matrix, ref.Subspace


def cleared(rows):
    """Rational rows, each cleared of denominators: the integer rows with
    the same row space."""
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# -- rank ---------------------------------------------------------------------


def test_rank_identity():
    assert rank_int_rows(IDENTITY) == 3


def test_rank_zero():
    assert rank_int_rows([[0] * 4 for _ in range(4)]) == 0


def test_rank_skew_two_blocks():
    assert rank_int_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]) == 4


def test_rank_rectangular():
    assert rank_int_rows([[1, 2, 3], [2, 4, 6]]) == 1


# -- kernels ------------------------------------------------------------------


def test_nullspace_identity_is_zero():
    assert kernel_int_rows(IDENTITY, 3) == []


def test_nullspace_zero_matrix_is_full():
    ns = kernel_int_rows([[0] * 5 for _ in range(5)], 5)
    assert Subspace.from_int_rows(5, ns) == ref.full(5)
    assert len(ns) == 5


def test_nullspace_single_pivot():
    assert kernel_int_rows([[0, 1], [0, 0]], 2) == [[1, 0]]


def test_nullspace_dimension_formula():
    rows = [[1, 2, 3], [4, 5, 6]]
    assert rank_int_rows(rows) + len(kernel_int_rows(rows, 3)) == 3


# -- subspaces and intersection ------------------------------------------------
#
# ``intersect`` is the test-side Fraction route; the integer meet test is
# held to it below.


def test_intersect_equal_subspaces():
    u = ref.span([[1, 2, 0], [0, 0, 1]], 3)
    assert ref.intersect(u, u) == u


def test_intersect_transverse_lines():
    u = ref.span([[1, 0]], 2)
    v = ref.span([[0, 1]], 2)
    assert ref.intersect(u, v) == ref.span([], 2)


def test_intersect_coordinate_planes():
    u = ref.span([[1, 0, 0], [0, 1, 0]], 3)
    v = ref.span([[0, 1, 0], [0, 0, 1]], 3)
    assert ref.intersect(u, v) == ref.span([[0, 1, 0]], 3)


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        ref.intersect(ref.span([], 2), ref.span([], 3))


def test_subspace_canonical_form_is_representation_independent():
    u = Subspace.from_int_rows(3, span_int_rows([[1, 1, 0], [0, 2, 2]]))
    v = Subspace.from_int_rows(3, span_int_rows([[2, 4, 2], [1, 1, 0]]))
    assert u == v == ref.span([[1, 1, 0], [0, 2, 2]], 3)


def test_subspace_contains():
    u = Subspace.from_int_rows(3, span_int_rows([[1, 0, 1], [0, 1, 0]]))
    assert ref.contains(u, [2, 3, 2])
    assert not ref.contains(u, [1, 0, 0])


# -- reduced echelon form ----------------------------------------------------


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


def test_rref_int_rows_matches_the_fraction_gauss_jordan_oracle():
    for rows in random_int_matrices(11, count=60):
        reduced, pivots = ref.rref(Matrix.from_rows(rows))
        int_pivots, int_rows = rref_int_rows(rows)
        assert tuple(int_pivots) == pivots
        assert tuple(tuple(F(v, row[p]) for v in row) for row, p in zip(int_rows, int_pivots)) == reduced.rows
        # the echelon rows: strictly increasing leading columns, as many as
        # the rank, spanning the same row space
        echelon = echelon_int_rows(rows)
        leads = [next(k for k, v in enumerate(row) if v) for row in echelon]
        assert leads == sorted(set(leads)) and len(echelon) == len(pivots)
        assert ref.rref(Matrix.from_rows(echelon)) == (reduced, pivots)


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
    rows = cleared(m.rows)
    assert rank_int_rows(rows) + len(kernel_int_rows(rows, m.ncols)) == m.ncols


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_permutation_invariant(m, rng):
    rows = list(m.rows)
    rng.shuffle(rows)
    cols = list(zip(*rows))
    rng.shuffle(cols)
    assert rank_int_rows(cleared(zip(*cols))) == rank_int_rows(cleared(m.rows))


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    vecs = st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=n)
    u = ref.span(draw(vecs), n)
    v = ref.span(draw(vecs), n)
    return u, v


@given(subspace_pairs())
def test_intersect_properties(pair):
    u, v = pair
    w = ref.intersect(u, v)
    assert w == ref.intersect(v, u)
    assert ref.intersect(u, u) == u
    assert w.dim >= u.dim + v.dim - u.ambient_dim
    assert all(ref.contains(u, x) and ref.contains(v, x) for x in w.basis)
    ur, vr = cleared(u.basis), cleared(v.basis)
    assert meets_trivially_int_rows(ur, vr) == (w.dim == 0) == meets_trivially_int_rows(vr, ur)


def test_exactness_200_digit_numerators():
    rng = random.Random(20240817)
    for _ in range(50):
        a = rng.getrandbits(670) + 1  # roughly 200 decimal digits
        b = rng.getrandbits(670) + 1
        x = F(a, b)
        assert x * F(b, a) == 1
