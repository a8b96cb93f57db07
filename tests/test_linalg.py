import random
from fractions import Fraction
from math import gcd, lcm

import fraction_reference as ref
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seaweeds.linalg import (
    Matrix,
    Subspace,
    echelon_int_rows,
    is_squarefree,
    kernel_int_rows,
    meets_trivially_int_rows,
    minimal_polynomial,
    rank_int_rows,
    rref_int_rows,
    span_int_rows,
)

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


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


# -- minimal polynomial / squarefree -------------------------------------------


def test_minpoly_identity():
    assert minimal_polynomial(ref.identity(3)) == (F(-1), F(1))


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


def unit_triangular(n, rng):
    """A random unit upper-triangular p and its inverse: p = I + N with N
    nilpotent, so p^-1 = I - N + N^2 - ... ."""
    p = Matrix.from_rows(
        [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)]
    )
    minus_n = ref.identity(n) + p.scale(-1)
    inverse = power = ref.identity(n)
    for _ in range(n - 1):
        power = ref.matmul(power, minus_n)
        inverse = inverse + power
    return p, inverse


def test_minpoly_conjugation_invariant():
    rng = random.Random(4096)
    for _ in range(30):
        n = rng.choice((2, 3))
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        (u, u_inv), (l, l_inv) = unit_triangular(n, rng), unit_triangular(n, rng)
        p, p_inv = ref.matmul(u, ref.transpose(l)), ref.matmul(ref.transpose(l_inv), u_inv)
        assert ref.matmul(p, p_inv) == ref.identity(n)
        conj = ref.matmul(ref.matmul(p_inv, m), p)
        assert minimal_polynomial(conj) == minimal_polynomial(m)


def jordan_matrix(blocks):
    """Block-diagonal matrix of the Jordan blocks J_k(lam), one per (lam, k)."""
    n = sum(k for _, k in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    at = 0
    for lam, k in blocks:
        for i in range(at, at + k):
            rows[i][i] = lam
            if i + 1 < at + k:
                rows[i][i + 1] = F(1)
        at += k
    return Matrix.from_rows(rows)


def expand(roots):
    """Ascending coefficients of the product of (x - r) over the roots."""
    coeffs = [F(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
    return tuple(coeffs)


def test_minpoly_of_conjugated_jordan_matrices():
    # the minimal polynomial of a Jordan matrix has each eigenvalue to the
    # size of its largest block; conjugation keeps it, and scaling M by s
    # scales the roots by s
    rng = random.Random(1729)
    values = [F(v) for v in (-2, -1, 0, 1, 3)] + [F(1, 2), F(-5, 3)]
    fractional = 0
    for _ in range(40):
        blocks = [(rng.choice(values), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        n = sum(k for _, k in blocks)
        (u, u_inv), (l, l_inv) = unit_triangular(n, rng), unit_triangular(n, rng)
        s = rng.choice((F(1), F(1, 2), F(1, 3)))
        p, p_inv = ref.matmul(u, ref.transpose(l)), ref.matmul(ref.transpose(l_inv), u_inv)
        m = ref.matmul(ref.matmul(p_inv, jordan_matrix(blocks)), p).scale(s)
        fractional += any(x.denominator > 1 for x in ref.vec(m))
        largest = {}
        for lam, k in blocks:
            largest[lam] = max(largest.get(lam, 0), k)
        assert minimal_polynomial(m) == expand([s * lam for lam, k in largest.items() for _ in range(k)])
    assert fractional  # the denominator-clearing path ran


def test_squarefree_iff_no_repeated_root():
    rng = random.Random(314)
    values = [F(v) for v in range(-4, 5)] + [F(1, 2), F(-1, 3), F(5, 4)]
    outcomes = set()
    for _ in range(60):
        roots = rng.sample(values, rng.randint(1, 4))
        mults = [rng.choice((1, 1, 2, 3)) for _ in roots]
        c = F(rng.choice((1, -1, 2, 7)), rng.choice((1, 3, 4)))
        p = tuple(c * x for x in expand([r for r, k in zip(roots, mults) for _ in range(k)]))
        squarefree = is_squarefree(p)
        outcomes.add(squarefree)
        assert squarefree == all(k == 1 for k in mults)
    assert outcomes == {True, False}


def test_exactness_200_digit_numerators():
    rng = random.Random(20240817)
    for _ in range(50):
        a = rng.getrandbits(670) + 1  # roughly 200 decimal digits
        b = rng.getrandbits(670) + 1
        x = F(a, b)
        assert x * F(b, a) == 1
