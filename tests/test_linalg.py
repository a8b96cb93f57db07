import random
from fractions import Fraction
from math import gcd, lcm

import fraction_reference as ref
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seaweeds.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    echelon_int_rows,
    intersect,
    is_squarefree,
    meets_trivially_int_rows,
    minimal_polynomial,
    nullspace,
    rank,
    rref_int_rows,
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


def int_rows(s):
    """The canonical basis rows of a subspace, each cleared of denominators."""
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in s.basis]


@given(subspace_pairs())
def test_intersect_properties(pair):
    u, v = pair
    w = intersect(u, v)
    assert w == intersect(v, u)
    assert intersect(u, u) == u
    assert w.dim >= u.dim + v.dim - u.ambient_dim
    assert u.contains_subspace(w) and v.contains_subspace(w)
    ur, vr = int_rows(u), int_rows(v)
    assert meets_trivially_int_rows(ur, vr) == (w.dim == 0) == meets_trivially_int_rows(vr, ur)


def unit_triangular(n, rng):
    """A random unit upper-triangular p and its inverse: p = I + N with N
    nilpotent, so p^-1 = I - N + N^2 - ... ."""
    p = Matrix.from_rows(
        [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)]
    )
    minus_n = Matrix.identity(n) - p
    inverse = power = Matrix.identity(n)
    for _ in range(n - 1):
        power = power @ minus_n
        inverse = inverse + power
    return p, inverse


def test_minpoly_conjugation_invariant():
    rng = random.Random(4096)
    for _ in range(30):
        n = rng.choice((2, 3))
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        (u, u_inv), (l, l_inv) = unit_triangular(n, rng), unit_triangular(n, rng)
        p, p_inv = u @ l.transpose(), l_inv.transpose() @ u_inv
        assert p @ p_inv == Matrix.identity(n)
        conj = p_inv @ m @ p
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
        m = (l_inv.transpose() @ u_inv @ jordan_matrix(blocks) @ u @ l.transpose()).scale(s)
        fractional += any(x.denominator > 1 for x in m.vec())
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
