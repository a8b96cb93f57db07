"""The skew-symmetric (Pfaffian) elimination against the general integer
routines, the rational reference route and an independent Pfaffian."""

import random
from fractions import Fraction

import fraction_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweeds import seaweed
from seaweeds.classify import composition_pairs
from seaweeds.contact import is_contact_form
from seaweeds.lie import index
from seaweeds.linalg import (
    _skew_pivots,
    kernel_int_rows,
    rank_int_rows,
    skew_kernel_int_rows,
    skew_rank_int_rows,
)

F = Fraction
Matrix, Subspace = ref.Matrix, ref.Subspace
clear_denominators = ref.clear_denominators

FAMILIES = [("GL", n) for n in (1, 2, 3, 4)] + [("SL", n) for n in (2, 3, 4, 5)]
FAMILIES += [("SP", n) for n in (1, 2, 3)] + [("SO", n) for n in (3, 4, 5, 6, 7)]
SEAWEEDS = [seaweed(f, n, a, b) for f, n in FAMILIES for a, b in composition_pairs(f, n)]


def pfaffian(rows, order):
    """Pfaffian of the principal minor on ``order``, in that order, by
    expansion along its first index."""
    if not order:
        return 1
    first, rest = order[0], order[1:]
    total = 0
    for pos, j in enumerate(rest):
        if rows[first][j]:
            sign = -1 if pos % 2 else 1
            total += sign * rows[first][j] * pfaffian(rows, rest[:pos] + rest[pos + 1:])
    return total


def skew(n, upper):
    """The n x n skew matrix with the given strict upper triangle, row by row."""
    rows = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(entries)
            rows[j][i] = -rows[i][j]
    return rows


@st.composite
def skew_matrices(draw, entries=st.integers(-2, 2), max_n=8):
    n = draw(st.integers(0, max_n))
    rows = skew(n, draw(st.lists(entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    for z in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):  # zero rows
        for j in range(n):
            rows[z][j] = rows[j][z] = 0
    return rows


def check(rows):
    """Skew rank and kernel equal the general and the rational ones, and
    every pivot is the Pfaffian of the pivot block so far."""
    n = len(rows)
    kernel = skew_kernel_int_rows(rows)
    assert skew_rank_int_rows(rows) == rank_int_rows(rows) == n - len(kernel)
    assert kernel == kernel_int_rows(rows, n)
    if n:
        assert Subspace.from_int_rows(n, kernel) == ref.nullspace(Matrix.from_rows(rows))
    order = []
    for i, j, p, *_ in _skew_pivots(rows):
        order += [i, j]
        assert p == pfaffian(rows, order) != 0
    return kernel


@settings(max_examples=400, deadline=None)
@given(skew_matrices())
def test_small_entries_force_zero_pivots_and_rank_deficiency(rows):
    check(rows)


@settings(max_examples=100, deadline=None)
@given(skew_matrices(entries=st.integers(-10**6, 10**6), max_n=7))
def test_large_entries(rows):
    check(rows)


def test_empty_zero_and_tiny_matrices():
    assert check([]) == []
    assert check([[0]]) == [[1]]
    assert check([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert check([[0, 3], [-3, 0]]) == []
    assert check(skew(3, [0, 0, 5])) == [[1, 0, 0]]  # zero first row
    assert check(skew(4, [1, 2, 3, 4, 5, 6])) == []  # Pf = 1*6 - 2*5 + 3*4 = 8
    assert check(skew(4, [1, 2, 3, 4, 5, -2])) == [[2, 0, 3, -2], [0, 2, 5, -4]]  # Pf = 0


@pytest.mark.parametrize(
    "rows",
    [
        [[1]],  # nonzero diagonal
        [[0, 1], [1, 0]],  # symmetric
        [[0, 1], [-1, 0], [0, 0]],  # more rows than columns
        [[0, 1, 0], [-1, 0, 0]],  # more columns than rows
        [[0, 1], [-1]],  # ragged
        [[0, 1, 2], [-1, 0, 3], [-2, -3, 1]],  # one bad diagonal entry
        [[0, 1, 2], [-1, 0, 3], [2, -3, 0]],  # one bad lower entry
    ],
)
def test_non_square_or_non_skew_input_is_refused(rows):
    with pytest.raises(ValueError):
        skew_rank_int_rows(rows)
    with pytest.raises(ValueError):
        skew_kernel_int_rows(rows)


scalars = st.one_of(
    st.integers(-2, 2),
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
)


@st.composite
def kirillov_cases(draw):
    g = draw(st.sampled_from(SEAWEEDS))
    coords = draw(st.lists(scalars, min_size=g.dim, max_size=g.dim))
    return g, tuple(F(c) for c in coords)


@settings(max_examples=400, deadline=None)
@given(kirillov_cases())
def test_kirillov_matrices_of_seaweeds(case):
    g, form = case
    rows = g.kirillov_int_rows(clear_denominators(form)[0])
    # one common scale of the rational Kirillov matrix, so it stays skew
    rational = ref.kirillov_matrix(g, form).rows
    scales = {F(a) / b for row, rrow in zip(rows, rational) for a, b in zip(row, rrow) if b}
    assert len(scales) <= 1 and all(s > 0 for s in scales)
    kernel = check(rows)
    assert Subspace.from_int_rows(g.dim, kernel) == ref.kirillov_kernel(g, form)


INDEX_ONE = [
    g
    for f, n in [("SL", 2), ("SL", 3), ("SL", 4)] + [("SO", n) for n in (3, 4, 5, 6)]
    for a, b in composition_pairs(f, n)
    for g in [seaweed(f, n, a, b)]
    if index(g, seed=0).index == 1
]


def test_bordered_volume_test_agrees_with_the_kernel_test_on_index_one_seaweeds():
    assert len(INDEX_ONE) > 50
    rng = random.Random(2024)
    for g in INDEX_ONE:
        forms = [[0] * g.dim] + [[rng.randint(-3, 3) for _ in range(g.dim)] for _ in range(3)]
        for coords in forms:
            volume = ref.contact_volume_nonzero(g, coords)
            assert volume == (is_contact_form(g, coords) is not None)
            assert volume == (ref.is_contact_form(g, coords) is not None)
