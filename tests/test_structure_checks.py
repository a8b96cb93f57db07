"""LieAlgebra's sparse construction against the dense reference, on random
integer matrices and on every small seaweed's matrices, tampered with."""

import dense_checks
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweeds import seaweed
from seaweeds.classify import composition_pairs
from seaweeds.construct import LIMITS, _ambient
from seaweeds.lie import LieAlgebra, StructureError

SMALL = [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3), ("SP", 1), ("SP", 2)]
SMALL += [("SO", n) for n in (2, 3, 4, 5)]
SEAWEEDS = [seaweed(f, n, a, b) for f, n in SMALL for a, b in composition_pairs(f, n)]

coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3])
entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2])


def agrees_with_dense_reference(mats):
    """The constructor and ``dense_checks.read_table`` give one verdict, and
    on acceptance one table, on which the dense Jacobi sum and realization
    check hold.  Returns whether the matrices were accepted."""
    try:
        g = LieAlgebra(mats)
    except StructureError as exc:
        assert str(exc) == dense_checks.verdict(mats)
        return False
    assert list(g._table.items()) == list(dense_checks.read_table(mats).items())
    dense_checks.check_jacobi(g.dim, g._table)
    dense_checks.check_realization(g.dim, g._table, g.realization)
    return True


def with_entry(m, u, v, x):
    rows = [list(row) for row in m]
    rows[u][v] = x
    return tuple(tuple(row) for row in rows)


@st.composite
def random_algebras(draw):
    """Random dense integer matrices, or elementary matrices at distinct
    entries, which keep the pivot rule so that closure is tested, with
    one entry changed or not."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(0, 5))
    if draw(st.booleans()):
        dense = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        return tuple(draw(dense) for _ in range(dim))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=dim, unique=True))
    mats = [with_entry([[0] * n for _ in range(n)], u, v, 1) for u, v in cells]
    if mats and draw(st.booleans()):
        k, u, v = draw(st.integers(0, len(mats) - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mats[k] = with_entry(mats[k], u, v, mats[k][u][v] + draw(coefficients))
    return tuple(mats)


@st.composite
def tampered_seaweeds(draw):
    g = draw(st.sampled_from(SEAWEEDS))
    mats = list(g.realization)
    for _ in range(draw(st.integers(0, 2))):
        if g.dim < 1:
            break
        k = draw(st.integers(0, g.dim - 1))
        size = len(mats[k])
        u, v = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        mats[k] = with_entry(mats[k], u, v, mats[k][u][v] + draw(coefficients))
    return tuple(mats)


@settings(max_examples=300, deadline=None)
@given(random_algebras())
def test_sparse_checks_agree_with_dense_reference_on_random_algebras(mats):
    agrees_with_dense_reference(mats)


@settings(max_examples=300, deadline=None)
@given(tampered_seaweeds())
def test_sparse_checks_agree_with_dense_reference_on_tampered_seaweeds(mats):
    agrees_with_dense_reference(mats)


def test_dense_reference_accepts_every_small_seaweed():
    for g in SEAWEEDS:
        assert list(dense_checks.read_table(g.realization).items()) == list(g._table.items()), g


def test_a_changed_realization_entry_is_refused_unless_it_still_realizes_the_table():
    """Every entry of every matrix of every small seaweed, raised by one:
    the verdict, and the table read on acceptance, are the dense ones."""
    refused = kept = 0
    for g in SEAWEEDS:
        for k, m in enumerate(g.realization):
            for u in range(len(m)):
                for v in range(len(m[u])):
                    mats = list(g.realization)
                    mats[k] = with_entry(m, u, v, m[u][v] + 1)
                    if agrees_with_dense_reference(mats):
                        kept += 1
                    else:
                        refused += 1
    # abelian pieces (tori, so(2)) keep some changes; most are refused
    assert refused > 10 * kept > 0


# -- the ambients under the dense identities -------------------------------------

LEAST = {"GL": 1, "SL": 2, "SP": 1, "SO": 2}


def has_private_entries(mats):
    """Every matrix has a nonzero entry at which every other matrix is 0."""
    size = len(mats[0])
    cells = [(u, v) for u in range(size) for v in range(size)]
    return all(
        any(m[u][v] and not any(o[u][v] for o in mats if o is not m) for u, v in cells) for m in mats
    )


@pytest.mark.parametrize("family,n", [(f, n) for f, top in sorted(LIMITS.items()) for n in range(LEAST[f], top + 1)])
def test_every_ambient_realization_is_faithful_and_its_table_satisfies_jacobi(family, n):
    # LieAlgebra derives both identities from closure; the dense sums run
    # here as the oracle
    g = _ambient(family, n)[0]
    assert has_private_entries(g.realization)
    dense_checks.check_realization(g.dim, g._table, g.realization)
    dense_checks.check_jacobi(g.dim, g._table)
