"""LieAlgebra's sparse construction-time checks against the dense reference,
and tamper detection on every small seaweed."""

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


def structure_of(g):
    out = {}
    for i, j, r, c in g.structure_items():
        out.setdefault((i, j), {})[r] = c
    return out


def sparse_verdict(dim, structure, realization=None):
    try:
        LieAlgebra(dim, structure, realization=realization)
    except StructureError as exc:
        return str(exc)
    return None


def with_entry(m, u, v, x):
    rows = [list(row) for row in m]
    rows[u][v] = x
    return tuple(tuple(row) for row in rows)


@st.composite
def random_algebras(draw):
    dim = draw(st.integers(0, 5))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    structure = {}
    if pairs:
        terms = st.dictionaries(st.integers(0, dim - 1), coefficients, max_size=2)
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            structure[pair] = draw(terms)
    realization = None
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        realization = tuple(draw(matrix) for _ in range(dim))
    return dim, structure, realization


@st.composite
def tampered_seaweeds(draw):
    g = draw(st.sampled_from(SEAWEEDS))
    structure = structure_of(g)
    mats = list(g.realization)
    for _ in range(draw(st.integers(0, 2))):
        if g.dim < 2:
            break
        if draw(st.booleans()):
            i = draw(st.integers(0, g.dim - 2))
            j = draw(st.integers(i + 1, g.dim - 1))
            r = draw(st.integers(0, g.dim - 1))
            structure.setdefault((i, j), {})[r] = draw(st.sampled_from([0, 1, -1, 2]))
        else:
            k = draw(st.integers(0, g.dim - 1))
            size = len(mats[k])
            u, v = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            mats[k] = with_entry(mats[k], u, v, mats[k][u][v] + draw(coefficients))
    return g.dim, structure, tuple(mats)


@settings(max_examples=300, deadline=None)
@given(random_algebras())
def test_sparse_checks_agree_with_dense_reference_on_random_algebras(case):
    assert sparse_verdict(*case) == dense_checks.verdict(*case)


@settings(max_examples=300, deadline=None)
@given(tampered_seaweeds())
def test_sparse_checks_agree_with_dense_reference_on_tampered_seaweeds(case):
    assert sparse_verdict(*case) == dense_checks.verdict(*case)


def test_dense_reference_accepts_every_small_seaweed():
    for g in SEAWEEDS:
        assert dense_checks.verdict(g.dim, structure_of(g), g.realization) is None


def test_every_changed_table_coefficient_is_refused():
    """Every stored coefficient, and one absent coefficient of every pair."""
    for g in SEAWEEDS:
        structure = structure_of(g)
        changes = [(i, j, r, c + 1) for i, j, r, c in g.structure_items()]
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                absent = [r for r in range(g.dim) if r not in structure.get((i, j), {})]
                if absent:
                    changes.append((i, j, absent[0], 1))
        for i, j, r, c in changes:
            changed = {pair: dict(terms) for pair, terms in structure.items()}
            changed.setdefault((i, j), {})[r] = c
            assert sparse_verdict(g.dim, changed, g.realization) is not None, (g, i, j, r)


def _still_realizes(g, structure, k, u, v):
    """Does X_k + E_uv, with every other matrix kept, still realize the table?

    Only when x_k is not a term of a bracket [x_i, x_j] with k not in {i, j}
    (that right-hand side would move by E_uv while its left-hand side stays),
    and [E_uv, X_j] equals E_uv times the x_k-coefficient of [x_k, x_j] for
    every j != k.
    """
    for (i, j), terms in structure.items():
        if k not in (i, j) and terms.get(k):
            return False
    for j, m in enumerate(g.realization):
        if j == k:
            continue
        if k < j:
            own = structure.get((k, j), {}).get(k, 0)
        else:
            own = -structure.get((j, k), {}).get(k, 0)
        size = len(m)
        # [E_uv, X] = E_uv X - X E_uv: row v of X moved to row u, minus
        # column u of X moved to column v
        comm = {}
        for b in range(size):
            comm[(u, b)] = comm.get((u, b), 0) + m[v][b]
        for a in range(size):
            comm[(a, v)] = comm.get((a, v), 0) - m[a][u]
        comm[(u, v)] -= own
        if any(comm.values()):
            return False
    return True


def test_a_changed_realization_entry_is_refused_unless_it_still_realizes_the_table():
    refused = kept = 0
    for g in SEAWEEDS:
        structure = structure_of(g)
        for k, m in enumerate(g.realization):
            for u in range(len(m)):
                for v in range(len(m[u])):
                    mats = list(g.realization)
                    mats[k] = with_entry(m, u, v, m[u][v] + 1)
                    verdict = sparse_verdict(g.dim, structure, mats)
                    if _still_realizes(g, structure, k, u, v):
                        assert verdict is None, (g, k, u, v)
                        kept += 1
                    else:
                        assert verdict is not None, (g, k, u, v)
                        refused += 1
    # abelian pieces (tori, so(2)) keep some changes; most are refused
    assert refused > 10 * kept > 0


# -- Jacobi from a faithful realization ----------------------------------------

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
    # LieAlgebra skips the Jacobi sum on a faithful realization; the sum
    # it skips still holds, run here as the oracle
    g = _ambient(family, n)[0]
    assert has_private_entries(g.realization)
    assert g._check_realization() is True
    g._check_jacobi()


# [x0, x1] = x2 and [x0, x2] = x0 fail Jacobi on (0, 1, 2)
NOT_JACOBI = {(0, 1): {2: 1}, (0, 2): {0: 1}}
JACOBI_MESSAGE = "Jacobi identity fails on triple (0,1,2)"


@pytest.mark.parametrize("realization", [
    (((1,),), ((0.5,),), ((0,),)),  # an entry that is not an int (TypeError alone)
    (((0,),), ((0,),), ((1,),)),  # [X0, X1] = 0 is not X2
    (((0,),), ((0,),)),  # one matrix short
    (((0,),), ((0,),), ((0,),)),  # realizes the table, but with no private entry
], ids=["float", "incompatible", "short", "unfaithful"])
def test_a_table_failing_jacobi_reports_jacobi_whatever_its_realization(realization):
    assert dense_checks.verdict(3, NOT_JACOBI) == JACOBI_MESSAGE
    with pytest.raises(StructureError) as caught:
        LieAlgebra(3, NOT_JACOBI, realization=realization)
    assert str(caught.value) == JACOBI_MESSAGE
