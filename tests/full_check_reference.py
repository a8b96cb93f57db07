"""Seaweeds built by the full-check constructor, as ``seaweed`` first did.

``seaweed`` selects the kept ambient basis matrices with bit masks and
restricts one checked ambient algebra per family and rank
(``LieAlgebra.restrict``), which walks only the kept elements' rows of its
table, checks closure and inherits the rest from the ambient.  This
version keeps the first route throughout: ``killed_entry_kept`` collects
the killed entries as a set of (row, column) pairs and tests each support
against it, ``full_walk_restriction`` walks the whole parent table, and
``full_check_seaweed`` builds every seaweed afresh from its kept matrices
with ``LieAlgebra(...)``, which checks the pivot rule and closure again
and reads a table that must equal the re-indexed ambient table; the tests
hold both routes to the same table and realization.  The ambient supports,
shared entries and table come from the rational basis of
``fraction_reference.ambient_basis``, whose entries are integers, and this
module's own sparse commutators, so nothing here is taken from
``construct``'s ambient.
"""

from functools import lru_cache

from fraction_reference import ambient_basis
from seaweeds.construct import matrix_size
from seaweeds.lie import LieAlgebra, StructureError


def _sparse(m):
    return {(u, v): x for u, row in enumerate(m) for v, x in enumerate(row) if x}


def _commutator(x, y):
    """XY - YX for sparse matrices {(u, v): c}, summed entry by entry."""
    out = {}
    for (u, v), p in x.items():
        for (w, t), q in y.items():
            if v == w:
                out[(u, t)] = out.get((u, t), 0) + p * q
            if t == u:
                out[(w, v)] = out.get((w, v), 0) - p * q
    return {e: c for e, c in out.items() if c}


def _ints(m):
    """A rational matrix of integer entries as int rows, as ``LieAlgebra``
    takes its matrices."""
    assert all(x.denominator == 1 for row in m for x in row), m
    return tuple(tuple(int(x) for x in row) for row in m)


@lru_cache(maxsize=None)
def ambient_view(family, n):
    """The rational ambient basis (``fraction_reference.ambient_basis``),
    as int matrices, with its supports, its shared entries and its table.  The basis is in
    rational RREF, so each matrix is 1 at its pivot (its first nonzero
    entry in row-major order) and every other one is 0 there: the table
    holds a commutator's values at the pivots."""
    mats = tuple(_ints(m) for m in ambient_basis(family, n))
    sparse = [_sparse(m) for m in mats]
    owner = {min(entries): k for k, entries in enumerate(sparse)}
    seen, shared = set(), set()
    for entries in sparse:
        shared.update(seen.intersection(entries))
        seen.update(entries)
    table = {}
    for i, x in enumerate(sparse):
        for j in range(i + 1, len(sparse)):
            coords = {owner[e]: c for e, c in _commutator(x, sparse[j]).items() if e in owner}
            if coords:
                table[(i, j)] = coords
    return mats, tuple(frozenset(entries) for entries in sparse), frozenset(shared), table


def killed_entry_kept(family, n, a, b):
    """The indices of the ambient basis matrices whose support misses every
    entry the two flags kill; raises StructureError when a killed entry is
    shared by two of them."""
    size = matrix_size(family, n)
    killed = set()
    for p in a.prefix_sums():
        killed.update((r, c) for r in range(p, size) for c in range(p))
    for q in b.reversed().prefix_sums():
        killed.update((r, c) for r in range(size - q) for c in range(size - q, size))
    _, supports, shared, _ = ambient_view(family, n)
    if not shared.isdisjoint(killed):
        raise StructureError("a killed entry is shared by two ambient basis matrices")
    return [k for k, support in enumerate(supports) if support.isdisjoint(killed)]


def full_walk_restriction(g, kept):
    """The table of ``g.restrict(kept)`` from a walk over every pair of the
    parent's table, in its order: (i, j) -> ((r, c), ...) re-indexed."""
    position = {k: t for t, k in enumerate(kept)}
    table = {}
    for (i, j), terms in g._table.items():
        if i in position and j in position:
            if not all(r in position for r, _ in terms):
                raise StructureError(f"kept elements are not closed under bracket ({i},{j})")
            table[(position[i], position[j])] = tuple((position[r], c) for r, c in terms)
    return table


def full_check_seaweed(family, n, a, b):
    kept = killed_entry_kept(family, n, a, b)
    position = {k: t for t, k in enumerate(kept)}
    structure = {}
    mats, _, _, table = ambient_view(family, n)
    for (i, j), terms in table.items():
        if i in position and j in position:
            if not position.keys() >= terms.keys():
                raise StructureError("flag stabilizer is not closed under bracket")
            structure[(position[i], position[j])] = {position[r]: c for r, c in terms.items()}
    g = LieAlgebra(tuple(mats[k] for k in kept), label=f"{family}{matrix_size(family, n)}[{a}|{b}]")
    assert {pair: dict(terms) for pair, terms in g._table.items()} == structure, g
    return g
