"""Seaweeds built by the full-check constructor, as ``flag_seaweed`` first did.

``flag_seaweed`` selects the kept ambient basis matrices with bit masks and
restricts one checked ambient algebra per family and rank
(``LieAlgebra.restrict``), which walks only the kept elements' rows of its
table, checks closure and inherits the ambient's Jacobi and realization
identities.  This version keeps the first route throughout:
``killed_entry_kept`` collects the killed entries as a set of (row, column)
pairs and tests each support against it, ``full_walk_restriction`` walks the
whole parent table, and ``full_check_seaweed`` hands the re-indexed table to
``LieAlgebra(...)``, so antisymmetry, Jacobi and the realization are checked
again for every seaweed; the tests hold both routes to the same JSON.
"""

from seaweeds.construct import AmbientAlgebra, _ambient_basis, _ambient_view
from seaweeds.lie import LieAlgebra, StructureError


def killed_entry_kept(family, n, a, b):
    """The indices of the ambient basis matrices whose support misses every
    entry the two flags kill; raises StructureError when a killed entry is
    shared by two of them."""
    amb = AmbientAlgebra(family, n)
    size = amb.matrix_size
    killed = set()
    for p in a.prefix_sums():
        killed.update((r, c) for r in range(p, size) for c in range(p))
    for q in b.reversed().prefix_sums():
        killed.update((r, c) for r in range(size - q) for c in range(size - q, size))
    view = _ambient_view(amb.family, n)
    if not view.shared.isdisjoint(killed):
        raise StructureError("a killed entry is shared by two ambient basis matrices")
    return [k for k, support in enumerate(view.supports) if support.isdisjoint(killed)]


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
    amb = AmbientAlgebra(family, n)
    kept = killed_entry_kept(family, n, a, b)
    position = {k: t for t, k in enumerate(kept)}
    structure = {}
    for (i, j), terms in _ambient_view(amb.family, n).table.items():
        if i in position and j in position:
            if not position.keys() >= terms.keys():
                raise StructureError("flag stabilizer is not closed under bracket")
            structure[(position[i], position[j])] = {position[r]: c for r, c in terms.items()}
    mats = _ambient_basis(amb.family, n)
    return LieAlgebra(
        len(kept),
        structure,
        realization=tuple(mats[k] for k in kept),
        label=f"{amb.family}{amb.matrix_size}[{a}|{b}]",
    )
