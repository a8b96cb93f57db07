"""Seaweeds built by the full-check constructor, as ``flag_seaweed`` first did.

``flag_seaweed`` restricts one checked ambient algebra per family and rank
(``LieAlgebra.restrict``), which checks closure and inherits the ambient's
Jacobi and realization identities.  This version derives the killed entries
itself, re-indexes the ambient table into a structure dict and hands it to
``LieAlgebra(...)``, so antisymmetry, Jacobi and the realization are checked
again for every seaweed; the tests hold both routes to the same JSON.
"""

from seaweeds.construct import AmbientAlgebra, _ambient_basis, _ambient_view
from seaweeds.lie import LieAlgebra, StructureError


def full_check_seaweed(family, n, a, b):
    amb = AmbientAlgebra(family, n)
    size = amb.matrix_size
    killed = set()
    for p in a.prefix_sums():
        killed.update((r, c) for r in range(p, size) for c in range(p))
    for q in b.reversed().prefix_sums():
        killed.update((r, c) for r in range(size - q) for c in range(size - q, size))
    view = _ambient_view(amb.family, n)
    kept = [k for k, support in enumerate(view.supports) if support.isdisjoint(killed)]
    position = {k: t for t, k in enumerate(kept)}
    structure = {}
    for (i, j), terms in view.table.items():
        if i in position and j in position:
            if not position.keys() >= terms.keys():
                raise StructureError("flag stabilizer is not closed under bracket")
            structure[(position[i], position[j])] = {position[r]: c for r, c in terms.items()}
    mats = _ambient_basis(amb.family, n)
    return LieAlgebra(
        len(kept),
        structure,
        realization=tuple(mats[k] for k in kept),
        label=f"{amb.family}{size}[{a}|{b}]",
    )
