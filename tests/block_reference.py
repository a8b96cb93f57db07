"""Type-A seaweeds in the block picture, as ``gln_seaweed`` first built them.

``seaweed("GL", ...)`` restricts the checked ambient gl(n) to the basis
matrices whose support avoids the entries two coordinate flags kill.  This
version writes the block picture out directly: e_ij belongs to the seaweed
when blockA(i) <= blockA(j) and blockB(i) >= blockB(j), and its table comes
from [e_ij, e_kl] = d_jk e_il - d_li e_kj, held to the table ``LieAlgebra``
reads off the same elementary matrices.  The tests hold both routes to
the same basis, table and realization.  ``matrix_span`` is the subspace a
realization spans, from the Fraction Gauss-Jordan of ``fraction_reference``.
"""

import fraction_reference as ref

from seaweeds.lie import LieAlgebra


def _block_lookup(comp):
    # position -> index of the part containing it (0-based positions)
    blocks = []
    for idx, p in enumerate(comp.parts):
        blocks.extend([idx] * p)
    return blocks


def _elementary(n, i, j):
    return tuple(tuple(int((u, v) == (i, j)) for v in range(n)) for u in range(n))


def gln_seaweed(a, b):
    """Type-A seaweed in the block picture.

    Basis: all e_ij with blockA(i) <= blockA(j) and blockB(i) >= blockB(j),
    in row-major order (which is also the canonical echelon order of the
    vectorized span).  Structure constants come from
    [e_ij, e_kl] = d_jk e_il - d_li e_kj; both targets stay inside the basis
    because the block conditions are transitive.  They must equal the
    table the constructor reads off the elementary matrices.
    """
    n = a.total
    if n != b.total:
        raise ValueError("composition totals differ")
    if n < 1:
        raise ValueError("compositions must be nonempty for gl(n)")
    blk_a, blk_b = _block_lookup(a), _block_lookup(b)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if blk_a[i] <= blk_a[j] and blk_b[i] >= blk_b[j]
    ]
    index_of = {p: t for t, p in enumerate(pairs)}
    structure = {}
    for t1, (i, j) in enumerate(pairs):
        for t2 in range(t1 + 1, len(pairs)):
            k, l = pairs[t2]
            acc = {}
            if j == k:
                target = index_of.get((i, l))
                assert target is not None, "seaweed not closed under bracket"
                acc[target] = acc.get(target, 0) + 1
            if l == i:
                target = index_of.get((k, j))
                assert target is not None, "seaweed not closed under bracket"
                acc[target] = acc.get(target, 0) - 1
            acc = {r: c for r, c in acc.items() if c}
            if acc:
                structure[(t1, t2)] = acc
    g = LieAlgebra(tuple(_elementary(n, i, j) for i, j in pairs), label=f"GL{n}[{a}|{b}]")
    assert {pair: dict(terms) for pair, terms in g._table.items()} == structure, g
    return g


def matrix_span(g):
    """Canonical subspace of the ambient matrix space spanned by the
    realization (for cross-constructor comparisons)."""
    if not g.realization:
        raise ValueError("empty realization")
    size = len(g.realization[0])
    return ref.span([ref.vec(m) for m in g.realization], size * size)
