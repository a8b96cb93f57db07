"""Type-A seaweeds in the block picture, as ``gln_seaweed`` first built them.

``seaweed("GL", ...)`` restricts the checked ambient gl(n) to the basis
matrices whose support avoids the entries two coordinate flags kill.  This
version writes the block picture out directly: e_ij belongs to the seaweed
when blockA(i) <= blockA(j) and blockB(i) >= blockB(j), and its table comes
from [e_ij, e_kl] = d_jk e_il - d_li e_kj.  The tests hold both routes to
the same basis, table and realization.  ``matrix_span`` is the subspace a
realization spans, from the Fraction Gauss-Jordan of ``fraction_reference``.
"""

from fractions import Fraction

import fraction_reference as ref

from seaweeds.lie import LieAlgebra
from seaweeds.linalg import Matrix


def _block_lookup(comp):
    # position -> index of the part containing it (0-based positions)
    blocks = []
    for idx, p in enumerate(comp.parts):
        blocks.extend([idx] * p)
    return blocks


def _elementary(n, i, j):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = Fraction(1)
    return Matrix(tuple(tuple(r) for r in rows))


def gln_seaweed(a, b):
    """Type-A seaweed in the block picture.

    Basis: all e_ij with blockA(i) <= blockA(j) and blockB(i) >= blockB(j),
    in row-major order (which is also the canonical echelon order of the
    vectorized span).  Structure constants come from
    [e_ij, e_kl] = d_jk e_il - d_li e_kj; both targets stay inside the basis
    because the block conditions are transitive.
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
    mats = tuple(_elementary(n, i, j) for i, j in pairs)
    return LieAlgebra(len(pairs), structure, realization=mats, label=f"GL{n}[{a}|{b}]")


def matrix_span(g):
    """Canonical subspace of the ambient matrix space spanned by the
    realization (for cross-constructor comparisons)."""
    if g.realization is None:
        raise ValueError("algebra has no matrix realization")
    if not g.realization:
        raise ValueError("empty realization")
    size = g.realization[0].nrows
    return ref.span([ref.vec(m) for m in g.realization], size * size)
