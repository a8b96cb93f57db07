"""Dense reference versions of LieAlgebra's construction-time checks.

These are the checks as first written: the Jacobi identity summed over all
C(dim, 3) triples, and the realization compared with dense n^3 products for
every basis pair.  ``LieAlgebra`` runs sparse versions of both; the tests
hold the two to the same verdicts and the same error messages.

``table`` has ``LieAlgebra._table``'s shape: (i, j) with i < j maps to the
sorted nonzero terms ((r, c), ...) of [x_i, x_j].
"""

from seaweeds.lie import StructureError


def _basis_bracket(table, i, j):
    if i == j:
        return ()
    if i < j:
        return table.get((i, j), ())
    return tuple((r, -c) for r, c in table.get((j, i), ()))


def check_jacobi(dim, table):
    for i in range(dim):
        for j in range(i + 1, dim):
            ij = table.get((i, j))
            for k in range(j + 1, dim):
                jk = table.get((j, k))
                ik = table.get((i, k))
                if not (ij or jk or ik):
                    continue
                # [x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]] = 0
                acc = {}
                for r, c in jk or ():
                    for s, d in _basis_bracket(table, i, r):
                        acc[s] = acc.get(s, 0) + c * d
                for r, c in ik or ():  # [x_j,[x_k,x_i]] = -[x_j,[x_i,x_k]]
                    for s, d in _basis_bracket(table, j, r):
                        acc[s] = acc.get(s, 0) - c * d
                for r, c in ij or ():
                    for s, d in _basis_bracket(table, k, r):
                        acc[s] = acc.get(s, 0) + c * d
                if any(acc.values()):
                    raise StructureError(f"Jacobi identity fails on triple ({i},{j},{k})")


def check_realization(dim, table, mats):
    if len(mats) != dim:
        raise StructureError("realization must have one matrix per basis element")
    if dim == 0:
        return
    n = len(mats[0])
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise StructureError("realization matrices must be square of equal size")
    grids = [[list(row) for row in m] for m in mats]
    for i in range(dim):
        a = grids[i]
        for j in range(i + 1, dim):
            b = grids[j]
            exp = [[0] * n for _ in range(n)]
            for r, c in table.get((i, j), ()):
                for u in range(n):
                    for v in range(n):
                        exp[u][v] += c * grids[r][u][v]
            for u in range(n):
                for v in range(n):
                    comm = sum(a[u][k] * b[k][v] for k in range(n)) - sum(
                        b[u][k] * a[k][v] for k in range(n)
                    )
                    if comm != exp[u][v]:
                        raise StructureError(
                            f"realization incompatible with table on pair ({i},{j})"
                        )


def verdict(dim, structure, realization=None):
    """None when both dense checks pass, else the StructureError message.

    ``structure`` maps pairs (i, j) with i < j to {r: c}.
    """
    table = {}
    for pair, terms in structure.items():
        nonzero = tuple(sorted((r, c) for r, c in terms.items() if c))
        if nonzero:
            table[pair] = nonzero
    try:
        check_jacobi(dim, table)
        if realization is not None:
            check_realization(dim, table, realization)
    except StructureError as exc:
        return str(exc)
    return None
