"""Dense reference versions of LieAlgebra's construction.

``read_table`` is the constructor written out densely: the pivot rule on
every matrix, then every pair's commutator as dense n^3 products, its
values at the pivots and its residual.  ``LieAlgebra`` does the same
sparsely, over the pairs whose supports meet; the tests hold the two to
the same tables, the same verdicts and the same error messages.  On a
table the constructor accepts, ``check_jacobi`` sums the Jacobi identity
over all C(dim, 3) triples and ``check_realization`` compares every pair's
commutator with the table, the identities the constructor derives.

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


def _product(a, b, n):
    return [[sum(a[u][k] * b[k][v] for k in range(n)) for v in range(n)] for u in range(n)]


def read_table(mats):
    """The table ``LieAlgebra(mats)`` reads, or its StructureError."""
    dim = len(mats)
    n = len(mats[0]) if mats else 0
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise StructureError("realization matrices must be square of equal size")
    cells = [(u, v) for u in range(n) for v in range(n)]
    pivots = []
    for k, m in enumerate(mats):
        nonzero = [(u, v) for u, v in cells if m[u][v]]
        if not nonzero:
            raise StructureError(f"basis matrix {k} is zero")
        u, v = nonzero[0]
        if m[u][v] != 1:
            raise StructureError(f"basis matrix {k} has pivot {m[u][v]}, not 1")
        for j in range(dim):
            if j != k and mats[j][u][v]:
                raise StructureError(f"basis matrix {j} is nonzero at the pivot of basis matrix {k}")
        pivots.append((u, v))
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ij, ji = _product(mats[i], mats[j], n), _product(mats[j], mats[i], n)
            comm = [[ij[u][v] - ji[u][v] for v in range(n)] for u in range(n)]
            terms = tuple((r, comm[u][v]) for r, (u, v) in enumerate(pivots) if comm[u][v])
            for u, v in cells:
                if comm[u][v] != sum(c * mats[r][u][v] for r, c in terms):
                    raise StructureError(f"realization is not closed under bracket ({i},{j})")
            if terms:
                table[(i, j)] = terms
    return table


def verdict(mats):
    """None when ``read_table`` accepts ``mats``, else its StructureError
    message."""
    try:
        read_table(mats)
    except StructureError as exc:
        return str(exc)
    return None
