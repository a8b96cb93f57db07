"""Exact rational linear algebra on integer rows.

Everything is exact over Q, and every value is an int.  Elimination,
kernels and spans run on primitive integer rows (`echelon_int_rows`,
`rank_int_rows`, `rref_int_rows`, `kernel_int_rows`, `span_int_rows`,
`meets_trivially_int_rows`, and for skew-symmetric matrices
`skew_rank_int_rows` and `skew_kernel_int_rows`).  A rational row is the
integer row over its common denominator, which spans the same line, so no
rational value type is needed; JSON rationals are parsed straight into
integer rows by `serialize`.  `as_int` is the one test that a value taken
from a caller or a document is an int: a bool, a float or a Fraction would
pass a comparison with one, and the fraction-free eliminations would floor
it.  No rounding ever occurs.

Genericity over Q is genericity over C.  Every predicate evaluated
downstream (a rank condition on a Kirillov matrix, kernel membership) says
that some polynomials with rational coefficients in the coordinates of a
form do or do not vanish.  The set where a nonzero polynomial vanishes is a
proper Zariski-closed subset of C^n, and since Q^n is Zariski-dense in C^n
it cannot contain all rational points.  So a property that holds on a
nonempty Zariski-open subset of C^n (a regular form, a contact form, a
stable form) also holds at some rational point, and the minimum of a kernel
dimension over rational forms equals its minimum over complex forms.  Every
witness found here is rational, so the same certificate proves the claim
over C.

The Kirillov matrices B_phi are skew-symmetric and go through their own
elimination (`skew_rank_int_rows`, `skew_kernel_int_rows`).  It takes 2x2
pivots [[0, p], [-p, 0]] and updates only the strict upper triangle, so a
step costs half of a general one and the matrix stays skew.  It is
fraction-free: after the pivots (i_1, j_1), ..., (i_s, j_s) every remaining
entry (k, l) is the Pfaffian of the principal minor on i_1, j_1, ..., i_s,
j_s, k, l, an integer, and the next step divides by the previous pivot
exactly, by the Pfaffian form of Sylvester's identity (Knuth, "Overlapping
Pfaffians", Electron. J. Combin. 3(2), 1996).  A kernel,
`skew_kernel_int_rows`, is that one elimination, `_skew_pivots`, followed in
the same function by back-substitution through its steps.  The general
routines serve every other matrix (ambient bases, spans, kernels, meets).
They share one forward elimination, `echelon_int_rows`: a rank is the length
of its result, and `rref_int_rows` is its result reduced upward, so echelon
rows that are kept give the canonical rows by upward elimination alone.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul


def as_int(value, what: str) -> int:
    """``value`` if it is an int; anything else (a bool, a float, a
    Fraction, a string) raises TypeError naming ``what``."""
    if type(value) is not int:
        raise TypeError(f"{what} is {value!r}, not an integer")
    return value


def _content(row, start):
    g = 0
    for k in range(start, len(row)):
        v = row[k]
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def echelon_int_rows(rows):
    """Row echelon form of an integer matrix, by fraction-free forward
    elimination: its nonzero rows, as many as the rank, with strictly
    increasing leading columns, spanning the row space of the input.

    Growth is contained by stripping the gcd of every updated row, so all
    divisions are exact.  Rows below a pivot are eliminated, rows above it
    are not; ``span_int_rows`` of the result finishes the reduction upward.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    work = [list(r) for r in rows]
    rank = 0
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if work[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        p = prow[col]
        for i in range(rank + 1, m):
            ri = work[i]
            a = ri[col]
            if not a:
                continue
            for k in range(col, n):
                ri[k] = p * ri[k] - a * prow[k]
            g = _content(ri, col)
            if g > 1:
                for k in range(col, n):
                    ri[k] //= g
        rank += 1
        if rank == m:
            break
    return work[:rank]


def rank_int_rows(rows):
    """Rank of an integer matrix: the length of its ``echelon_int_rows``."""
    return len(echelon_int_rows(rows))


def rref_int_rows(rows):
    """Reduced echelon form of an integer matrix over the rationals.

    Returns ``(pivot_columns, pivot_rows)`` where every output row is
    primitive (content 1) with a positive pivot entry and zeros above and
    below each pivot.  Dividing a row by its pivot entry recovers the
    rational RREF row, so the output is a canonical representation of the
    row space.  The rows are ``echelon_int_rows`` reduced upward: from the
    last echelon row to the first, each is made primitive with a positive
    pivot and its pivot column is eliminated from the rows above it.
    """
    reduced = echelon_int_rows(rows)
    pivots = [next(k for k, v in enumerate(row) if v) for row in reduced]
    for i in range(len(reduced) - 1, -1, -1):
        prow, col = reduced[i], pivots[i]
        g = _content(prow, col)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow[col:] = [v // g for v in prow[col:]]
        p = prow[col]
        for r in range(i):
            ri = reduced[r]
            a = ri[col]
            if not a:
                continue
            start = pivots[r]  # prow is zero before col, so this scales ri there
            ri[start:] = [p * x - a * y for x, y in zip(ri[start:], prow[start:])]
            g = _content(ri, start)
            if g > 1:
                ri[start:] = [v // g for v in ri[start:]]
    return pivots, reduced


def kernel_int_rows(rows, n):
    """Canonical primitive integer RREF rows of {v : Mv = 0}, for the integer
    matrix M given by its rows of length n (no rows: all of Q^n)."""
    pivots, reduced = rref_int_rows(rows)
    pivot_set = set(pivots)
    vectors = []
    for free in range(n):
        if free in pivot_set:
            continue
        # v[free] = 1 and v[piv] = -row[free] / row[piv], scaled to integers
        scale = 1
        for row, piv in zip(reduced, pivots):
            if row[free]:
                scale = lcm(scale, row[piv])
        v = [0] * n
        v[free] = scale
        for row, piv in zip(reduced, pivots):
            if row[free]:
                v[piv] = -row[free] * (scale // row[piv])
        vectors.append(v)
    return span_int_rows(vectors)


def span_int_rows(rows):
    """Canonical primitive integer RREF rows of the row space of an integer
    matrix."""
    return rref_int_rows(rows)[1]


def _skew_pivots(rows):
    """Fraction-free elimination of a skew-symmetric integer matrix.

    Each step takes the first row s with a nonzero entry and the first
    column t > s where it is nonzero, pivots on p = a_st, and replaces
    every remaining pair k < l by

        a'_kl = (p a_kl + a_ks a_tl - a_kt a_sl) / d,

    d the previous pivot (1 at the first step).  That is p/d times the
    Schur complement of the pivot block [[0, p], [-p, 0]], and every a'_kl
    is a Pfaffian of a principal minor of the input, so the division is
    exact.  Rows found zero are free indices and leave the matrix.  Only
    the strict upper part of each row is held, last column first, and the
    rows are held last row first, so that ``zip`` lines every row up with
    the pivot rows.

    Returns the steps (i, j, p, a_i, a_j, rest): the pivot pair as input
    indices, the pivot, and the entries of the two pivot rows on the input
    indices ``rest`` that were still in the matrix.  Raises ValueError
    unless the matrix is square and skew-symmetric.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("skew elimination needs a square matrix")
    if any(map(add, chain.from_iterable(rows), chain.from_iterable(zip(*rows)))):
        raise ValueError("skew elimination needs a skew-symmetric matrix")
    tails = [list(rows[u][:u:-1]) for u in range(n - 1, -1, -1)]  # a_u,n-1 .. a_u,u+1
    index = list(range(n - 1, -1, -1))
    steps = []
    d = 1
    while True:
        while tails and not any(tails[-1]):
            tails.pop()
            index.pop()
        if not tails:
            return steps
        a_s, s = tails.pop(), index.pop()
        k = len(a_s) - 1  # a_s[k] = a_st, t the first column with a nonzero entry
        while not a_s[k]:
            k -= 1
        p = a_s.pop(k)
        a_t, t = tails.pop(k), index.pop(k)
        above = tails[k:]  # the rows between s and t, whose tails hold column t
        a_t += [-row.pop(k) for row in above]
        tails = [
            [(p * v - x * b + y * c) // d for v, b, c in zip(row, a_t, a_s)] if x or y
            else [p * v // d for v in row]
            for row, x, y in zip(tails, a_s, a_t)  # x = a_su = -a_us, y = a_tu = -a_ut
        ]
        steps.append((s, t, p, a_s, a_t, index[:]))
        d = p


def skew_rank_int_rows(rows):
    """Rank of a skew-symmetric integer matrix: twice its number of 2x2
    pivots.  Raises ValueError unless the matrix is square and skew."""
    return 2 * len(_skew_pivots(rows))


def skew_kernel_int_rows(rows):
    """Canonical primitive integer RREF rows of the kernel of a
    skew-symmetric integer matrix, equal to ``kernel_int_rows(rows,
    len(rows))``: back-substitution through its ``_skew_pivots`` steps.
    Raises ValueError unless the matrix is square and skew.

    Every index outside the pivot pairs is free.  For each free index f the
    kernel vector with v_f equal to the last pivot, zero on the other free
    indices, comes back through the pivot rows in reverse: the rows i and j
    of a step say p v_j = -sum_l a_il v_l and p v_i = sum_l a_jl v_l over
    its remaining indices.  Those divisions are exact, because the last
    pivot is the Pfaffian of the whole pivot block, and that Pfaffian times
    the block's inverse is an integer matrix.
    """
    steps, n = _skew_pivots(rows), len(rows)
    paired = {x for i, j, *_ in steps for x in (i, j)}
    scale = steps[-1][2] if steps else 1
    vectors = []
    for f in range(n):
        if f in paired:
            continue
        v = [0] * n
        v[f] = scale
        for i, j, p, a_i, a_j, rest in reversed(steps):
            w = [v[l] for l in rest]
            v[j] = -sum(map(mul, a_i, w)) // p
            v[i] = sum(map(mul, a_j, w)) // p
        vectors.append(v)
    return span_int_rows(vectors)


def meets_trivially_int_rows(u, v):
    """True iff the row spaces of the integer matrices u and v, each given by
    linearly independent rows (canonical RREF rows are), meet only in 0:
    stacked, they have rank len(u) + len(v)."""
    return rank_int_rows(u + v) == len(u) + len(v)
