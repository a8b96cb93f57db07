"""Exact rational linear algebra on integer rows.

Everything is exact over Q.  Elimination, kernels and spans run on
primitive integer rows (`echelon_int_rows`, `rank_int_rows`,
`rref_int_rows`, `kernel_int_rows`, `span_int_rows`,
`meets_trivially_int_rows`, and for skew-symmetric matrices
`skew_rank_int_rows` and `skew_kernel_int_rows`);
`fractions.Fraction` appears only in the public `Matrix` and `Subspace`
values (and the `Element` and `OneForm` values built on them), always in
lowest terms with positive denominator.  Fractions enter the integer rows
through one door, `clear_denominators`, which gives a vector as an integer
row over its least positive common denominator (JSON rationals are parsed
straight into integer rows by `serialize`).  No rounding ever occurs.

Genericity over Q is genericity over C.  Every predicate evaluated
downstream (a rank condition on a Kirillov matrix, kernel membership,
squarefreeness of a minimal polynomial) says that some polynomials with
rational coefficients in the coordinates of a form do or do not vanish.  The
set where a nonzero polynomial vanishes is a proper Zariski-closed subset of
C^n, and since Q^n is Zariski-dense in C^n it cannot contain all rational
points.  So a property that holds on a nonempty Zariski-open subset of C^n
(a regular form, a contact form, a stable form) also holds at some rational
point, and the minimum of a kernel dimension over rational forms equals its
minimum over complex forms.  Every witness found here is rational, so the
same certificate proves the claim over C.

Skew-symmetric matrices, the Kirillov matrices B_phi and the bordered
matrices of the contact test, go through their own elimination
(`skew_rank_int_rows`, `skew_kernel_int_rows`).  It takes 2x2 pivots
[[0, p], [-p, 0]] and updates only the strict upper triangle, so a step
costs half of a general one and the matrix stays skew.  It is fraction-free:
after the pivots (i_1, j_1), ..., (i_s, j_s) every remaining entry (k, l) is
the Pfaffian of the principal minor on i_1, j_1, ..., i_s, j_s, k, l, an
integer, and the next step divides by the previous pivot exactly, by the
Pfaffian form of Sylvester's identity (Knuth, "Overlapping Pfaffians",
Electron. J. Combin. 3(2), 1996).  A kernel, `skew_kernel_int_rows`, is that
one elimination, `_skew_pivots`, followed in the same function by
back-substitution through its steps.  The general routines serve every other
matrix (spans, kernels, meets, minimal polynomials, squarefreeness).
They share one forward elimination, `echelon_int_rows`: a rank is the
length of its result, and `rref_int_rows` is its result reduced upward,
so echelon rows that are kept give the canonical rows by upward
elimination alone.  It can also name the input rows its echelon rows came
from, a basis of the row space taken from the input itself.
`minimal_polynomial` takes the first integer
kernel row among the vectorized powers of the matrix with its denominators
cleared, and `is_squarefree` is the full rank of the Sylvester matrix of p
and p'; no polynomial arithmetic is done.

`Matrix` and `Subspace` are values, not solvers: no rank, kernel or
intersection is taken on them.  A `Subspace` is built only from the
primitive RREF rows with positive pivots that `rref_int_rows` returns
(`Subspace.from_int_rows`), each row divided by its pivot.  That is the
rational reduced row echelon form, which is canonical, so equal subspaces
have equal representations and field equality is subspace equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul

def as_scalar(x) -> Fraction:
    """x as a Fraction; a float is refused, since its binary value is rarely
    the rational that was meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"inexact scalar {x!r}: give an int, a Fraction or a 'p/q' string")
    return Fraction(x)


def clear_denominators(values) -> tuple[list, int]:
    """Rationals (ints or Fractions) as (row, den): row[i] / den is
    values[i], and den is their least positive common denominator."""
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _content(row, start):
    g = 0
    for k in range(start, len(row)):
        v = row[k]
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def echelon_int_rows(rows, *, sources=False):
    """Row echelon form of an integer matrix, by fraction-free forward
    elimination: its nonzero rows, as many as the rank, with strictly
    increasing leading columns, spanning the row space of the input.

    Growth is contained by stripping the gcd of every updated row, so all
    divisions are exact.  Rows below a pivot are eliminated, rows above it
    are not; ``span_int_rows`` of the result finishes the reduction upward.

    With ``sources``, returns ``(echelon, indices)``: echelon row r is a
    nonzero multiple of input row ``indices[r]`` plus a combination of the
    input rows listed before it, and every other input row was eliminated
    to zero by the listed ones, so the listed input rows are a basis of the
    row space.
    """
    m = len(rows)
    if m == 0:
        return ([], []) if sources else []
    n = len(rows[0])
    work = [list(r) for r in rows]
    order = list(range(m)) if sources else None
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
        if sources:
            order[rank], order[piv] = order[piv], order[rank]
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
    return (work[:rank], order[:rank]) if sources else work[:rank]


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


def _frac_rows(int_rows):
    # Rational RREF rows from primitive integer ones: divide by the pivot.
    out = []
    for row in int_rows:
        p = next(v for v in row if v)
        out.append(tuple(Fraction(v, p) for v in row))
    return tuple(out)


def _immutable(self, name, value=None):
    # the value types' __setattr__ and __delattr__; __init__ uses object's
    raise AttributeError(f"{type(self).__name__} is immutable")


class Matrix:
    """Immutable rational matrix (tuple-of-tuples of Fraction)."""

    __slots__ = ("rows",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        return type(other) is Matrix and other.rows == self.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix(rows={self.rows!r})"

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(tuple(tuple(as_scalar(x) for x in row) for row in rows))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        zero = Fraction(0)
        return cls(tuple((zero,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix(tuple(tuple(c * a for a in r) for r in self.rows))


class Subspace:
    """Linear subspace of Q^n in canonical reduced echelon form.

    Equal subspaces have equal representations, so equality of the fields
    is subspace equality.
    """

    __slots__ = ("ambient_dim", "basis")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, ambient_dim: int, basis: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        return type(other) is Subspace and other.ambient_dim == self.ambient_dim and other.basis == self.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @classmethod
    def from_int_rows(cls, ambient_dim: int, rows) -> "Subspace":
        """The subspace whose canonical primitive integer RREF rows (as
        `rref_int_rows` returns them) are ``rows``."""
        return cls(ambient_dim, _frac_rows(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)


def minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic least-degree polynomial p with p(M) = 0 (ascending coefficients).

    Found on integer rows as the first linear dependence among the
    vectorized powers of A = cM, c the lcm of M's denominators: at the first
    d where vec(A^0), ..., vec(A^d) are dependent, their kernel is one row
    b, and sum_k b_k c^k M^k = 0.  The dependence exists by Cayley-Hamilton,
    at degree at most the matrix size.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("matrix must be square")
    flat, c = clear_denominators(chain.from_iterable(m.rows))
    a = [flat[i : i + n] for i in range(0, n * n, n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    vecs = []
    for d in range(n + 1):
        vecs.append([x for row in power for x in row])
        kernel = kernel_int_rows(list(zip(*vecs)), d + 1)
        if kernel:
            (b,) = kernel
            return tuple(Fraction(b[k] * c**k, b[d] * c**d) for k in range(d + 1))
        power = [[sum(map(mul, row, col)) for col in zip(*a)] for row in power]
    raise AssertionError("no minimal polynomial found below Cayley-Hamilton bound")


def is_squarefree(p) -> bool:
    """True iff the polynomial p (ascending coefficients) has no repeated
    roots: gcd(p, p') is constant, i.e. the (2m-1)-square Sylvester matrix
    of p, of degree m, and p' has full rank."""
    p = [as_scalar(x) for x in p]
    while p and not p[-1]:
        p.pop()
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    m = len(p) - 1
    if m == 0:
        return True
    ints, _ = clear_denominators(p)
    deriv = [k * ints[k] for k in range(1, m + 1)]
    rows = [[0] * i + ints + [0] * (m - 2 - i) for i in range(m - 1)]
    rows += [[0] * i + deriv + [0] * (m - 1 - i) for i in range(m)]
    return rank_int_rows(rows) == 2 * m - 1
