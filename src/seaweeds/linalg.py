"""Exact rational linear algebra.

Everything is exact over Q.  Elimination, kernels and spans run on
primitive integer rows (`rank_int_rows`, `rref_int_rows`, `kernel_int_rows`,
`span_int_rows`, `meets_trivially_int_rows`, and for skew-symmetric
matrices `skew_rank_int_rows` and `skew_kernel_int_rows`);
`fractions.Fraction` appears only in the public `Matrix` and `Subspace`
values (and the `Element`, `OneForm` and JSON values built on them), always
in lowest terms with positive denominator.  No rounding ever occurs.

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
Electron. J. Combin. 3(2), 1996).  The general routines serve every other
matrix (spans, meets, `nullspace`).

Subspaces are stored in reduced row echelon form, making equality of
subspaces equality of representations.  Its integer twin is the list of
primitive RREF rows with positive pivots that `rref_int_rows` returns:
dividing each row by its pivot gives the rational RREF row, so equal
subspaces have equal integer rows too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul

Scalar = Fraction


class AmbientMismatch(ValueError):
    """Operands live in different ambient dimensions."""


def as_scalar(x) -> Fraction:
    """x as a Fraction; a float is refused, since its binary value is rarely
    the rational that was meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"inexact scalar {x!r}: give an int, a Fraction or a 'p/q' string")
    return Fraction(x)


def _int_rows(rows):
    # Clear denominators row by row; positive row scaling preserves both the
    # row space and the rank.
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def _content(row, start):
    g = 0
    for k in range(start, len(row)):
        v = row[k]
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def rank_int_rows(rows):
    """Rank of an integer matrix, by fraction-free forward elimination.

    Growth is contained by stripping the gcd of every updated row, so all
    divisions are exact.
    """
    m = len(rows)
    if m == 0:
        return 0
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
    return rank


def rref_int_rows(rows):
    """Reduced echelon form of an integer matrix over the rationals.

    Returns ``(pivot_columns, pivot_rows)`` where every output row is
    primitive (content 1) with a positive pivot entry and zeros above and
    below each pivot.  Dividing a row by its pivot entry recovers the
    rational RREF row, so the output is a canonical representation of the
    row space.
    """
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r0 = len(pivots)
        piv = -1
        for i in range(r0, m):
            if work[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        work[r0], work[piv] = work[piv], work[r0]
        prow = work[r0]
        p = prow[col]
        for i in range(m):
            if i == r0:
                continue
            ri = work[i]
            a = ri[col]
            if not a:
                continue
            for k in range(n):
                ri[k] = p * ri[k] - a * prow[k]
            g = _content(ri, 0)
            if g > 1:
                for k in range(n):
                    ri[k] //= g
        pivots.append(col)
        if len(pivots) == m:
            break
    out = []
    for i, col in enumerate(pivots):
        ri = work[i]
        g = _content(ri, 0)
        if ri[col] < 0:
            g = -g
        out.append([v // g for v in ri])
    return pivots, out


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
    len(rows))``.  Raises ValueError unless the matrix is square and skew.

    Every index outside the pivot pairs is free.  For each free index f the
    kernel vector with v_f equal to the last pivot, zero on the other free
    indices, comes back through the pivot rows in reverse: the rows i and j
    of a step say p v_j = -sum_l a_il v_l and p v_i = sum_l a_jl v_l over
    its remaining indices.  Those divisions are exact, because the last
    pivot is the Pfaffian of the whole pivot block, and that Pfaffian times
    the block's inverse is an integer matrix.
    """
    steps = _skew_pivots(rows)
    paired = {x for i, j, *_ in steps for x in (i, j)}
    scale = steps[-1][2] if steps else 1
    vectors = []
    for f in range(len(rows)):
        if f in paired:
            continue
        v = [0] * len(rows)
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


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix (tuple-of-tuples of Fraction)."""

    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(tuple(tuple(as_scalar(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

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

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise AmbientMismatch("matrix product shape mismatch")
        cols = other.ncols
        orows = other.rows
        return Matrix(
            tuple(
                tuple(sum(r[k] * orows[k][j] for k in range(self.ncols)) for j in range(cols))
                for r in self.rows
            )
        )

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows))) if self.rows else Matrix(())

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), Fraction(0))

    def vec(self) -> tuple[Fraction, ...]:
        """Row-major flattening."""
        return tuple(x for row in self.rows for x in row)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical reduced echelon form.

    Equal subspaces have equal representations, so dataclass equality is
    subspace equality.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length does not match ambient dimension")
        rows = _int_rows([[as_scalar(x) for x in v] for v in vectors])
        return cls.from_int_rows(ambient_dim, span_int_rows(rows))

    @classmethod
    def from_int_rows(cls, ambient_dim: int, rows) -> "Subspace":
        """The subspace whose canonical primitive integer RREF rows (as
        `rref_int_rows` returns them) are ``rows``."""
        return cls(ambient_dim, _frac_rows(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _pivots(self):
        piv = []
        for row in self.basis:
            for j, x in enumerate(row):
                if x:
                    piv.append(j)
                    break
        return piv

    def contains(self, vector) -> bool:
        v = [as_scalar(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        for row, piv in zip(self.basis, self._pivots()):
            c = v[piv]
            if c:
                for j in range(self.ambient_dim):
                    v[j] -= c * row[j]
        return not any(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return all(self.contains(v) for v in other.basis)


def rank(m: Matrix) -> int:
    """Dimension of the row space, by exact fraction-free elimination."""
    return rank_int_rows(_int_rows(m.rows))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    pivots, reduced = rref_int_rows(_int_rows(m.rows))
    return Matrix(_frac_rows(reduced)), tuple(pivots)


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of {v : Mv = 0}; dim = ncols - rank."""
    return Subspace.from_int_rows(m.ncols, kernel_int_rows(_int_rows(m.rows), m.ncols))


def _complement_rows(s: Subspace) -> Matrix:
    # Rows spanning the orthogonal complement under the standard dot product;
    # over Q the pairing is definite, so (U-perp)-perp == U.
    if s.dim == 0:
        return Matrix.identity(s.ambient_dim)
    comp = nullspace(Matrix(s.basis))
    if comp.dim == 0:
        return Matrix(())
    return Matrix(comp.basis)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of the intersection of two subspaces."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    rows = _complement_rows(u).rows + _complement_rows(v).rows
    if not rows:
        return Subspace.full(u.ambient_dim)
    return nullspace(Matrix(rows))


def meets_trivially(u: Subspace, v: Subspace) -> bool:
    """True iff u and v intersect only in 0: their canonical bases stack to
    a matrix of rank dim u + dim v.  One rank, where ``intersect`` takes
    three nullspaces."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    return meets_trivially_int_rows(_int_rows(u.basis), _int_rows(v.basis))


def solve(a: Matrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    b = [as_scalar(x) for x in b]
    if len(b) != a.nrows:
        raise AmbientMismatch("right-hand side length does not match row count")
    aug = Matrix(tuple(row + (bi,) for row, bi in zip(a.rows, b)))
    reduced, pivots = rref(aug)
    n = a.ncols
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, piv in zip(reduced.rows, pivots):
        x[piv] = row[n]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("matrix must be square")
    aug = Matrix(tuple(row + eye for row, eye in zip(m.rows, Matrix.identity(n).rows)))
    reduced, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(tuple(row[n:] for row in reduced.rows))


# ---------------------------------------------------------------------------
# Polynomials over Q: coefficient tuples, ascending degree, () is zero.
# ---------------------------------------------------------------------------


def poly_normalize(coeffs) -> tuple[Fraction, ...]:
    c = [as_scalar(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p) -> int:
    return len(p) - 1


def poly_derivative(p) -> tuple[Fraction, ...]:
    return poly_normalize(i * p[i] for i in range(1, len(p)))


def poly_monic(p) -> tuple[Fraction, ...]:
    lead = p[-1]
    return tuple(c / lead for c in p)


def poly_mod(a, b) -> tuple[Fraction, ...]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / lead
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] -= q * b[i]
        a.pop()
    return poly_normalize(a)


def poly_gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd over Q (Euclid)."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_mod(a, b)
    return poly_monic(a) if a else ()


def poly_eval_matrix(p, m: Matrix) -> Matrix:
    acc = Matrix.zeros(m.nrows, m.ncols)
    power = Matrix.identity(m.nrows)
    for c in p:
        if c:
            acc = acc + power.scale(c)
        power = power @ m
    return acc


def minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic least-degree polynomial p with p(M) = 0 (ascending coefficients).

    Found as the first linear dependence among the vectorized powers
    I, M, M^2, ...; the dependence exists by Cayley-Hamilton, at degree at
    most the matrix size.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("matrix must be square")
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    for d in range(1, n + 1):
        stacked = Matrix(tuple(zip(*(p.vec() for p in powers[:d]))))
        x = solve(stacked, powers[d].vec())
        if x is not None:
            return poly_normalize(tuple(-c for c in x) + (Fraction(1),))
    raise AssertionError("no minimal polynomial found below Cayley-Hamilton bound")


def is_squarefree(p) -> bool:
    """True iff gcd(p, p') is constant, i.e. p has no repeated roots."""
    p = poly_normalize(p)
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if len(p) == 1:
        return True
    return poly_degree(poly_gcd(p, poly_derivative(p))) == 0
