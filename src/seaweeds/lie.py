"""Finite-dimensional Lie algebras over Q.

An algebra is a structure-constant table: [x_i, x_j] = sum_r c_ijr x_r over a
fixed basis x_0..x_{dim-1}, optionally carrying a matrix realization of each
basis element.  Every downstream computation silently depends on
antisymmetry, the Jacobi identity and (when present) compatibility of the
realization with the table.  An algebra built from a table
(``LieAlgebra(dim, structure, ...)``) is checked for all three at
construction, always.  An algebra cut out of a checked one
(``LieAlgebra.restrict``) is checked for closure under the bracket and
inherits the rest: its identities are the parent's, restricted to a closed
set of basis elements.  A restriction walks a row index of the parent's
table, built on first use, for the kept elements only, so its cost grows
with the brackets among kept elements, not with the parent's table.

Both checks are sparse: their cost grows with the nonzero structure constants
and matrix entries, not with all pairs and triples of basis elements.  The
Jacobi check sums only the triples reached from a nonzero structure constant
c_ijr through a neighbour of x_r, the only triples with a nonzero term; that
is O(sum over c_ijr != 0 of deg(x_r)) triples, where deg counts the basis
elements that bracket nontrivially with x_r (for gl(n) seaweeds O(n^4)
triples, not C(n^2, 3)).  The realization check turns each matrix into its
nonzero entries once, then computes [X_i, X_j] - sum_r c_ijr X_r as a sparse
commutator only for the pairs in the table and the pairs whose supports meet
(O(n^3) pairs for gl(n) seaweeds, whose basis matrices have one nonzero
entry), each in O(nnz_i * nnz_j + sum_r nnz_r).  Every other pair of matrices
commutes and is absent from the table.

Structure constants, and the entries of the realization check's sparse
copy of each matrix, are ints when integral and Fractions otherwise
(`Matrix` realizations keep theirs).  Python mixes the two exactly, so one
code path serves every algebra, and integral ones run on int arithmetic.

The Kirillov form of a one-form phi is the skew matrix
B_phi[i][j] = phi([x_i, x_j]), and the index of the algebra is the minimal
kernel dimension of B_phi over all phi.  ``index`` samples it: the kernel
dimension is minimized on a Zariski-open set, so a random integer form
attains it with overwhelming probability (Schwartz-Zippel); the default
budget is at most 3 trials with coordinates bounded by 10^6.  A trial's
kernel dimension only bounds the index from above; a seaweed's index is a
formula (``meander`` states the rule), which ``seaweeds index`` passes as
the floor at which the trials stop.  The sweep calls no ``index``.

Ranks and kernels are taken the same way: the form's denominators are
cleared once (`linalg.clear_denominators`) and B_phi is built as skew
integer rows (`LieAlgebra.kirillov_int_rows`).  B_phi is skew, so it goes
through the skew elimination of `linalg`, which pivots on 2x2 blocks,
updates half the matrix and divides exactly by the previous pivot because
every entry it holds is a Pfaffian of a principal minor: `index` and `kernel_dim` count
its pivots (`linalg._skew_pivots`, `linalg.skew_rank_int_rows`), and
`kirillov_kernel` turns the canonical primitive integer rows of ker B_phi
(`linalg.skew_kernel_int_rows`) into a rational `Subspace`.

The witness of `index` is its first form of least kernel dimension, kept
as integer coordinates.  A report's parity (`parity`) is stated here once,
for the classifier that writes it and the verifier that checks it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .linalg import (
    Matrix,
    Subspace,
    _immutable,
    as_scalar,
    clear_denominators,
    kernel_int_rows,
    rank_int_rows,  # noqa: F401  (perfbench/spans.py traces it by this name)
    skew_kernel_int_rows,
    skew_rank_int_rows,
)

DEFAULT_TRIALS = 3
DEFAULT_BOUND = 10**6


class StructureError(ValueError):
    """Structure constants violate antisymmetry, Jacobi, or the realization."""


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    x = as_scalar(x)
    return x.numerator if x.denominator == 1 else x


def _sparse_matrix(m: Matrix) -> dict:
    """The nonzero entries of m as {(u, v): c}.  Zero entries are only
    checked for exactness, so a float is refused wherever it stands."""
    out = {}
    for u, row in enumerate(m.rows):
        for v, x in enumerate(row):
            if x or isinstance(x, float):
                out[(u, v)] = _exact(x)
    return out


def _commutator(x: dict, y: dict) -> dict:
    """XY - YX for sparse matrices given as {(u, v): c}."""
    out = {}
    for (u, v), p in x.items():
        for (k, l), q in y.items():
            if v == k:
                out[(u, l)] = out.get((u, l), 0) + p * q
            if l == u:
                out[(k, v)] = out.get((k, v), 0) - p * q
    return out


class LieAlgebra:
    """Immutable Lie algebra given by structure constants.

    ``structure`` maps basis index pairs (i, j) to {r: c} with
    [x_i, x_j] = sum_r c x_r.  Either or both orientations of a pair may be
    given; they must agree up to sign.
    """

    __slots__ = ("dim", "label", "_table", "_integral", "_rows", "realization")

    def __init__(self, dim, structure, realization=None, label=""):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = int(dim)
        self.label = label

        full = {}
        for (i, j), terms in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise StructureError(f"basis index out of range in pair ({i},{j})")
            cleaned = {}
            for r, c in terms.items():
                if not 0 <= r < dim:
                    raise StructureError(f"target index {r} out of range")
                c = _exact(c)
                if c:
                    cleaned[r] = c
            if i == j:
                if cleaned:
                    raise StructureError(f"[x_{i},x_{i}] must vanish")
                continue
            full[(i, j)] = cleaned  # kept when empty: it still has to agree
        table = {}
        for (i, j), terms in full.items():
            if i < j:
                if terms:
                    table[(i, j)] = tuple(sorted(terms.items()))
            elif (j, i) in full:
                if {r: -c for r, c in full[(j, i)].items()} != terms:
                    raise StructureError(f"antisymmetry violated on pair ({j},{i})")
            elif terms:
                table[(j, i)] = tuple(sorted((r, -c) for r, c in terms.items()))
        self._table = table
        self._integral = all(type(c) is int for terms in table.values() for _, c in terms)
        self._rows = None

        self._check_jacobi()

        self.realization = tuple(realization) if realization is not None else None
        if self.realization is not None:
            self._check_realization()

    def restrict(self, kept, label=""):
        """The subalgebra spanned by the basis elements ``kept``, re-indexed
        in that order, with the parent's structure constants and realization
        matrices.

        ``kept`` must be strictly increasing basis indices.  Only the rows
        of the kept elements are walked (``_row_index``), so the cost grows
        with the brackets of kept elements with larger ones, not with the
        parent's table; the table's pairs come out in sorted order, which is
        the parent's order when its table is sorted, as an ambient table
        is.  Raises StructureError when a bracket of two kept elements has a
        term outside ``kept``.  Nothing else is checked again:
        antisymmetry, Jacobi and the realization's compatibility with the
        table are identities of the parent, checked when it was built, and a
        restriction to a set closed under the bracket satisfies them term by
        term.  A restriction of an integral algebra is integral.
        """
        kept = list(kept)
        bounds = [-1, *kept, self.dim]
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("kept must be strictly increasing basis indices in range")
        rows = self._row_index()
        position = [None] * self.dim
        for t, k in enumerate(kept):
            position[k] = t
        table = {}
        for t, i in enumerate(kept):
            for j, terms in rows[i]:
                u = position[j]
                if u is not None:
                    table[(t, u)] = tuple([(position[r], c) for r, c in terms])
        for (t, u), terms in table.items():
            for r, _ in terms:
                if r is None:  # a term outside kept
                    raise StructureError(f"kept elements are not closed under bracket ({kept[t]},{kept[u]})")
        sub = object.__new__(LieAlgebra)
        sub.dim = len(kept)
        sub.label = label
        sub._table = table
        sub._integral = self._integral or all(type(c) is int for terms in table.values() for _, c in terms)
        sub._rows = None
        mats = self.realization
        sub.realization = None if mats is None else tuple(mats[k] for k in kept)
        return sub

    def _row_index(self):
        """Row i lists the pairs (j, terms) of the table's keys (i, j),
        j > i, in increasing j; built on first use and kept."""
        if self._rows is None:
            rows = [[] for _ in range(self.dim)]
            for i, j in sorted(self._table):
                rows[i].append((j, self._table[(i, j)]))
            self._rows = rows
        return self._rows

    # -- construction-time checks -------------------------------------------

    def _check_jacobi(self):
        """Sum the triples {i, j, k} with c_ijr != 0 and x_k a neighbour of
        x_r: in every other triple each nested bracket
        [x_k, [x_i, x_j]] = sum_r c_ijr [x_k, x_r] vanishes."""
        bracket, neighbours = {}, {}
        for (i, j), terms in self._table.items():
            bracket[(i, j)] = terms
            bracket[(j, i)] = tuple((r, -c) for r, c in terms)
            neighbours.setdefault(i, []).append(j)
            neighbours.setdefault(j, []).append(i)
        triples = set()
        for (i, j), terms in self._table.items():
            for r, _ in terms:
                for k in neighbours.get(r, ()):
                    if k != i and k != j:
                        triples.add(tuple(sorted((i, j, k))))
        for i, j, k in sorted(triples):
            # [x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]] = 0
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for r, x in bracket.get((b, c), ()):
                    for t, y in bracket.get((a, r), ()):
                        acc[t] = acc.get(t, 0) + x * y
            if any(acc.values()):
                raise StructureError(f"Jacobi identity fails on triple ({i},{j},{k})")

    def _check_realization(self):
        """[X_i, X_j] must equal sum_r c_ijr X_r for every pair i < j; pairs
        absent from the table must commute.  Besides the table's pairs, only
        pairs where a row of one support meets a column of the other can
        fail to commute."""
        mats = self.realization
        if len(mats) != self.dim:
            raise StructureError("realization must have one matrix per basis element")
        if self.dim == 0:
            return
        n = mats[0].nrows
        for m in mats:
            if m.nrows != n or m.ncols != n:
                raise StructureError("realization matrices must be square of equal size")
        sparse = [_sparse_matrix(m) for m in mats]
        in_row, in_col = {}, {}
        for k, entries in enumerate(sparse):
            for u, v in entries:
                in_row.setdefault(u, []).append(k)
                in_col.setdefault(v, []).append(k)
        pairs = set(self._table)
        for i, entries in enumerate(sparse):
            for u, v in entries:
                for j in (*in_row.get(v, ()), *in_col.get(u, ())):
                    if i < j:
                        pairs.add((i, j))
        for i, j in sorted(pairs):
            comm = _commutator(sparse[i], sparse[j])
            for r, c in self._table.get((i, j), ()):
                for e, x in sparse[r].items():
                    comm[e] = comm.get(e, 0) - c * x
            if any(comm.values()):
                raise StructureError(f"realization incompatible with table on pair ({i},{j})")

    # -- basic structure access ---------------------------------------------

    def structure_items(self):
        """Sorted sparse table: iterable of (i, j, r, c) with i < j, c != 0;
        c is an int when integral, else a Fraction."""
        for (i, j) in sorted(self._table):
            for r, c in self._table[(i, j)]:
                yield i, j, r, c

    def bracket_coords(self, x_coords, y_coords):
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self._table.items():
            coef = x_coords[i] * y_coords[j] - x_coords[j] * y_coords[i]
            if coef:
                for r, c in terms:
                    out[r] += coef * c
        return out

    def ad_columns(self, coords):
        """[x, x_j] for every basis element x_j, x given by its coordinates;
        one pass over the table."""
        cols = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self._table.items():
            a, b = coords[i], coords[j]  # x_i [x_i, x_j] and x_j [x_j, x_i]
            for r, c in terms:
                if a:
                    cols[j][r] += a * c
                if b:
                    cols[i][r] -= b * c
        return cols

    def ad_int_rows(self, int_coords):
        """``ad_columns`` of an integer vector as integer rows, row-scaled if
        the table is non-integral (scaling preserves their span)."""
        cols = self.ad_columns(int_coords)
        return cols if self._integral else [clear_denominators(col)[0] for col in cols]

    def basis_element(self, i) -> "Element":
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Element(self, tuple(coords))

    def kirillov_int_rows(self, int_coords):
        """Integer row list of B_phi for integer phi.  A non-integral table
        scales the whole matrix by one common denominator, which keeps it
        skew and preserves rank and kernel."""
        dim = self.dim
        rows = [[0] * dim for _ in range(dim)]
        for (i, j), terms in self._table.items():
            v = 0
            for r, c in terms:
                v += c * int_coords[r]
            if v:
                rows[i][j] = v
                rows[j][i] = -v
        if self._integral:
            return rows
        flat, _ = clear_denominators(chain.from_iterable(rows))
        return [flat[u : u + dim] for u in range(0, dim * dim, dim)]

    def __repr__(self):
        name = self.label or "LieAlgebra"
        return f"<{name} dim={self.dim}>"


class _Coords:
    """Coordinates on a LieAlgebra's basis (Element) or dual basis (OneForm)."""

    __slots__ = ("algebra", "coords")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, algebra: LieAlgebra, coords: tuple[Fraction, ...]):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        return type(other) is type(self) and other.algebra is self.algebra and other.coords == self.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def __repr__(self):
        return f"{type(self).__name__}(algebra={self.algebra!r}, coords={self.coords!r})"

    def scale(self, c):
        c = as_scalar(c)
        return type(self)(self.algebra, tuple(c * x for x in self.coords))


class Element(_Coords):
    """Vector in the basis of a LieAlgebra."""

    __slots__ = ()

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def matrix(self) -> Matrix:
        """Realization of the element; requires the algebra to carry one."""
        mats = self.algebra.realization
        if mats is None:
            raise ValueError("algebra has no matrix realization")
        n = mats[0].nrows
        acc = Matrix.zeros(n, n)
        for c, m in zip(self.coords, mats):
            if c:
                acc = acc + m.scale(c)
        return acc


class OneForm(_Coords):
    """Covector in the dual basis of a LieAlgebra."""

    __slots__ = ()

    def __call__(self, x: Element) -> Fraction:
        if x.algebra is not self.algebra:
            raise ValueError("element and form live on different algebras")
        return sum((a * b for a, b in zip(self.coords, x.coords)), Fraction(0))


class IndexReport(NamedTuple):
    """Result of the randomized index computation: the least kernel
    dimension drawn, the kernel dimension of each form drawn, and the
    witness, the first drawn form of least kernel dimension, as integer
    coordinates."""

    index: int
    trial_kernel_dims: tuple[int, ...]
    witness_coords: tuple[int, ...]


def _same_algebra(x, y):
    if x.algebra is not y.algebra:
        raise ValueError("operands live on different algebras")


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket, the bilinear extension of the structure constants."""
    _same_algebra(x, y)
    return Element(x.algebra, tuple(x.algebra.bracket_coords(x.coords, y.coords)))


def kernel_dim(g: LieAlgebra, form: OneForm) -> int:
    """dim ker B_form, via exact skew elimination of B_{c form}, c the
    form's common denominator, which has the same rank."""
    ints, _ = clear_denominators(form.coords)
    return g.dim - skew_rank_int_rows(g.kirillov_int_rows(ints))


def kirillov_kernel(g: LieAlgebra, form: OneForm) -> Subspace:
    """Canonical basis of ker B_form, which is ker B_{c form}."""
    ints, _ = clear_denominators(form.coords)
    return Subspace.from_int_rows(g.dim, skew_kernel_int_rows(g.kirillov_int_rows(ints)))


def index(
    g: LieAlgebra,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    bound: int = DEFAULT_BOUND,
    *,
    floor: int | None = None,
) -> IndexReport:
    """Randomized index: minimum kernel dimension over sampled integer forms.

    Draws at most ``trials`` forms and stops after the first whose kernel
    dimension equals ``floor``, a proven lower bound on the index (such as
    ``meander.index_formula``), so that form is a regular witness; with no
    floor every trial is drawn.  The forms come from one rng stream per
    seed, so a pass that stops early draws a prefix of the forms of a pass
    that does not.  The result is an upper bound for the true index that
    is exact with overwhelming probability, and exact when it meets the
    floor.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    best = None
    dims = []
    for _ in range(trials):
        ints = [rng.randint(-bound, bound) for _ in range(g.dim)]
        kd = g.dim - skew_rank_int_rows(g.kirillov_int_rows(ints))
        dims.append(kd)
        if best is None or kd < best[0]:
            best = (kd, ints)
        if kd == floor:
            break
    kd, ints = best
    return IndexReport(index=kd, trial_kernel_dims=tuple(dims), witness_coords=tuple(ints))


def parity(dim: int) -> str:
    """A report's parity of an algebra of dimension ``dim``."""
    return "odd" if dim % 2 else "even"


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}, via the stacked adjoint constraints as
    integer rows (row-scaled if the table is non-integral)."""
    rows = {}
    for (i, j), terms in g._table.items():
        for r, c in terms:
            rows.setdefault((j, r), [0] * g.dim)[i] += c
            rows.setdefault((i, r), [0] * g.dim)[j] -= c
    stacked = list(rows.values())
    if not g._integral:
        stacked = [clear_denominators(row)[0] for row in stacked]
    return Subspace.from_int_rows(g.dim, kernel_int_rows(stacked, g.dim))


# -- small stock algebras ----------------------------------------------------


def heisenberg(label: str = "heisenberg") -> LieAlgebra:
    """3-dimensional Heisenberg algebra, [x, y] = z, realized inside gl(3)."""
    e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    return LieAlgebra(3, {(0, 1): {2: 1}}, realization=(e12, e23, e13), label=label)


def abelian(n: int, label: str = "") -> LieAlgebra:
    """Abelian algebra of dimension n, realized as diagonal matrices."""
    mats = []
    for i in range(n):
        rows = [[Fraction(1) if (u == v == i) else Fraction(0) for v in range(n)] for u in range(n)]
        mats.append(Matrix(tuple(tuple(r) for r in rows)))
    return LieAlgebra(n, {}, realization=tuple(mats), label=label or f"abelian({n})")
