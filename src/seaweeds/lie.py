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
set of basis elements.

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

Structure constants and realization entries are stored as ints when they are
integral and as Fractions otherwise.  Python mixes the two exactly, so one
code path serves every algebra, and integral ones run on int arithmetic.

The Kirillov form of a one-form phi is the skew matrix
B_phi[i][j] = phi([x_i, x_j]), and the index of the algebra is the minimal
kernel dimension of B_phi over all phi.  The index is computed by randomized
evaluation: the kernel dimension is minimized on a Zariski-open set, so a
random integer form attains it with overwhelming probability
(Schwartz-Zippel); the default budget is 3 trials with coordinates bounded
by 10^6.

Ranks and kernels are taken the same way: the form's denominators are
cleared once and B_phi is built as skew integer rows
(`LieAlgebra.kirillov_int_rows`).  B_phi is skew, so it goes through the
skew elimination of `linalg`, which pivots on 2x2 blocks, updates half the
matrix and divides exactly by the previous pivot because every entry it
holds is a Pfaffian of a principal minor: `index` and `kernel_dim` count
its pivots (`linalg.skew_rank_int_rows`), and `kirillov_kernel_int_rows`
returns ker B_phi as canonical primitive integer rows
(`linalg.skew_kernel_int_rows`); `kirillov_kernel` only turns those into a
rational `Subspace`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import (
    Matrix,
    Subspace,
    _int_rows,
    as_scalar,
    nullspace,
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

    __slots__ = ("dim", "label", "_table", "_integral", "realization")

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

        self._check_jacobi()

        self.realization = tuple(realization) if realization is not None else None
        if self.realization is not None:
            self._check_realization()

    def restrict(self, kept, label=""):
        """The subalgebra spanned by the basis elements ``kept``, re-indexed
        in that order, with the parent's structure constants and realization
        matrices.

        ``kept`` must be strictly increasing basis indices, so the order of
        the table's pairs and terms carries over.  Raises StructureError when
        a bracket of two kept elements has a term outside ``kept``.  Nothing
        else is checked again: antisymmetry, Jacobi and the realization's
        compatibility with the table are identities of the parent, checked
        when it was built, and a restriction to a set closed under the
        bracket satisfies them term by term.
        """
        kept = list(kept)
        bounds = [-1, *kept, self.dim]
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("kept must be strictly increasing basis indices in range")
        position = {k: t for t, k in enumerate(kept)}
        table = {}
        for (i, j), terms in self._table.items():
            if i in position and j in position:
                if not all(r in position for r, _ in terms):
                    raise StructureError(f"kept elements are not closed under bracket ({i},{j})")
                table[(position[i], position[j])] = tuple((position[r], c) for r, c in terms)
        sub = object.__new__(LieAlgebra)
        sub.dim = len(kept)
        sub.label = label
        sub._table = table
        sub._integral = all(type(c) is int for terms in table.values() for _, c in terms)
        mats = self.realization
        sub.realization = None if mats is None else tuple(mats[k] for k in kept)
        return sub

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
        return cols if self._integral else _int_rows(cols)

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
        den = lcm(*(x.denominator for row in rows for x in row))
        return [[int(x * den) for x in row] for row in rows]

    def __repr__(self):
        name = self.label or "LieAlgebra"
        return f"<{name} dim={self.dim}>"


@dataclass(frozen=True)
class Element:
    """Vector in the basis of a LieAlgebra."""

    algebra: LieAlgebra
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def scale(self, c) -> "Element":
        c = as_scalar(c)
        return Element(self.algebra, tuple(c * x for x in self.coords))

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)

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


@dataclass(frozen=True)
class OneForm:
    """Covector in the dual basis of a LieAlgebra."""

    algebra: LieAlgebra
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def __call__(self, x: Element) -> Fraction:
        if x.algebra is not self.algebra:
            raise ValueError("element and form live on different algebras")
        return sum((a * b for a, b in zip(self.coords, x.coords)), Fraction(0))

    def scale(self, c) -> "OneForm":
        c = as_scalar(c)
        return OneForm(self.algebra, tuple(c * x for x in self.coords))

    def __add__(self, other: "OneForm") -> "OneForm":
        if other.algebra is not self.algebra:
            raise ValueError("forms live on different algebras")
        return OneForm(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))


@dataclass(frozen=True)
class IndexReport:
    """Result of the randomized index computation."""

    label: str
    index: int
    witness_form: OneForm
    samples_used: int
    seed: int
    trial_kernel_dims: tuple[int, ...]


def _same_algebra(x, y):
    if x.algebra is not y.algebra:
        raise ValueError("operands live on different algebras")


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket, the bilinear extension of the structure constants."""
    _same_algebra(x, y)
    return Element(x.algebra, tuple(x.algebra.bracket_coords(x.coords, y.coords)))


def kirillov_matrix(g: LieAlgebra, form: OneForm) -> Matrix:
    """Skew matrix with entry (i,j) = form([x_i, x_j])."""
    zero = Fraction(0)
    rows = [[zero] * g.dim for _ in range(g.dim)]
    for (i, j), terms in g._table.items():
        v = sum((c * form.coords[r] for r, c in terms), zero)
        if v:
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(tuple(tuple(r) for r in rows))


def form_int_coords(form: OneForm) -> list:
    """The form's coordinates with denominators cleared: a positive multiple
    c phi, and B_{c phi} = c B_phi has the same rank and kernel."""
    (ints,) = _int_rows([form.coords])
    return ints


def kernel_dim(g: LieAlgebra, form: OneForm) -> int:
    """dim ker B_form, via exact skew elimination."""
    return g.dim - skew_rank_int_rows(g.kirillov_int_rows(form_int_coords(form)))


def kirillov_kernel_int_rows(g: LieAlgebra, form: OneForm) -> list:
    """ker B_form as canonical primitive integer RREF rows."""
    return skew_kernel_int_rows(g.kirillov_int_rows(form_int_coords(form)))


def kirillov_kernel(g: LieAlgebra, form: OneForm) -> Subspace:
    """Canonical basis of ker B_form."""
    return Subspace.from_int_rows(g.dim, kirillov_kernel_int_rows(g, form))


def sample_form(g: LieAlgebra, seed: int, bound: int = DEFAULT_BOUND) -> OneForm:
    """Integer one-form with coordinates uniform in [-bound, bound],
    deterministic per seed."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    return OneForm(g, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(g.dim)))


def index(
    g: LieAlgebra,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    bound: int = DEFAULT_BOUND,
) -> IndexReport:
    """Randomized index: minimum kernel dimension over sampled integer forms.

    The result is an upper bound for the true index that is exact with
    overwhelming probability; trial kernel dimensions are recorded so callers
    can detect disagreement and re-run with a larger bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    best = None
    best_coords = None
    dims = []
    for _ in range(trials):
        ints = [rng.randint(-bound, bound) for _ in range(g.dim)]
        kd = g.dim - skew_rank_int_rows(g.kirillov_int_rows(ints))
        dims.append(kd)
        if best is None or kd < best:
            best, best_coords = kd, ints
    witness = OneForm(g, tuple(Fraction(v) for v in best_coords))
    return IndexReport(
        label=g.label,
        index=best,
        witness_form=witness,
        samples_used=trials,
        seed=seed,
        trial_kernel_dims=tuple(dims),
    )


def is_regular(g: LieAlgebra, form: OneForm, known_index: int) -> bool:
    """True iff the kernel of B_form has the minimal (index) dimension."""
    return kernel_dim(g, form) == known_index


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}, via the stacked adjoint constraints."""
    rows = {}
    zero = Fraction(0)
    for (i, j), terms in g._table.items():
        for r, c in terms:
            row = rows.setdefault((j, r), [zero] * g.dim)
            row[i] += c
            row = rows.setdefault((i, r), [zero] * g.dim)
            row[j] -= c
    if not rows:
        return Subspace.full(g.dim)
    stacked = Matrix.from_rows([rows[k] for k in sorted(rows)])
    return nullspace(stacked)


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
