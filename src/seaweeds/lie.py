"""Finite-dimensional Lie algebras over Q.

An algebra is a structure-constant table: [x_i, x_j] = sum_r c_ijr x_r over a
fixed basis x_0..x_{dim-1}, optionally carrying a matrix realization of each
basis element.  Antisymmetry, the Jacobi identity, and (when present)
compatibility of the realization with the table are verified at construction,
always; every downstream computation silently depends on them.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, Subspace, _int_rows, as_scalar, nullspace, rank_int_rows

DEFAULT_TRIALS = 3
DEFAULT_BOUND = 10**6


class StructureError(ValueError):
    """Structure constants violate antisymmetry, Jacobi, or the realization."""


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    x = as_scalar(x)
    return x.numerator if x.denominator == 1 else x


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
            if cleaned:
                full[(i, j)] = cleaned
        table = {}
        for (i, j), terms in full.items():
            if i < j:
                table[(i, j)] = tuple(sorted(terms.items()))
            elif (j, i) in full:
                if {r: -c for r, c in full[(j, i)].items()} != terms:
                    raise StructureError(f"antisymmetry violated on pair ({j},{i})")
            else:
                table[(j, i)] = tuple(sorted((r, -c) for r, c in terms.items()))
        self._table = table
        self._integral = all(type(c) is int for terms in table.values() for _, c in terms)

        self._check_jacobi()

        self.realization = tuple(realization) if realization is not None else None
        if self.realization is not None:
            self._check_realization()

    # -- construction-time checks -------------------------------------------

    def _check_jacobi(self):
        table = self._table
        dim = self.dim
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
                    if jk:
                        for r, c in jk:
                            for s, d in self._basis_bracket(i, r):
                                acc[s] = acc.get(s, 0) + c * d
                    if ik:  # [x_j,[x_k,x_i]] = -[x_j,[x_i,x_k]]
                        for r, c in ik:
                            for s, d in self._basis_bracket(j, r):
                                acc[s] = acc.get(s, 0) - c * d
                    if ij:
                        for r, c in ij:
                            for s, d in self._basis_bracket(k, r):
                                acc[s] = acc.get(s, 0) + c * d
                    if any(acc.values()):
                        raise StructureError(f"Jacobi identity fails on triple ({i},{j},{k})")

    def _check_realization(self):
        """[X_i, X_j] must equal sum_r c_ijr X_r for every pair i < j; pairs
        absent from the table must commute."""
        mats = self.realization
        if len(mats) != self.dim:
            raise StructureError("realization must have one matrix per basis element")
        if self.dim == 0:
            return
        n = mats[0].nrows
        for m in mats:
            if m.nrows != n or m.ncols != n:
                raise StructureError("realization matrices must be square of equal size")
        grids = [[[_exact(x) for x in row] for row in m.rows] for m in mats]
        for i in range(self.dim):
            a = grids[i]
            for j in range(i + 1, self.dim):
                b = grids[j]
                exp = [[0] * n for _ in range(n)]
                for r, c in self._table.get((i, j), ()):
                    g = grids[r]
                    for u in range(n):
                        gu, eu = g[u], exp[u]
                        for v in range(n):
                            eu[v] += c * gu[v]
                for u in range(n):
                    au, bu, eu = a[u], b[u], exp[u]
                    for v in range(n):
                        comm = sum(au[k] * b[k][v] for k in range(n)) - sum(
                            bu[k] * a[k][v] for k in range(n)
                        )
                        if comm != eu[v]:
                            raise StructureError(
                                f"realization incompatible with table on pair ({i},{j})"
                            )

    # -- basic structure access ---------------------------------------------

    def _basis_bracket(self, i, j):
        """[x_i, x_j] as a sparse tuple of (target, coefficient)."""
        if i == j:
            return ()
        if i < j:
            return self._table.get((i, j), ())
        terms = self._table.get((j, i), ())
        return tuple((r, -c) for r, c in terms)

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

    def basis_element(self, i) -> "Element":
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Element(self, tuple(coords))

    def kirillov_int_rows(self, int_coords):
        """Integer row list of B_phi for integer phi, row-scaled if the table
        is non-integral (scaling preserves rank and kernel)."""
        dim = self.dim
        rows = [[0] * dim for _ in range(dim)]
        for (i, j), terms in self._table.items():
            v = 0
            for r, c in terms:
                v += c * int_coords[r]
            if v:
                rows[i][j] = v
                rows[j][i] = -v
        return rows if self._integral else _int_rows(rows)

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


def kernel_dim(g: LieAlgebra, form: OneForm) -> int:
    """dim ker B_form, via exact elimination."""
    if g.dim == 0:
        return 0
    # B_{c phi} = c B_phi, so clearing the form's denominators keeps the rank
    (ints,) = _int_rows([form.coords])
    return g.dim - rank_int_rows(g.kirillov_int_rows(ints))


def kirillov_kernel(g: LieAlgebra, form: OneForm) -> Subspace:
    """Canonical basis of ker B_form."""
    return nullspace(kirillov_matrix(g, form))


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
        kd = g.dim - rank_int_rows(g.kirillov_int_rows(ints)) if g.dim else 0
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
