"""Finite-dimensional Lie algebras over Q, held on an integral basis.

An algebra is its matrices: ``LieAlgebra(realization)`` takes square
integer matrices X_0..X_{dim-1} of one size as its basis, bracketed by the
commutator.  One rule makes them a basis whose coordinates are read
directly: each matrix has a pivot, its first nonzero entry in row-major
order, the pivot is 1, and every other matrix is 0 at that entry.  The
matrices are then linearly independent, and a matrix in their span has
its values at the pivots as its coordinates.  The constructor computes
[X_i, X_j] for each pair whose supports meet (every other pair commutes),
reads its coordinates c_ijr at the pivots, which gives the structure
constants [x_i, x_j] = sum_r c_ijr x_r, and requires the residual
[X_i, X_j] - sum_r c_ijr X_r to be zero: the span is closed under the
commutator.  Antisymmetry and the Jacobi identity follow, since the
bracket is the commutator of linearly independent matrices.  For gl(n)
seaweeds, whose basis matrices have one nonzero entry, O(n^3) pairs meet.
Realization entries are ints; anything else (a bool, a float, a Fraction)
raises TypeError (``linalg.as_int``).

An algebra cut out of a built one (``LieAlgebra.restrict``) is checked for
closure under the bracket and inherits the rest.  A restriction walks a
row index of the parent's table, built on first use, for the kept
elements only, so its cost grows with the brackets among kept elements,
not with the parent's table.

The Kirillov form of a one-form phi is the skew matrix
B_phi[i][j] = phi([x_i, x_j]), and the index of the algebra is the minimal
kernel dimension of B_phi over all phi.  ``index`` samples it: the kernel
dimension is minimized on a Zariski-open set, so a random integer form
attains it with overwhelming probability (Schwartz-Zippel); the default
budget is at most 3 trials with coordinates bounded by 10^6.  A trial's
kernel dimension only bounds the index from above; a seaweed's index is a
formula (``meander`` states the rule), which ``seaweeds index`` passes as
the floor at which the trials stop.  The sweep calls no ``index``.

B_phi of an integer form is built as skew integer rows
(`LieAlgebra.kirillov_int_rows`), so it goes through the skew elimination
of `linalg`: `index` counts its pivots (`linalg.skew_rank_int_rows`).

The witness of `index` is its first form of least kernel dimension, kept
as integer coordinates.  A report's parity (`parity`) is stated here once,
for the classifier that writes it and the verifier that checks it.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .linalg import (
    as_int,
    rank_int_rows,  # noqa: F401  (perfbench/spans.py traces it by this name)
    skew_rank_int_rows,
)

DEFAULT_TRIALS = 3
DEFAULT_BOUND = 10**6


class StructureError(ValueError):
    """A realization breaks the pivot rule or is not closed under the
    bracket (module docstring)."""


def _sparse_matrix(m) -> dict:
    """The nonzero entries of the matrix m, given by its rows, as
    {(u, v): c}."""
    return {(u, v): x for u, row in enumerate(m) for v, x in enumerate(row) if x}


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


def _read_table(sparse: list) -> dict:
    """The table of the sparse matrices ``sparse`` (module docstring): the
    pivot rule, checked matrix by matrix, then, for the pairs i < j whose
    supports meet, in sorted order, the commutator's values at the pivots,
    sorted by target, and its residual."""
    at, in_row, in_col = {}, {}, {}
    for k, entries in enumerate(sparse):
        for u, v in entries:
            at.setdefault((u, v), []).append(k)
            in_row.setdefault(u, []).append(k)
            in_col.setdefault(v, []).append(k)
    pivots = {}
    for k, entries in enumerate(sparse):
        if not entries:
            raise StructureError(f"basis matrix {k} is zero")
        pivot = min(entries)
        if entries[pivot] != 1:
            raise StructureError(f"basis matrix {k} has pivot {entries[pivot]}, not 1")
        for j in at[pivot]:
            if j != k:
                raise StructureError(f"basis matrix {j} is nonzero at the pivot of basis matrix {k}")
        pivots[pivot] = k
    table = {}
    for i, x in enumerate(sparse):
        for j in sorted({j for u, v in x for j in (*in_row.get(v, ()), *in_col.get(u, ())) if j > i}):
            comm = _commutator(x, sparse[j])
            terms = tuple(sorted((pivots[e], c) for e, c in comm.items() if c and e in pivots))
            for r, c in terms:
                for e, y in sparse[r].items():
                    comm[e] = comm.get(e, 0) - c * y
            if any(comm.values()):
                raise StructureError(f"realization is not closed under bracket ({i},{j})")
            if terms:
                table[(i, j)] = terms
    return table


class LieAlgebra:
    """Immutable Lie algebra spanned by integer matrices under the
    commutator.

    ``realization`` holds one square integer matrix per basis element, each
    a sequence of rows, all of one size, under the module docstring's pivot
    rule, and is kept as a tuple of row tuples.  An entry that is not an
    int raises TypeError; matrices of other shapes, a broken pivot rule or
    a span not closed under the commutator raise StructureError.
    """

    __slots__ = ("dim", "label", "_table", "_rows", "realization")

    def __init__(self, realization, label=""):
        mats = tuple(tuple(tuple(as_int(x, "realization entry") for x in row) for row in m) for m in realization)
        if any(len(m) != len(mats[0]) or any(len(row) != len(mats[0]) for row in m) for m in mats):
            raise StructureError("realization matrices must be square of equal size")
        self.dim = len(mats)
        self.label = label
        self.realization = mats
        self._table = _read_table([_sparse_matrix(m) for m in mats])
        self._rows = None

    def restrict(self, kept, label=""):
        """The subalgebra spanned by the basis elements ``kept``, re-indexed
        in that order, with the parent's structure constants and realization
        matrices.

        ``kept`` must be strictly increasing basis indices.  Only the rows
        of the kept elements are walked (``_row_index``), so the cost grows
        with the brackets of kept elements with larger ones, not with the
        parent's table; the table's pairs come out in sorted order, the
        parent's order.  Raises StructureError when a bracket of two kept
        elements has a term outside ``kept``.  Nothing else is checked
        again: a subset of matrices under the pivot rule keeps it, and a
        set closed under the bracket has the parent's constants.
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
        sub._rows = None
        sub.realization = tuple(self.realization[k] for k in kept)
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

    # -- basic structure access ---------------------------------------------

    def structure_items(self):
        """Sorted sparse table: iterable of (i, j, r, c) with i < j and c a
        nonzero int."""
        for (i, j) in sorted(self._table):
            for r, c in self._table[(i, j)]:
                yield i, j, r, c

    def ad_int_rows(self, int_coords):
        """[x, x_j] for every basis element x_j, as integer rows, x given by
        its integer coordinates; one pass over the table."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self._table.items():
            a, b = int_coords[i], int_coords[j]  # x_i [x_i, x_j] and x_j [x_j, x_i]
            for r, c in terms:
                if a:
                    rows[j][r] += a * c
                if b:
                    rows[i][r] -= b * c
        return rows

    def kirillov_int_rows(self, int_coords):
        """Integer row list of B_phi for integer phi."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self._table.items():
            v = 0
            for r, c in terms:
                v += c * int_coords[r]
            if v:
                rows[i][j] = v
                rows[j][i] = -v
        return rows

    def __repr__(self):
        name = self.label or "LieAlgebra"
        return f"<{name} dim={self.dim}>"


class IndexReport(NamedTuple):
    """Result of the randomized index computation: the least kernel
    dimension drawn, the kernel dimension of each form drawn, and the
    witness, the first drawn form of least kernel dimension, as integer
    coordinates."""

    index: int
    trial_kernel_dims: tuple[int, ...]
    witness_coords: tuple[int, ...]


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
