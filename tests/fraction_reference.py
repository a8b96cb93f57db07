"""The rational route to Kirillov matrices and kernels, certificates and
ambient bases, as first written, and the rational matrix and subspace
values the tests build their expectations with.

``LieAlgebra.kirillov_int_rows``, ``linalg.skew_kernel_int_rows``,
``contact.is_contact_form``, ``contact.is_stable_form`` and
``construct._ambient`` run on primitive integer rows, and
``serialize.verify_certificate`` on integer rows parsed straight from the
JSON strings.  These versions build the
rational Kirillov matrix, take its nullspace from the rational reduced
echelon form, span [ker, g] from rational rows, parse every JSON rational
into a Fraction and compare rational subspaces, and derive an ambient basis
from the rational condition matrix (``ambient_basis``, which the
full-check reference also builds its ambient supports and table from); the
tests hold both routes to the same certificates, the same verdicts and the
same bases, and ``clear_denominators`` turns the rational forms they draw
into the integer forms the package takes.  ``contact_volume_nonzero``
tests contactness by the top wedge power instead, on the bordered
Kirillov matrix, a route the package does not take.  Its certificates are
rational values, written to JSON from their Fractions
(``certificate_json``), against which ``matches`` holds the integer rows
of the package's certificates and their JSON.  Every rank, span,
kernel and intersection here comes from one reduced echelon form
(``rref``), a plain Gauss-Jordan elimination on Fractions.  The values are
its own: ``Matrix`` (Fraction rows), ``Subspace`` (a canonical basis), and
forms and elements as plain coordinate sequences, paired by ``pair``.
Only ``matrix_size`` is taken from ``seaweeds``, so no
oracle here shares elimination code or value types with the integer rows
it checks.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from seaweeds.construct import matrix_size
from seaweeds.contact import PreconditionError


@dataclass(frozen=True)
class Matrix:
    """A rational matrix: a tuple of row tuples of Fractions."""

    rows: tuple

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(((Fraction(0),) * ncols,) * nrows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __add__(self, other):
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def scale(self, c):
        return Matrix(tuple(tuple(c * a for a in r) for r in self.rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n by its rational reduced echelon basis, which is
    canonical, so equal subspaces are equal values."""

    ambient_dim: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def from_int_rows(cls, ambient_dim, rows):
        """The subspace whose canonical primitive integer rows (as
        ``linalg.rref_int_rows`` gives them) are ``rows``: each row divided
        by its pivot."""
        return cls(ambient_dim, tuple(tuple(Fraction(v, next(filter(None, row))) for v in row) for row in rows))


def pair(form, x):
    """form(x) for coordinate sequences on the dual basis and the basis."""
    return sum((Fraction(a) * b for a, b in zip(form, x)), Fraction(0))


def rref(m):
    """Reduced row echelon form of a rational matrix and its pivot columns,
    by Gauss-Jordan elimination on Fractions: each pivot row is divided by
    its pivot and its column cleared from every other row."""
    rows = [[Fraction(x) for x in row] for row in m.rows]
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                a = row[col]
                rows[i] = [x - a * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return Matrix(tuple(tuple(row) for row in rows[: len(pivots)])), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


def span(vectors, n):
    """The canonical subspace of Q^n spanned by the vectors: their RREF."""
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    if any(len(v) != n for v in vectors):
        raise ValueError("vector length does not match ambient dimension")
    return Subspace(n, rref(Matrix(tuple(vectors)))[0].rows if vectors else ())


def identity(n):
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def full(n):
    return Subspace(n, identity(n).rows)


def contains(s, vector):
    """True iff the vector lies in the subspace."""
    return rank(Matrix(s.basis + (tuple(Fraction(x) for x in vector),))) == s.dim


def transpose(m):
    return Matrix(tuple(zip(*m.rows)))


def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("matrix product shape mismatch")
    cols = tuple(zip(*b.rows))
    return Matrix(
        tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a.rows)
    )


def vec(rows):
    """Row-major flattening of a matrix given by its rows."""
    return tuple(x for row in rows for x in row)


def bracket(g, x, y):
    """[x, y] for coordinate sequences x and y, the bilinear extension of
    the structure constants."""
    out = [Fraction(0)] * g.dim
    for i, j, r, c in g.structure_items():
        out[r] += (x[i] * y[j] - x[j] * y[i]) * c
    return out


def kirillov_matrix(g, form):
    """The rational skew matrix with entry (i, j) = form([x_i, x_j])."""
    rows = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for i, j, r, c in g.structure_items():
        rows[i][j] += c * form[r]
        rows[j][i] -= c * form[r]
    return Matrix(tuple(tuple(row) for row in rows))


def nullspace(m):
    """Canonical basis of {v : Mv = 0}, from the rational RREF of m."""
    n = m.ncols
    if m.nrows == 0:
        return full(n)
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    vectors = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, piv in zip(reduced.rows, pivots):
            v[piv] = -row[free]
        vectors.append(v)
    return span(vectors, n)


def _complement_rows(s):
    # Rows spanning the orthogonal complement under the standard dot product;
    # over Q the pairing is definite, so (U-perp)-perp == U.
    if s.dim == 0:
        return identity(s.ambient_dim).rows
    return nullspace(Matrix(s.basis)).basis


def intersect(u, v):
    """Canonical basis of the intersection of two subspaces: the
    orthogonal complement of the sum of their complements."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    rows = _complement_rows(u) + _complement_rows(v)
    if not rows:
        return full(u.ambient_dim)
    return nullspace(Matrix(rows))


def kirillov_kernel(g, form):
    return nullspace(kirillov_matrix(g, form))


def bracket_span(g, kernel):
    """[kernel, g]: the span of [k, x_j] over the kernel basis and all j."""
    vectors = []
    units = [[int(t == j) for t in range(g.dim)] for j in range(g.dim)]
    for k in kernel.basis:
        vectors.extend(bracket(g, k, unit) for unit in units)
    return span(vectors, g.dim)


def meets_trivially(u, v):
    return rank(Matrix(u.basis + v.basis)) == u.dim + v.dim


@dataclass(frozen=True)
class ContactReference:
    """A contact certificate as rational values."""

    form: tuple
    reeb: tuple
    kernel_dim: int
    pairing: Fraction


@dataclass(frozen=True)
class StabilityReference:
    """A stability certificate as rational values; ``bracket_span`` is None
    for a contact form, whose certificate holds its kernel line alone."""

    form: tuple
    kernel: Subspace
    bracket_span: Subspace | None
    intersection_dim: int


def is_contact_form(g, form):
    """A reference contact certificate for the form (coordinates), or None."""
    form = tuple(map(Fraction, form))
    kernel = kirillov_kernel(g, form)
    if kernel.dim != 1:
        return None
    x = kernel.basis[0]
    pairing = pair(form, x)
    if pairing == 0:
        return None
    reeb = tuple(v / pairing for v in x)
    return ContactReference(form=form, reeb=reeb, kernel_dim=1, pairing=pair(form, reeb))


def is_contact_kernel(form, kernel):
    """True iff ``kernel`` = ker B_form is a line on which the form does not
    vanish, as for a contact form."""
    return kernel.dim == 1 and pair(form, kernel.basis[0]) != 0


def contact_volume_nonzero(g, form):
    """The top-wedge test of contactness, which never looks at a kernel:
    phi ^ (d phi)^k is a volume form iff the bordered skew matrix
    [[0, phi], [-phi, B_phi]] is nonsingular, its Pfaffian being that
    coefficient up to a harmless sign and scale.  The bordered matrix is
    rational and ranked by ``rref``.  Like the package's contact test it
    refuses an even-dimensional algebra, and it refuses a form whose length
    is not the dimension, which the bordering would otherwise misalign."""
    if g.dim % 2 == 0:
        raise PreconditionError("a contact form needs an odd-dimensional algebra")
    if len(form) != g.dim:
        raise ValueError("form length does not match algebra dimension")
    form = tuple(map(Fraction, form))
    b = kirillov_matrix(g, form)
    bordered = Matrix(((Fraction(0), *form),) + tuple((-c, *row) for c, row in zip(form, b.rows)))
    return rank(bordered) == g.dim + 1


def is_stable_form(g, form):
    """The kernel-bracket test, run on every form: for a contact form too,
    so that each short certificate comes with [ker, g] met trivially."""
    form = tuple(map(Fraction, form))
    kernel = kirillov_kernel(g, form)
    span = bracket_span(g, kernel)
    if not meets_trivially(kernel, span):
        return None
    if is_contact_kernel(form, kernel):
        span = None
    return StabilityReference(form=form, kernel=kernel, bracket_span=span, intersection_dim=0)


def _strs(coords):
    return [f"{x.numerator}/{x.denominator}" for x in map(Fraction, coords)]


def _basis(s):
    return {"ambient_dim": s.ambient_dim, "basis": [_strs(v) for v in s.basis]}


def certificate_json(cert):
    """The JSON of a reference certificate, each rational written from its
    Fraction."""
    if isinstance(cert, ContactReference):
        return {
            "kind": "contact",
            "form": _strs(cert.form),
            "reeb": _strs(cert.reeb),
            "kernel_dim": cert.kernel_dim,
            "pairing": _strs([cert.pairing])[0],
        }
    doc = {"kind": "stability", "form": _strs(cert.form), "kernel": _basis(cert.kernel)}
    if cert.bracket_span is not None:
        doc["bracket_span"] = _basis(cert.bracket_span)
    doc["intersection_dim"] = cert.intersection_dim
    return doc


def clear_denominators(coords):
    """Rationals (ints, Fractions or "num/den" strings) as (integer row,
    least positive common denominator): the integer form a rational form
    is taken as, with the same kernel and verdicts."""
    coords = [Fraction(x) for x in coords]
    den = lcm(*(x.denominator for x in coords))
    return tuple(int(x * den) for x in coords), den


def rows(cert):
    """A certificate of ``seaweeds.contact`` or of this module as integer
    rows: each vector as (row, least positive common denominator), each
    canonical basis as its primitive integer rows."""
    if isinstance(cert, ContactReference):
        return clear_denominators(cert.form), clear_denominators(cert.reeb)
    if isinstance(cert, StabilityReference):
        bases = (cert.kernel, cert.bracket_span)
        return (clear_denominators(cert.form), *(s and tuple(clear_denominators(v)[0] for v in s.basis) for s in bases))
    form = (cert.form_row, 1)
    if hasattr(cert, "reeb_row"):
        return form, clear_denominators(Fraction(v, cert.reeb_den) for v in cert.reeb_row)
    return form, cert.kernel_rows, cert.bracket_span_rows


def matches(cert, reference):
    """True iff a certificate of ``seaweeds.contact`` and a reference
    certificate are both None, or have equal integer rows (``rows``) and
    equal JSON (``serialize.certificate_to_json`` against
    ``certificate_json``)."""
    from seaweeds.serialize import certificate_to_json

    if cert is None or reference is None:
        return cert is reference
    return rows(cert) == rows(reference) and certificate_to_json(cert) == certificate_json(reference)


def frac_from_str(s):
    """A JSON rational as a Fraction; a zero denominator raises ValueError."""
    if isinstance(s, int):
        return Fraction(s)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _coords(data):
    return tuple(frac_from_str(x) for x in data)


def _subspace(doc):
    return Subspace(doc["ambient_dim"], tuple(_coords(v) for v in doc["basis"]))


def verify_certificate(g, doc):
    """``serialize.verify_certificate`` on rational matrices."""
    form = _coords(doc["form"])
    if len(form) != g.dim:
        raise ValueError("coordinate length does not match algebra dimension")
    if doc["kind"] == "contact":
        reeb = _coords(doc["reeb"])
        if len(reeb) != g.dim:
            raise ValueError("coordinate length does not match algebra dimension")
        if doc["kernel_dim"] != 1 or frac_from_str(doc["pairing"]) != 1:
            return False
        b = kirillov_matrix(g, form)
        if any(sum(x * y for x, y in zip(row, reeb)) for row in b.rows):
            return False
        return pair(form, reeb) == 1 and nullspace(b).dim == 1
    kernel = _subspace(doc["kernel"])
    span = _subspace(doc["bracket_span"]) if "bracket_span" in doc else None
    if doc["intersection_dim"] != 0 or kirillov_kernel(g, form) != kernel:
        return False
    if span is None:
        # a short certificate names a contact form; [ker, g] is taken here
        # all the same, so the reference confirms that it meets ker in 0
        if not is_contact_kernel(form, kernel):
            return False
        span = bracket_span(g, kernel)
    elif bracket_span(g, kernel) != span:
        return False
    return meets_trivially(kernel, span)


def bilinear_form(family, size):
    """The defining form S of SP or SO: antidiagonal, with +1 in the top
    half and -1 in the bottom half for SP, and all +1 for SO."""
    return Matrix.from_rows(
        [[(-1 if family == "SP" and i >= size // 2 else 1) if i + j == size - 1 else 0 for j in range(size)]
         for i in range(size)]
    )


def ambient_basis(family, n):
    """The canonical basis of an ambient family as matrices (tuples of
    Fraction row tuples): the nullspace
    of its rational condition matrix (none for GL, the trace row for SL,
    X^T S + S X = 0 summed out of the rational form S for SP/SO)."""
    size = matrix_size(family, n)
    if family == "GL":
        space = full(size * size)
    elif family == "SL":
        trace_row = tuple(Fraction(1) if t % (size + 1) == 0 else Fraction(0) for t in range(size * size))
        space = nullspace(Matrix((trace_row,)))
    else:
        s = bilinear_form(family, size).rows
        rows = []
        for i in range(size):
            for j in range(size):
                row = [Fraction(0)] * (size * size)
                for k in range(size):
                    row[k * size + i] += s[k][j]  # (X^T S)[i][j]
                    row[k * size + j] += s[i][k]  # (S X)[i][j]
                rows.append(tuple(row))
        space = nullspace(Matrix(tuple(rows)))
    return tuple(tuple(tuple(row[u * size + v] for v in range(size)) for u in range(size)) for row in space.basis)
