"""Seaweed subalgebras of gl(n), sl(n), sp(2n), so(n) from composition pairs.

Every seaweed is built by ``flag_seaweed``: it is the stabilizer, inside one
of the four ambient families, of two coordinate flags (Dergachev-Kirillov
2000), the forward flag with subspace sizes the prefix sums of a and the
reversed flag with sizes the prefix sums of reversed(b) (equivalently, the
spans of the last n - q coordinates for prefix sums q of b).  Stabilizing
them kills a set of off-diagonal matrix entries.

Each family and rank is built once, by ``_ambient``: its basis is the
integer kernel of the family's condition rows, its table is read off the
sparse commutators of the basis matrices, and the ordinary constructor
checks Jacobi and the realization.  No off-diagonal entry is shared by two
ambient basis matrices: GL basis matrices are elementary, SL ones are
off-diagonal elementary or e_ii - e_{N-1,N-1}, and each SP/SO one lives on
one orbit {(i,j), (N-1-j, N-1-i)}.  So the stabilizer is spanned by the
ambient basis matrices whose support avoids the killed entries, tested with
one AND of bit masks each, and every seaweed is ``LieAlgebra.restrict`` of
the ambient algebra to them: a walk over the kept elements' rows of the
ambient table that checks closure under the bracket and inherits the
ambient's other identities.

The type-A block picture, e_ij with blockA(i) <= blockA(j) and
blockB(i) >= blockB(j), is not built here: it lives on in the tests as an
independent reference, which yields the same basis, table and realization
as the GL flag stabilizer.

For sp and so the ambient bilinear form is antidiagonal, so coordinate flags
bounded by floor(N/2) are isotropic and upper-triangular members form a
Borel; composition totals are therefore capped at floor(N/2) in those
families.  The reachable sp/so seaweeds are exactly the double-coordinate-
flag stabilizers; mixed types are out of scope.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import Matrix, _immutable, as_scalar, kernel_int_rows
from .lie import LieAlgebra, StructureError, _commutator

FAMILIES = ("GL", "SL", "SP", "SO")


class Composition:
    """Ordered tuple of positive integers; () is the empty composition.

    The CLI text form is comma-separated parts, with "0" denoting the empty
    composition.
    """

    __slots__ = ("parts",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, parts: tuple[int, ...]):
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"composition parts must be positive integers, got {p!r}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        return type(other) is Composition and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Composition(parts={self.parts!r})"

    @property
    def total(self) -> int:
        return sum(self.parts)

    def prefix_sums(self) -> tuple[int, ...]:
        out, acc = [], 0
        for p in self.parts:
            acc += p
            out.append(acc)
        return tuple(out)

    def reversed(self) -> "Composition":
        return Composition(tuple(self.parts[::-1]))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse composition {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def parse_pair(text: str) -> tuple[Composition, Composition]:
    """Parse the "top|bottom" composition pair syntax, e.g. "2,1|3"."""
    if text.count("|") != 1:
        raise ValueError(f"expected TOP|BOTTOM, got {text!r}")
    top, bottom = text.split("|")
    return Composition.parse(top), Composition.parse(bottom)


def enumerate_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n.

    Deterministic order: the k-th composition is read off the (n-1)-bit
    binary expansion of k, most significant bit first, where bit t set means
    "cut after position t+1".  So k=0 is (n) and k=2^(n-1)-1 is (1,...,1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for pos in range(n - 1):
            if (mask >> (n - 2 - pos)) & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(Composition(tuple(parts)))
    return out


def composition_pairs(family: str, n: int) -> list[tuple[Composition, Composition]]:
    """Deterministic enumeration of the composition pairs the family admits.

    GL/SL: all pairs of compositions of n (4^(n-1) pairs).  SP/SO: all pairs
    with totals at most floor(N/2), the isotropic-flag bound, including the
    empty composition (no constraint, parabolic = whole algebra), which is
    4^floor(N/2) pairs; ordered by total, then mask order.
    """
    family = family.upper()
    if family in ("GL", "SL"):
        comps = enumerate_compositions(n)
    else:
        size = 2 * n if family == "SP" else n
        comps = [Composition(())]
        for t in range(1, size // 2 + 1):
            comps.extend(enumerate_compositions(t))
    return [(a, b) for a in comps for b in comps]


def _form_signs(family: str, size: int) -> list[int]:
    """The antidiagonal of the SP/SO form, s_i = S[i][N-1-i]."""
    return [-1 if family == "SP" and i >= size // 2 else 1 for i in range(size)]


class AmbientAlgebra:
    """One of the four reductive matrix families, by name and rank.

    For SP the defining form S is antidiagonal with +1 in the top half and
    -1 in the bottom half (``_form_signs``); for SO it is antidiagonal with
    all +1.  Membership in both cases is X^T S + S X = 0.
    """

    __slots__ = ("family", "n", "matrix_size")

    def __init__(self, family: str, n: int):
        family = family.upper()
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if family == "SP":
            if n < 1:
                raise ValueError("sp rank must be at least 1")
            size = 2 * n
        elif family == "SO":
            if n < 2:
                raise ValueError("so matrix size must be at least 2")
            size = n
        elif family == "SL":
            if n < 2:
                raise ValueError("sl(n) needs n >= 2")
            size = n
        else:
            if n < 1:
                raise ValueError("rank must be at least 1")
            size = n
        self.family = family
        self.n = n
        self.matrix_size = size

    @property
    def max_flag(self) -> int:
        """Largest admissible flag-subspace dimension."""
        size = self.matrix_size
        return size if self.family in ("GL", "SL") else size // 2


@lru_cache(maxsize=None)
def _ambient(family: str, n: int) -> tuple[LieAlgebra, tuple[int, ...], int]:
    """The ambient family as a checked algebra on its canonical basis, with
    the bit masks of each basis matrix's support and of the entries shared
    by two of them: entry (u, v) of an N x N matrix is bit u * N + v.

    The basis is the ``kernel_int_rows`` of the family's condition rows on
    vectorized (row-major) matrices: none for GL, the trace row for SL, and
    X^T S + S X = 0 for SP/SO.  S is antidiagonal, S[i][N-1-i] = s_i, so
    entry (i, j) of the condition reads
    s_{N-1-j} X[N-1-j][i] + s_i X[N-1-i][j] = 0.  Every kernel row has pivot
    1 (its first nonzero entry), so the integer rows are the rational RREF
    basis, and the coordinates of any member are its values at the pivots;
    a row with another pivot raises StructureError.  The table is read off
    the sparse commutators that way, and ``LieAlgebra`` checks Jacobi and
    that the basis matrices realize the table, which is the one check of
    each commutator.
    """
    size = AmbientAlgebra(family, n).matrix_size
    rows = []
    if family == "SL":
        rows = [[int(i % (size + 1) == 0) for i in range(size * size)]]
    elif family in ("SP", "SO"):
        sign = _form_signs(family, size)
        for i in range(size):
            for j in range(size):
                row = [0] * (size * size)
                row[(size - 1 - j) * size + i] += sign[size - 1 - j]  # (X^T S)[i][j]
                row[(size - 1 - i) * size + j] += sign[i]  # (S X)[i][j]
                rows.append(row)
    basis = kernel_int_rows(rows, size * size)
    sparse = [{divmod(e, size): c for e, c in enumerate(row) if c} for row in basis]
    owner = {}
    for k, entries in enumerate(sparse):
        pivot = min(entries)
        if entries[pivot] != 1:
            raise StructureError(f"ambient basis row {k} has pivot {entries[pivot]}, not 1")
        owner[pivot] = k
    table = {}
    for i, x in enumerate(sparse):
        for j in range(i + 1, len(sparse)):
            coords = {owner[e]: c for e, c in _commutator(x, sparse[j]).items() if c and e in owner}
            if coords:
                table[(i, j)] = coords
    # one Fraction per distinct value: one per entry costs a GL7 build about 4 ms
    scalar = {c: as_scalar(c) for row in basis for c in set(row)}
    mats = tuple(
        Matrix(tuple(tuple(map(scalar.get, row[u * size:(u + 1) * size])) for u in range(size)))
        for row in basis
    )
    supports = tuple(sum(1 << e for e, c in enumerate(row) if c) for row in basis)
    seen = shared = 0
    for support in supports:
        shared |= seen & support
        seen |= support
    return LieAlgebra(len(mats), table, realization=mats), supports, shared


@lru_cache(maxsize=None)
def _killed_block(size: int, p: int, forward: bool) -> int:
    """The entries a flag subspace of dimension p kills, as a bit mask like
    ``_ambient``'s: rows >= p and columns < p for the forward flag's
    V_p, rows < N - p and columns >= N - p for the reversed flag's W_p."""
    if forward:
        return sum(((1 << p) - 1) << (r * size) for r in range(p, size))
    return sum(((1 << p) - 1) << (r * size + size - p) for r in range(size - p))


def _kept_elements(amb: AmbientAlgebra, a: Composition, b: Composition) -> list[int]:
    """The ambient basis matrices whose support avoids every entry the two
    flags kill, as indices in ambient order (see ``flag_seaweed``).  The
    killed entries are one bit mask, the union of one cached block per
    prefix sum, and each support is tested against it with one AND."""
    size = amb.matrix_size
    if amb.family in ("GL", "SL"):
        if a.total != size or b.total != size:
            raise ValueError(f"composition totals must equal {size} for {amb.family}")
    else:
        if a.total > amb.max_flag or b.total > amb.max_flag:
            raise ValueError(
                f"composition totals must be at most {amb.max_flag} for isotropic flags"
            )
    killed = 0
    for p in a.prefix_sums():
        killed |= _killed_block(size, p, True)
    for q in b.reversed().prefix_sums():
        killed |= _killed_block(size, q, False)
    _, supports, shared = _ambient(amb.family, amb.n)
    if shared & killed:
        raise StructureError("a killed entry is shared by two ambient basis matrices")
    return [k for k, support in enumerate(supports) if not support & killed]


def flag_seaweed(amb: AmbientAlgebra, a: Composition, b: Composition) -> LieAlgebra:
    """Double-flag stabilizer seaweed inside the ambient algebra.

    Members preserve V_p = span(e_0..e_{p-1}) for every prefix sum p of a and
    W_q = span(e_{N-q}..e_{N-1}) for every prefix sum q of reversed(b), that
    is, they vanish on the entries those flags kill.  The basis is the
    ambient basis matrices whose support avoids every killed entry, in
    ambient order; the structure constants are the ambient table restricted
    to them, and the realization reuses the ambient matrices: the seaweed is
    the restriction of the checked ambient algebra to the kept elements.
    Raises StructureError if a killed entry is shared by two ambient basis
    matrices (the kept matrices would then not span the stabilizer) or a
    bracket of kept matrices leaves them.
    """
    label = f"{amb.family}{amb.matrix_size}[{a}|{b}]"
    return _ambient(amb.family, amb.n)[0].restrict(_kept_elements(amb, a, b), label)


def seaweed(family: str, n: int, a: Composition, b: Composition) -> LieAlgebra:
    """Uniform entry point used by the classifier and the CLI."""
    return flag_seaweed(AmbientAlgebra(family, n), a, b)


def seaweed_dim(family: str, n: int, a: Composition, b: Composition) -> int:
    """``seaweed(family, n, a, b).dim``, counted from the ambient support
    masks (``_kept_elements``) without building or restricting an
    algebra."""
    return len(_kept_elements(AmbientAlgebra(family, n), a, b))

