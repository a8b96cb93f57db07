"""Seaweed subalgebras of gl(n), sl(n), sp(2n), so(n) from composition pairs.

Every seaweed is built by ``seaweed(family, n, a, b)``, the one entry
point (``seaweed_dim`` counts its dimension without building it): it is
the stabilizer, inside one of the four ambient families, of two
coordinate flags (Dergachev-Kirillov 2000), the forward flag with
subspace sizes the prefix sums of a and the reversed flag with sizes the
prefix sums of reversed(b) (equivalently, the spans of the last n - q
coordinates for prefix sums q of b).  Stabilizing them kills a set of
off-diagonal matrix entries.

Each family and rank is built once, by ``_ambient``: its basis is the
integer kernel of the family's condition rows, its table is read off the
sparse commutators of the basis matrices, and the ordinary constructor
checks the realization, which implies Jacobi (``lie``).  No off-diagonal
entry is shared by two ambient basis matrices, and each has a private
entry: GL ones are elementary, SL ones off-diagonal elementary or
e_ii - e_{N-1,N-1}, and each SP/SO one lives on one orbit {(i,j),
(N-1-j, N-1-i)}.  So the stabilizer is spanned by the ambient basis
matrices whose support avoids the killed entries, tested with one AND of
bit masks each, and every seaweed is ``LieAlgebra.restrict`` of the
ambient algebra to them: a walk over the kept elements' rows of the
ambient table that checks closure under the bracket and inherits the
ambient's other identities.

Every seaweed has one name, ``seaweed_label``: the family, the matrix
size N, not the rank (SP4[0|1] is an SP seaweed of rank 2), and the pair
in the CLI's text form.  Every output that names a seaweed uses it.

In GL and SL, theta(X) = -X^T permutes the ambient basis up to sign
(``_transpose``) and maps the seaweed of (a|b) onto that of (b|a)
(``transpose_map``), which lets a sweep search one of the two.

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

from .linalg import kernel_int_rows
from .lie import LieAlgebra, StructureError, _commutator

FAMILIES = ("GL", "SL", "SP", "SO")

# The largest rank of each family any command or document names (``check_limit``).
LIMITS = {"GL": 7, "SL": 7, "SP": 4, "SO": 8}


class LimitError(ValueError):
    """Requested rank exceeds the sweep limits."""


def check_limit(family: str, n: int) -> None:
    """Raise LimitError when rank n of ``family`` (a name in FAMILIES) is
    over ``LIMITS``."""
    if n > LIMITS[family]:
        raise LimitError(f"{family} rank {n} is over the sweep limit n <= {LIMITS[family]}")


def _immutable(self, name, value=None):
    # Composition's __setattr__ and __delattr__; __init__ uses object's
    raise AttributeError(f"{type(self).__name__} is immutable")


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
    if family in ("GL", "SL"):
        comps = enumerate_compositions(n)
    else:
        size = matrix_size(family, n)
        comps = [Composition(())]
        for t in range(1, size // 2 + 1):
            comps.extend(enumerate_compositions(t))
    return [(a, b) for a in comps for b in comps]


def _form_signs(family: str, size: int) -> list[int]:
    """The antidiagonal of the SP/SO form, s_i = S[i][N-1-i]."""
    return [-1 if family == "SP" and i >= size // 2 else 1 for i in range(size)]


def matrix_size(family: str, n: int) -> int:
    """The size N of the matrices of ``family`` at rank n: 2n for SP, n
    otherwise.  ``family`` is a name in FAMILIES, in upper case.  For SP the
    defining form S is antidiagonal with +1 in the top half and -1 in the
    bottom half (``_form_signs``); for SO it is antidiagonal with all +1;
    membership in both is X^T S + S X = 0.  An unknown family or a rank
    below the family's least raises ValueError."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if family in ("SL", "SO") and n < 2:
        raise ValueError(f"{family} rank must be at least 2")
    if n < 1:
        raise ValueError("rank must be at least 1")
    return 2 * n if family == "SP" else n


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
    the sparse commutators that way, and ``LieAlgebra`` checks that the
    basis matrices, each kernel row cut into N integer rows, realize the
    table, which is the one check of each commutator and implies Jacobi.
    """
    size = matrix_size(family, n)
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
    mats = [[row[u * size:(u + 1) * size] for u in range(size)] for row in basis]
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


def _kept_elements(family: str, n: int, a: Composition, b: Composition) -> list[int]:
    """The ambient basis matrices whose support avoids every entry the two
    flags kill, as indices in ambient order (see ``seaweed``).  The killed
    entries are one bit mask, the union of one cached block per prefix sum,
    and each support is tested against it with one AND.  Raises ValueError
    on an unknown family or rank, or on composition totals the family does
    not admit: N for GL/SL, at most floor(N/2), the isotropic bound, for
    SP/SO."""
    size = matrix_size(family, n)
    if family in ("GL", "SL"):
        if a.total != size or b.total != size:
            raise ValueError(f"composition totals must equal {size} for {family}")
    elif a.total > size // 2 or b.total > size // 2:
        raise ValueError(f"composition totals must be at most {size // 2} for isotropic flags")
    killed = 0
    for p in a.prefix_sums():
        killed |= _killed_block(size, p, True)
    for q in b.reversed().prefix_sums():
        killed |= _killed_block(size, q, False)
    _, supports, shared = _ambient(family, n)
    if shared & killed:
        raise StructureError("a killed entry is shared by two ambient basis matrices")
    return [k for k, support in enumerate(supports) if not support & killed]


def seaweed(family: str, n: int, a: Composition, b: Composition) -> LieAlgebra:
    """The seaweed of ``family`` (a name in FAMILIES) at rank n named by the
    composition pair (a, b): its double-flag stabilizer.

    Members preserve V_p = span(e_0..e_{p-1}) for every prefix sum p of a and
    W_q = span(e_{N-q}..e_{N-1}) for every prefix sum q of reversed(b), that
    is, they vanish on the entries those flags kill.  The basis is the
    ambient basis matrices whose support avoids every killed entry, in
    ambient order; the structure constants are the ambient table restricted
    to them, and the realization reuses the ambient matrices: the seaweed is
    the restriction of the checked ambient algebra to the kept elements.
    Raises ValueError as ``_kept_elements`` does, and StructureError if a
    killed entry is shared by two ambient basis matrices (the kept matrices
    would then not span the stabilizer) or a bracket of kept matrices leaves
    them.
    """
    kept = _kept_elements(family, n, a, b)
    return _ambient(family, n)[0].restrict(kept, seaweed_label(family, n, a, b))


def seaweed_label(family: str, n: int, a: Composition, b: Composition) -> str:
    """The name of ``seaweed(family, n, a, b)`` (module docstring), e.g.
    GL3[2,1|3]."""
    return f"{family}{matrix_size(family, n)}[{a}|{b}]"


@lru_cache(maxsize=None)
def _transpose(family: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """theta(X) = -X^T on the GL or SL ambient basis, as the signed
    permutation (pi, sigma) with -X_k^T = sigma_k X_pi(k).  theta is an
    automorphism of gl(N) and preserves trace zero.  On the canonical bases
    it sends e_ij to -e_ji and each e_ii - e_{N-1,N-1} to minus itself.
    Raises StructureError if some -X_k^T is not plus or minus a basis
    matrix, and ValueError on a family other than GL and SL."""
    if family not in ("GL", "SL"):
        raise ValueError(f"-X^T is a signed permutation of the GL and SL bases only, not {family}")
    mats = _ambient(family, n)[0].realization
    position = {m: k for k, m in enumerate(mats)}
    perm, signs = [], []
    for k, m in enumerate(mats):
        transposed = tuple(zip(*m))
        negated = tuple(tuple(-v for v in row) for row in transposed)
        if negated in position:
            perm.append(position[negated])
            signs.append(1)
        elif transposed in position:
            perm.append(position[transposed])
            signs.append(-1)
        else:
            raise StructureError(f"-X^T of ambient basis matrix {k} is not a signed basis matrix")
    return tuple(perm), tuple(signs)


def transpose_map(family: str, n: int, a: Composition, b: Composition) -> tuple[tuple[int, int], ...]:
    """theta(X) = -X^T (``_transpose``) from ``seaweed(family, n, a, b)``
    onto ``seaweed(family, n, b, a)``, for GL and SL: entry i is (j, s)
    with theta(x_i) = s y_j, x and y the two seaweeds' bases.  Transposing
    swaps the entries the two flags kill, so theta maps the first seaweed
    onto the second.  Raises StructureError if pi does not map the kept
    elements of (a|b) onto those of (b|a), and ValueError as
    ``_kept_elements`` and ``_transpose`` do."""
    perm, signs = _transpose(family, n)
    kept = _kept_elements(family, n, a, b)
    position = {k: j for j, k in enumerate(_kept_elements(family, n, b, a))}
    if len(kept) != len(position) or any(perm[k] not in position for k in kept):
        raise StructureError(f"-X^T does not map the seaweed {a}|{b} onto {b}|{a}")
    return tuple((position[perm[k]], signs[k]) for k in kept)


def seaweed_dim(family: str, n: int, a: Composition, b: Composition) -> int:
    """``seaweed(family, n, a, b).dim``, counted from the ambient support
    masks (``_kept_elements``) without building or restricting an
    algebra."""
    return len(_kept_elements(family, n, a, b))
