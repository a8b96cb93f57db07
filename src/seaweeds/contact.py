"""Contact and stability analysis of one-forms on Lie algebras.

A one-form phi on an odd-dimensional algebra is contact when the top wedge
power phi ^ (d phi)^k is a volume form.  Two independent tests are provided:

* ``is_contact_form`` uses the kernel characterization: the Kirillov kernel
  must be a line C.x with phi(x) != 0, in which case the Reeb vector
  x / phi(x) is the canonical kernel generator with phi(reeb) = 1.
* ``contact_volume_nonzero`` borders the Kirillov matrix with the
  coordinates of phi and tests nonsingularity, which is the top-wedge
  condition itself: the Pfaffian of the bordered matrix is the coefficient
  of phi ^ (d phi)^k up to a harmless sign and scale.

Stability uses the kernel-bracket criterion: phi is stable iff
[ker B_phi, g] meets ker B_phi only in 0.  Certificates carry everything
needed to re-check the defining equations from scratch.

All three tests, and the re-checks in ``serialize.verify_certificate``,
run on integer rows.  The Kirillov matrix and the bordered matrix are skew,
so they go through the skew elimination of ``linalg``, whose 2x2 pivots
divide exactly because each entry it holds is a Pfaffian of a principal
minor: the kernel comes as canonical primitive integer rows
(``linalg.skew_kernel_int_rows`` of ``LieAlgebra.kirillov_int_rows``) and
the bordered test is one ``linalg.skew_rank_int_rows``.  [ker, g] is not
skew; it is spanned from the kernel rows by general elimination
(``bracket_span_int_rows``), and the meet is one general integer rank.  The
searches pass each attempt's integer draws straight to the tests.
Rationals appear only in a certificate that is issued, which is the one a
computation over Q gives: canonical rows are unique, and the Reeb vector is
k / phi(k) for any generator k of the kernel line.

``search_verdict`` is the one statement of what the outcomes of the two
searches on an index-one algebra say about the equivalence "contact iff
stable"; the classifier assigns it and report verification re-derives it.

All operations accept arbitrary finite-dimensional algebras over Q, not just
seaweeds.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    Matrix,
    Subspace,
    inverse,
    is_squarefree,
    meets_trivially_int_rows,
    minimal_polynomial,
    nullspace,
    skew_kernel_int_rows,
    skew_rank_int_rows,
    span_int_rows,
)
from .lie import (
    DEFAULT_BOUND,
    Element,
    LieAlgebra,
    OneForm,
    center,
    form_int_coords,
    kirillov_kernel,
)

logger = logging.getLogger(__name__)

DEFAULT_ATTEMPTS = 64
EPSILON_STEPS = 20

FOUND, NOT_FOUND, SKIPPED = "FOUND", "NOT_FOUND", "SKIPPED"
CONSISTENT, COUNTEREXAMPLE, UNRESOLVED = "CONSISTENT", "COUNTEREXAMPLE", "UNRESOLVED"


class PreconditionError(ValueError):
    """An operation was applied outside its stated domain."""


@dataclass(frozen=True)
class ContactCertificate:
    """Machine-checkable evidence that a form is contact.

    Invariants: B_form . reeb = 0, form(reeb) = 1, dim ker B_form = 1.
    """

    form: OneForm
    reeb: Element
    kernel_dim: int
    pairing: Fraction


@dataclass(frozen=True)
class StabilityCertificate:
    """Evidence for the kernel-bracket stability criterion.

    Invariants: kernel = ker B_form, bracket_span = [kernel, g], and the two
    meet only in 0.
    """

    form: OneForm
    kernel: Subspace
    bracket_span: Subspace
    intersection_dim: int


@dataclass(frozen=True)
class ContactBasis:
    """Basis (reeb, u_1, v_1, ..., u_k, v_k) normalizing the Kirillov form.

    ``dual_check`` is the matrix of B_form in this basis: zero first row and
    column, 2x2 blocks [[0,1],[-1,0]] down the rest of the diagonal.
    """

    elements: tuple[Element, ...]
    dual_check: Matrix


def _require_odd(g: LieAlgebra):
    if g.dim % 2 == 0:
        raise PreconditionError("contact analysis needs an odd-dimensional algebra")


def _require_budget(attempts: int):
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, got {attempts}")


def _int_coords(form) -> list:
    """Integer coordinates of a form given as a OneForm or as integers."""
    return form_int_coords(form) if isinstance(form, OneForm) else form


def _as_form(g: LieAlgebra, form) -> OneForm:
    return form if isinstance(form, OneForm) else OneForm(g, tuple(map(Fraction, form)))


def is_contact_form(g: LieAlgebra, form) -> ContactCertificate | None:
    """Certificate iff ker B_form is a line on which the form does not vanish.

    ``form`` is a OneForm or integer coordinates, as the search draws them;
    the test runs on integer rows, and a OneForm is built only for an
    issued certificate."""
    _require_odd(g)
    ints = _int_coords(form)
    kernel = skew_kernel_int_rows(g.kirillov_int_rows(ints))
    if len(kernel) != 1:
        return None
    (k,) = kernel
    if not sum(c * v for c, v in zip(ints, k) if v):
        return None
    form = _as_form(g, form)
    pairing = sum((c * v for c, v in zip(form.coords, k) if v), Fraction(0))
    reeb = Element(g, tuple(Fraction(v) / pairing for v in k))
    return ContactCertificate(form=form, reeb=reeb, kernel_dim=1, pairing=form(reeb))


def contact_volume_nonzero(g: LieAlgebra, form: OneForm) -> bool:
    """Top-wedge volume test via the bordered Kirillov matrix.

    The (dim+1)-square skew matrix [[0, phi], [-phi, B_phi]] is nonsingular
    exactly when phi ^ (d phi)^k is a volume form, which is the defining
    contact condition; this route never looks at kernels or Reeb vectors.
    It is built on integer rows, with phi and B_phi each scaled by a
    positive factor, which scales the Pfaffian and keeps its zeros, and
    ranked by skew elimination.
    """
    _require_odd(g)
    ints = form_int_coords(form)
    bordered = [[0, *ints]]
    for c, row in zip(ints, g.kirillov_int_rows(ints)):
        bordered.append([-c, *row])
    return skew_rank_int_rows(bordered) == g.dim + 1


def bracket_span_int_rows(g: LieAlgebra, kernel) -> list:
    """[K, g] as canonical primitive integer rows: the span of [k, x_j] over
    the integer rows k spanning K and all j."""
    vectors = []
    for k in kernel:
        vectors.extend(g.ad_int_rows(k))
    return span_int_rows(vectors)


def is_stable_form(g: LieAlgebra, form) -> StabilityCertificate | None:
    """Certificate iff [ker B_form, g] intersects ker B_form trivially;
    ``form`` as for ``is_contact_form``."""
    kernel = skew_kernel_int_rows(g.kirillov_int_rows(_int_coords(form)))
    span = bracket_span_int_rows(g, kernel)
    if not meets_trivially_int_rows(kernel, span):
        return None
    return StabilityCertificate(
        form=_as_form(g, form),
        kernel=Subspace.from_int_rows(g.dim, kernel),
        bracket_span=Subspace.from_int_rows(g.dim, span),
        intersection_dim=0,
    )


def search_verdict(contact: str, stable: str, attempts: int) -> str:
    """Verdict on an index-one algebra from its two search statuses (FOUND or
    NOT_FOUND) and the per-search attempt budget."""
    if attempts < 1:
        return UNRESOLVED
    if contact == FOUND:
        return CONSISTENT if stable == FOUND else COUNTEREXAMPLE
    return UNRESOLVED if stable == FOUND else CONSISTENT


def find_contact_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
) -> ContactCertificate | None:
    """Randomized search for a contact form; None means budget exhausted.

    Exhaustion is not a proof of non-contactness, only one-sided evidence;
    the classifier corroborates it against the stability search.  A budget
    of 0 finds nothing; a negative one raises ValueError.
    """
    _require_odd(g)
    _require_budget(attempts)
    rng = random.Random(seed)
    for _ in range(attempts):
        cert = is_contact_form(g, [rng.randint(-bound, bound) for _ in range(g.dim)])
        if cert is not None:
            return cert
    return None


def find_stable_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
) -> StabilityCertificate | None:
    """Randomized search for a stable form; None means budget exhausted.
    A budget of 0 finds nothing; a negative one raises ValueError."""
    _require_budget(attempts)
    rng = random.Random(seed)
    for _ in range(attempts):
        cert = is_stable_form(g, [rng.randint(-bound, bound) for _ in range(g.dim)])
        if cert is not None:
            return cert
    return None


def is_semisimple_element(x: Element) -> bool:
    """Squarefree minimal polynomial of the realization, i.e. diagonalizable
    over the algebraic closure."""
    if x.algebra.realization is None:
        raise PreconditionError("semisimplicity needs a matrix realization")
    return is_squarefree(minimal_polynomial(x.matrix()))


def reductive_type_witness(g: LieAlgebra, form: OneForm) -> bool:
    """For a centerless algebra with one-dimensional Kirillov kernel: is the
    kernel generator semisimple?

    A one-dimensional kernel forces index one (kernel dimensions share the
    parity of dim), so the preconditions pin down exactly the index-one
    centerless case.
    """
    if g.realization is None:
        raise PreconditionError("reductive-type witness needs a matrix realization")
    if center(g).dim != 0:
        raise PreconditionError("algebra has nonzero center")
    kernel = kirillov_kernel(g, form)
    if kernel.dim != 1:
        raise PreconditionError("form does not have a one-dimensional kernel")
    return is_semisimple_element(Element(g, kernel.basis[0]))


def _pairing(g: LieAlgebra, form: OneForm, u, v) -> Fraction:
    return sum(
        (c * form.coords[r] for r, c in enumerate(g.bracket_coords(u, v))), Fraction(0)
    )


def _canonical_block(dim: int) -> Matrix:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for pos in range(1, dim - 1, 2):
        rows[pos][pos + 1] = Fraction(1)
        rows[pos + 1][pos] = Fraction(-1)
    return Matrix(tuple(tuple(r) for r in rows))


def contact_basis(g: LieAlgebra, cert: ContactCertificate) -> ContactBasis:
    """Normal-form basis for a contact certificate.

    E_1 is the Reeb vector; the rest is built by symplectic elimination on
    ker(form), where the Kirillov form is nondegenerate: take the first
    unused vector u of the canonical spanning order, pair it with the first
    partner v of nonzero pairing (rescaled so B(u,v) = 1), then project the
    remainder onto the pair's B-orthogonal complement.  The pivot rule is
    deterministic, so bases are reproducible across runs and platforms.
    """
    _validate_contact(g, cert)
    form = cert.form
    pool = []
    if g.dim > 1:
        pool = [list(v) for v in nullspace(Matrix((form.coords,))).basis]
    pairs = []
    while pool:
        u = pool.pop(0)
        partner = None
        for idx, v in enumerate(pool):
            if _pairing(g, form, u, v):
                partner = idx
                break
        if partner is None:
            raise PreconditionError("Kirillov form degenerates on ker(form): bad certificate")
        v = pool.pop(partner)
        scale = _pairing(g, form, u, v)
        v = [x / scale for x in v]
        projected = []
        for w in pool:
            bu = _pairing(g, form, w, v)
            bv = _pairing(g, form, w, u)
            projected.append(
                [wx - bu * ux + bv * vx for wx, ux, vx in zip(w, u, v)]
            )
        pool = projected
        pairs.append((u, v))
    elements = [cert.reeb]
    for u, v in pairs:
        elements.append(Element(g, tuple(u)))
        elements.append(Element(g, tuple(v)))
    check = Matrix(
        tuple(
            tuple(_pairing(g, form, list(ei.coords), list(ej.coords)) for ej in elements)
            for ei in elements
        )
    )
    if check != _canonical_block(g.dim):
        raise PreconditionError("symplectic elimination failed to reach the normal form")
    return ContactBasis(elements=tuple(elements), dual_check=check)


def _validate_contact(g: LieAlgebra, cert: ContactCertificate):
    if cert.form.algebra is not g or cert.reeb.algebra is not g:
        raise PreconditionError("certificate refers to a different algebra")
    kernel = kirillov_kernel(g, cert.form)
    if kernel.dim != 1 or cert.kernel_dim != 1:
        raise PreconditionError("certificate kernel is not one-dimensional")
    if not kernel.contains(cert.reeb.coords):
        raise PreconditionError("Reeb vector is not in the Kirillov kernel")
    if cert.form(cert.reeb) != 1:
        raise PreconditionError("Reeb vector is not normalized")


def dual_functional(g: LieAlgebra, vector) -> OneForm:
    """Dual functional of `vector` in the deterministic completed basis:
    the vector first, then greedy completion from the standard basis."""
    chosen = [list(vector)]
    span = Subspace.from_vectors(chosen, g.dim)
    for i in range(g.dim):
        if span.dim == g.dim:
            break
        e = [Fraction(0)] * g.dim
        e[i] = Fraction(1)
        if not span.contains(e):
            chosen.append(e)
            span = Subspace.from_vectors(chosen, g.dim)
    p = Matrix(tuple(zip(*chosen)))  # columns are the basis vectors
    return OneForm(g, tuple(inverse(p).rows[0]))


def contactify(g: LieAlgebra, form: OneForm) -> ContactCertificate | None:
    """Perturb a regular form vanishing on its kernel line into a contact one.

    Preconditions: ker B_form = C.h is one-dimensional and form(h) = 0
    (otherwise ``is_contact_form`` already succeeds).  The perturbation is
    psi = form + eps * h^, with h^ the dual functional of h in the greedy
    completed basis, and eps running down the halving schedule 1, 1/2, ...
    for 20 steps.  The first psi that keeps the same kernel line and pairs
    nontrivially with h is certified.  Exhausting the schedule is
    overwhelming evidence of a precondition bug, so it is logged as an error
    before returning None.
    """
    kernel = kirillov_kernel(g, form)
    if kernel.dim != 1:
        raise PreconditionError("contactify needs a one-dimensional Kirillov kernel")
    h = Element(g, kernel.basis[0])
    if form(h) != 0:
        raise PreconditionError("form does not vanish on its kernel; use is_contact_form")
    hstar = dual_functional(g, h.coords)
    eps = Fraction(1)
    for _ in range(EPSILON_STEPS):
        psi = form + hstar.scale(eps)
        if kirillov_kernel(g, psi) == kernel and psi(h) != 0:
            cert = is_contact_form(g, psi)
            assert cert is not None
            return cert
        eps /= 2
    logger.error(
        "contactify exhausted the epsilon schedule on %s; kernel preservation "
        "failed for every step",
        g.label or "<unlabeled algebra>",
    )
    return None
