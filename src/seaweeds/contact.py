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

A contact form is stable: if ker B_phi = <k> and phi(k) != 0, then
phi([k, x]) = B_phi(k, x) = 0 for every x, so [k, g] lies in ker phi,
which misses k.  ``is_stable_form`` therefore certifies a contact form by
its kernel alone: the certificate holds the one kernel row and no
[ker, g] (``bracket_span_rows`` is None), and the check in
``serialize.verify_certificate`` needs only ker B_phi and phi(k).  A
stability search on the draws of a contact search thus succeeds no later
than it, and only stable => contact can fail.

All three tests, and the re-checks in ``serialize.verify_certificate``,
run on integer rows.  The Kirillov matrix and the bordered matrix are skew,
so they go through the skew elimination of ``linalg``, whose 2x2 pivots
divide exactly because each entry it holds is a Pfaffian of a principal
minor: the kernel comes as canonical primitive integer rows
(``linalg.skew_kernel_int_rows`` of ``LieAlgebra.kirillov_int_rows``) and
the bordered test is one ``linalg.skew_rank_int_rows``.  [ker, g] is not
skew.  For a form that is not contact, the kernel-bracket test
(``kernel_bracket_span``) decides with one general forward elimination of
the brackets of the kernel rows (``linalg.echelon_int_rows``) and one
general integer rank for the meet, with the echelon rows first so that
only the kernel rows are reduced; most attempts of a search that runs out
fail there, and only an issued certificate pays for the canonical rows of
[ker, g], which the echelon rows give by upward elimination alone.  A
stability search learns from each such refusal which brackets [k, x_j]
held a vector of the kernel in their span: of the input rows whose
echelon spanned [ker, g] (``linalg.echelon_int_rows`` names them), those
one relation with the kernel rows needs.  A later draw with as many kernel
rows is first tested on the same rows of its own brackets; they lie in
its [ker, g], so if its kernel meets their span the draw is refused, and
only otherwise does the full test run.  On SO7 1,2|0, [k, g] has rank 7
of 13 brackets, k lies in the span of 4 of them, and the same 4 refuse
every draw after the first.  The shortcut only refuses, so every answer
and every certificate is the full test's.  The certificate check in
``serialize`` runs the full test on the kernel it takes, for a certificate
that carries [ker, g], and compares the rows of [ker, g] it issues.

Both tests take an optional kernel, so one elimination serves them both.
There is one search loop (``_search``): it tests the first ``attempts``
draws of a stream (``form_draws``), each drawn form with its integer
coordinates and its kernel, until its test issues a certificate.
``find_contact_form`` and ``find_stable_form`` are that loop with the
contact or the stability test.  The sweep gives both searches one stream,
so every draw is eliminated once and its kernel reaches both tests; the
stream starts at the index witness, whose kernel comes from the steps the
index already took.  Certificates hold integer rows only: the form over
one denominator, the Reeb vector over phi(k), and canonical primitive rows
of ker B_phi and, for a stable form that is not contact, of [ker, g].
``serialize.certificate_to_json`` writes them as the rationals a
computation over Q gives, without a Fraction: canonical rows are unique,
and the Reeb vector is k / phi(k) for any generator k of the kernel line.

``search_verdict`` is the one statement of what the outcomes of the two
searches on an index-one algebra say about the equivalence "contact iff
stable"; the classifier assigns it and report verification re-derives it.

The module certifies that contact and stable forms exist; it builds no
normal-form basis for them.  ``is_semisimple_element`` and
``reductive_type_witness`` test whether a kernel generator is semisimple:
its minimal polynomial, found on integer rows, must be squarefree, which
is one integer rank (``linalg.is_squarefree``); no sweep calls them yet.

All operations accept arbitrary finite-dimensional algebras over Q, not just
seaweeds.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import NamedTuple

from .linalg import (
    clear_denominators,
    echelon_int_rows,
    is_squarefree,
    kernel_int_rows,
    meets_trivially_int_rows,
    minimal_polynomial,
    skew_kernel_int_rows,
    skew_kernel_of_steps,
    skew_rank_int_rows,
    span_int_rows,
)
from .lie import (
    DEFAULT_BOUND,
    Element,
    IndexReport,
    LieAlgebra,
    OneForm,
    center,
    kirillov_kernel,
)

DEFAULT_ATTEMPTS = 64

FOUND, NOT_FOUND, SKIPPED = "FOUND", "NOT_FOUND", "SKIPPED"
CONSISTENT, COUNTEREXAMPLE, UNRESOLVED = "CONSISTENT", "COUNTEREXAMPLE", "UNRESOLVED"


class PreconditionError(ValueError):
    """An operation was applied outside its stated domain."""


class ContactCertificate(NamedTuple):
    """Machine-checkable evidence that a form is contact: the form is
    ``form_row / form_den`` (``form_den`` positive) and its Reeb vector
    ``reeb_row / reeb_den`` (``reeb_den`` nonzero, of either sign).

    Invariants: B_form . reeb = 0, form(reeb) = 1, dim ker B_form = 1.
    """

    form_row: tuple[int, ...]
    form_den: int
    reeb_row: tuple[int, ...]
    reeb_den: int


class StabilityCertificate(NamedTuple):
    """Evidence for the kernel-bracket stability criterion: the form is
    ``form_row / form_den`` (``form_den`` positive), and ker B_form and
    [ker, g] are held as their canonical primitive integer RREF rows
    (``linalg.rref_int_rows``), [ker, g] only when the form is not contact.

    Invariants: kernel = ker B_form, and either bracket_span = [kernel, g]
    and the two meet only in 0, or ``bracket_span_rows`` is None, the
    kernel is one row k and form(k) != 0 (a contact form, so [k, g] lies in
    ker form, which misses k).
    """

    form_row: tuple[int, ...]
    form_den: int
    kernel_rows: tuple[tuple[int, ...], ...]
    bracket_span_rows: tuple[tuple[int, ...], ...] | None


def _require_odd(g: LieAlgebra):
    if g.dim % 2 == 0:
        raise PreconditionError("contact analysis needs an odd-dimensional algebra")


def _require_budget(attempts: int, bound: int):
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, got {attempts}")
    if bound < 1:
        raise ValueError("bound must be at least 1")


def _int_coords(form) -> tuple[list, int]:
    """A form given as a OneForm or as integers, as (row, den): row / den
    are its coordinates, den the least positive common denominator."""
    return clear_denominators(form.coords) if isinstance(form, OneForm) else (form, 1)


def _kernel(g: LieAlgebra, ints, kernel) -> list:
    return skew_kernel_int_rows(g.kirillov_int_rows(ints)) if kernel is None else kernel


def pairing(ints, k) -> int:
    """form(k) for a form given as integers and an integer row k."""
    return sum(c * v for c, v in zip(ints, k) if v)


def is_contact_form(g: LieAlgebra, form, kernel=None) -> ContactCertificate | None:
    """Certificate iff ker B_form is a line on which the form does not vanish.

    ``form`` is a OneForm or integer coordinates, as the search draws them.
    ``kernel`` is ker B_form as ``linalg.skew_kernel_int_rows`` gives it,
    when the caller has it (a search passes each draw's one kernel to both
    tests); otherwise it is taken here.  The test runs on integer rows."""
    _require_odd(g)
    ints, den = _int_coords(form)
    kernel = _kernel(g, ints, kernel)
    if len(kernel) != 1:
        return None
    (k,) = kernel
    value = pairing(ints, k)
    if not value:
        return None
    # form(k) = value / den, so reeb = k / form(k) = k den / value
    return ContactCertificate(tuple(ints), den, tuple(v * den for v in k), value)


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
    ints, _ = clear_denominators(form.coords)
    bordered = [[0, *ints]]
    for c, row in zip(ints, g.kirillov_int_rows(ints)):
        bordered.append([-c, *row])
    return skew_rank_int_rows(bordered) == g.dim + 1


def _bracket_rows(g: LieAlgebra, kernel) -> list:
    # [k, x_j] for the integer rows k spanning K and all j
    return [row for k in kernel for row in g.ad_int_rows(k)]


def kernel_bracket_span(g: LieAlgebra, kernel, learned=None):
    """The canonical primitive rows of [K, g] when they meet K only in 0,
    else None; K is given by its canonical rows ``kernel``.

    One forward elimination of the brackets [k, x_j] decides: its echelon
    rows go first in the meet, so only the kernel rows are reduced against
    them.  The canonical rows of [K, g] are built from the echelon rows
    only when the meet is trivial.

    ``learned``, when given, is a dict a search keeps across its draws: for
    a number of kernel rows, the indices into the bracket rows of the rows
    that held a vector of K in their span at the last refusal of that shape
    (``_meet_support``).  Those rows of this K's brackets are eliminated
    first, and if K meets their span it meets [K, g], so the answer is None
    without the full elimination.  A span met trivially decides nothing (it
    may be short of [K, g]): the full test runs, and a refusal there is
    learned."""
    rows = _bracket_rows(g, kernel)
    support = None if learned is None else learned.get(len(kernel))
    if support is not None and not meets_trivially_int_rows(echelon_int_rows([rows[i] for i in support]), kernel):
        return None
    echelon, indices = echelon_int_rows(rows, sources=True)
    if not meets_trivially_int_rows(echelon, kernel):
        if learned is not None:
            learned[len(kernel)] = _meet_support(rows, indices, kernel)
        return None
    return span_int_rows(echelon)


def _meet_support(rows, indices, kernel):
    """The rows among ``rows[indices]`` that one vector of the meet needs.

    ``rows[indices]`` are independent (``echelon_int_rows`` with
    ``sources`` names them) and their span meets that of the independent
    ``kernel`` rows, so the relations sum c_i rows[i] + sum d_j kernel[j]
    = 0 are not all 0, and in each nonzero one neither c nor d is 0: the
    rows with c_i != 0 span the nonzero vector -sum d_j kernel[j] of K."""
    basis = [rows[i] for i in indices]
    relation = kernel_int_rows([list(col) for col in zip(*basis, *kernel)], len(basis) + len(kernel))[0]
    return [i for i, c in zip(indices, relation) if c]


def is_stable_form(g: LieAlgebra, form, kernel=None, *, learned=None) -> StabilityCertificate | None:
    """Certificate iff [ker B_form, g] intersects ker B_form trivially;
    ``form`` and ``kernel`` as for ``is_contact_form``.

    A contact form (a kernel line <k> with form(k) != 0) is stable by the
    lemma of the module docstring, and its certificate holds no [ker, g];
    any other form goes through ``kernel_bracket_span``, with the bracket
    rows a search has ``learned`` from its earlier refusals.  Those can
    only refuse a form whose [ker, g] meets ker, so the answer, and any
    certificate, is the same with or without them."""
    ints, den = _int_coords(form)
    kernel = _kernel(g, ints, kernel)
    if len(kernel) == 1 and pairing(ints, kernel[0]):
        span = None
    else:
        span = kernel_bracket_span(g, kernel, learned)
        if span is None:
            return None
        span = tuple(map(tuple, span))
    return StabilityCertificate(tuple(ints), den, tuple(map(tuple, kernel)), span)


def search_verdict(contact: str, stable: str, attempts: int) -> str:
    """Verdict on an index-one algebra from its two search statuses (FOUND or
    NOT_FOUND) and the per-search attempt budget."""
    if attempts < 1:
        return UNRESOLVED
    if contact == FOUND:
        return CONSISTENT if stable == FOUND else COUNTEREXAMPLE
    return UNRESOLVED if stable == FOUND else CONSISTENT


def count_verdicts(verdicts) -> dict:
    """A report's summary of its records' verdicts: how many records there
    are and how many have each verdict, in the order the report writes."""
    verdicts = list(verdicts)
    counts = {v.lower(): verdicts.count(v) for v in (CONSISTENT, COUNTEREXAMPLE, UNRESOLVED)}
    return {"records": len(verdicts), **counts}


def form_draws(g: LieAlgebra, seed: int, bound: int, first: IndexReport | None = None):
    """The forms a search tests, each as (integer coordinates, ker B_phi as
    ``linalg.skew_kernel_int_rows`` rows): forms with coordinates drawn
    uniformly from [-bound, bound] by one rng stream per seed, after the
    witness of ``first`` when an index report is given.  Every draw costs
    one skew elimination, and the witness none: its kernel comes from the
    steps the index already took (``linalg.skew_kernel_of_steps``)."""
    if first is not None:
        yield first.witness_coords, skew_kernel_of_steps(first.witness_steps, g.dim)
    rng = random.Random(seed)
    while True:
        ints = [rng.randint(-bound, bound) for _ in range(g.dim)]
        yield ints, skew_kernel_int_rows(g.kirillov_int_rows(ints))


def _search(g: LieAlgebra, draws, attempts: int, test):
    """The search loop: the first certificate ``test`` issues for one of the
    first ``attempts`` draws, each tested with its own kernel; None when
    the budget runs out."""
    for form, kernel in islice(draws, attempts):
        cert = test(g, form, kernel)
        if cert is not None:
            return cert
    return None


def find_contact_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
    *,
    draws=None,
) -> ContactCertificate | None:
    """Randomized search for a contact form; None means budget exhausted.

    Tests ``form_draws(g, seed, bound)``, or ``draws`` when given (the
    sweep gives the contact and stability searches one stream, so both
    tests of a draw share its kernel).  Exhaustion is not a proof of
    non-contactness, only one-sided evidence; the classifier corroborates
    it against the stability search.  A budget of 0 finds nothing; a
    negative one, or a bound below 1, raises ValueError.
    """
    _require_odd(g)
    _require_budget(attempts, bound)
    return _search(g, form_draws(g, seed, bound) if draws is None else draws, attempts, is_contact_form)


def find_stable_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
    *,
    draws=None,
) -> StabilityCertificate | None:
    """Randomized search for a stable form; None means budget exhausted.
    Draws as ``find_contact_form``.  Each draw is one ``is_stable_form``
    call, given the bracket rows the search has learned from the draws it
    refused (``kernel_bracket_span``), which refuse a draw sooner but never
    change an answer.  A budget of 0 finds nothing; a negative one, or a
    bound below 1, raises ValueError."""
    _require_budget(attempts, bound)
    learned = {}

    def test(g, form, kernel):
        return is_stable_form(g, form, kernel, learned=learned)

    return _search(g, form_draws(g, seed, bound) if draws is None else draws, attempts, test)


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
