"""Contact and stability analysis of one-forms on Lie algebras.

A one-form phi on an odd-dimensional algebra is contact when the top wedge
power phi ^ (d phi)^k is a volume form, that is, when the Kirillov kernel
ker B_phi is a line C.x with phi(x) != 0 (``is_contact_form``); the Reeb
vector x / phi(x) is then the canonical kernel generator with
phi(reeb) = 1.  Every form here is given by its integer coordinates on the
dual basis, a sequence of dim ints (``_form`` refuses anything else): a
rational form and its multiple over a common denominator have the same
kernel and the same verdicts.

Stability uses the kernel-bracket criterion: phi is stable iff
[ker B_phi, g] meets ker B_phi only in 0.  Certificates carry everything
needed to re-check the defining equations from scratch.

A contact form is stable: if ker B_phi = <k> and phi(k) != 0, then
phi([k, x]) = B_phi(k, x) = 0 for every x, so [k, g] lies in ker phi,
which misses k.  ``is_stable_form`` therefore certifies a contact form by
its kernel alone: the certificate holds the one kernel row and no
[ker, g] (``bracket_span_rows`` is None), and the check in
``serialize.verify_certificate`` needs only ker B_phi and phi(k).  A
stability search thus succeeds no later than a contact search on the same
draws, and only stable => contact can fail; the sweep searches for a
stable form alone and reads contact off its certificate (``classify``).
By the same lemma, a proof that no form is stable proves that none is
contact, so both searches end on one refutation.

Both tests, and the re-checks in ``serialize.verify_certificate``, run on
integer rows.  The Kirillov matrix is skew, so its kernel comes from the
skew elimination of ``linalg`` as canonical primitive integer rows
(``linalg.skew_kernel_int_rows`` of ``LieAlgebra.kirillov_int_rows``).
[ker, g] is not skew.  For a form that is not contact, the kernel-bracket
test (``kernel_bracket_span``) decides with one general forward
elimination of the brackets of the kernel rows (``linalg.echelon_int_rows``)
and one general integer rank for the meet, with the echelon rows first so
that only the kernel rows are reduced; only an issued certificate pays for
the canonical rows of [ker, g], which the echelon rows give by upward
elimination alone.  The certificate check in ``serialize`` runs the same
test on the kernel it takes, for a certificate that carries [ker, g], and
compares the rows of [ker, g] it issues.

A search that runs out proves nothing by itself; a few exact ranks on a
line do (``_no_stable_form``).  When a search's first draw phi0 is refused
and its kernel is one row k0, ``_line`` takes psi = e_r* for a coordinate
r with k0[r] != 0 whose B_{e_r} has the least skew rank 2d.  On the line
phi_t = phi0 + t psi, B_{phi_t} = B_phi0 + t B_{e_r}, so every Pfaffian of
a principal minor of B_{phi_t} has degree at most d in t.  The orbit of
phi0 under the adjoint group G has tangent space {xi : xi(k0) = 0}, which
psi misses, so the G-orbits through the line near phi0 fill a
neighbourhood of phi0 in g*, and a G-stable condition that holds there
holds on an open set.  Let s = rank ad_k0.  The signed Pfaffians of the
principal minors of size dim - 1 give a kernel vector k(t) of degree at
most d, which spans ker B_{phi_t} where that is a line and is 0
elsewhere, so the (s+1)-minors of [ad_k(t) | k(t)] have degree at most
(s+1)d.  They vanish when k0 lies in [k0, g] at t = 0, and, at
t = 1, ..., (s+1)d, the kernel is not a line or rank [ad_k | k] <= s.
Near t = 0 rank ad_k(t) >= s, so k(t) lies in [k(t), g] and phi_t is not
stable.  Stable forms are G-stable and Zariski-open (Tauvel-Yu), so none
exists, and so no contact form either.

A refuted search takes (s+1)d + 1 skew eliminations, its first draw's
among them.  On the six non-contact SO7 and SO8 seaweeds d = 1, which
gives 9 on SO7 and 11 on SO8, against 49 and 81 at the generic degree
(dim - 1) / 2.  The contact search pays this too: a bordered-Pfaffian
refutation of contact alone would take d + 2 (3 on SO7), but it would be
a second proof, and this one serves both searches.  A refutation that
holds ends the search with None, the answer its full budget gives, since
every later draw would be refused; one that fails decides nothing, and the
search goes on over the same draws.

Both tests take an optional kernel, so a caller that has it pays no second
elimination.  There is one search loop (``_search``): it tests the first
``attempts`` draws of ``form_draws``, each drawn form with its integer
coordinates and its kernel, until its test issues a certificate or the
line through its first draw refutes stability.  ``find_contact_form`` and
``find_stable_form`` are that loop with the contact or the stability test.
Certificates hold integer rows only: the form's coordinates, the Reeb
vector over phi(k), and canonical primitive rows of ker B_phi and, for a
stable form that is not contact, of [ker, g].
``serialize.certificate_to_json`` writes them as the rationals a
computation over Q gives, without a Fraction: canonical rows are unique,
and the Reeb vector is k / phi(k) for any generator k of the kernel line.

``search_verdict`` is the one statement of what the contact and stability
statuses of an index-one algebra say about the equivalence "contact iff
stable"; the classifier assigns it and report verification re-derives it.

The module certifies that contact and stable forms exist; it builds no
normal-form basis for them.

All operations accept any ``LieAlgebra``, not just seaweeds: any span of
integer matrices closed under the commutator, each 1 at a pivot where
the others are 0 (``lie``).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import NamedTuple

from .linalg import (
    as_int,
    echelon_int_rows,
    meets_trivially_int_rows,
    rank_int_rows,
    skew_kernel_int_rows,
    span_int_rows,
)
from .lie import DEFAULT_BOUND, LieAlgebra

DEFAULT_ATTEMPTS = 64

FOUND, NOT_FOUND, SKIPPED = "FOUND", "NOT_FOUND", "SKIPPED"
CONSISTENT, COUNTEREXAMPLE, UNRESOLVED = "CONSISTENT", "COUNTEREXAMPLE", "UNRESOLVED"


class PreconditionError(ValueError):
    """An operation was applied outside its stated domain."""


class ContactCertificate(NamedTuple):
    """Machine-checkable evidence that a form is contact: the form's
    integer coordinates ``form_row`` and its Reeb vector
    ``reeb_row / reeb_den`` (``reeb_den`` nonzero, of either sign).

    Invariants: B_form . reeb = 0, form(reeb) = 1, dim ker B_form = 1.
    """

    form_row: tuple[int, ...]
    reeb_row: tuple[int, ...]
    reeb_den: int


class StabilityCertificate(NamedTuple):
    """Evidence for the kernel-bracket stability criterion: the form's
    integer coordinates ``form_row``, and ker B_form and [ker, g], held as
    their canonical primitive integer RREF rows (``linalg.rref_int_rows``),
    [ker, g] only when the form is not contact.

    Invariants: kernel = ker B_form, and either bracket_span = [kernel, g]
    and the two meet only in 0, or ``bracket_span_rows`` is None, the
    kernel is one row k and form(k) != 0 (a contact form, so [k, g] lies in
    ker form, which misses k).
    """

    form_row: tuple[int, ...]
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


def _form(g: LieAlgebra, form):
    """``form``, the integer coordinates of a one-form on g.  A coordinate
    that is not an int (a bool, a float, a Fraction) raises TypeError
    (``linalg.as_int``): the fraction-free eliminations floor it.  A length
    other than g.dim raises ValueError."""
    if len(form) != g.dim:
        raise ValueError(f"form has {len(form)} coordinates, not {g.dim}")
    for c in form:
        as_int(c, "form coordinate")
    return form


def _kernel(g: LieAlgebra, ints, kernel) -> list:
    return skew_kernel_int_rows(g.kirillov_int_rows(ints)) if kernel is None else kernel


def pairing(ints, k) -> int:
    """form(k) for a form given as integers and an integer row k."""
    return sum(c * v for c, v in zip(ints, k) if v)


def is_contact_form(g: LieAlgebra, form, kernel=None) -> ContactCertificate | None:
    """Certificate iff ker B_form is a line on which the form does not vanish.

    ``form`` is integer coordinates, as the search draws them.  ``kernel``
    is ker B_form as ``linalg.skew_kernel_int_rows`` gives it, when the
    caller has it (a search passes each draw's, the sweep a stability
    certificate's); otherwise it is taken here.  The test runs on integer
    rows."""
    _require_odd(g)
    ints = _form(g, form)
    kernel = _kernel(g, ints, kernel)
    if len(kernel) != 1:
        return None
    (k,) = kernel
    value = pairing(ints, k)
    if not value:
        return None
    return ContactCertificate(tuple(ints), tuple(k), value)  # reeb = k / form(k)


def _bracket_rows(g: LieAlgebra, kernel) -> list:
    # [k, x_j] for the integer rows k spanning K and all j
    return [row for k in kernel for row in g.ad_int_rows(k)]


def kernel_bracket_span(g: LieAlgebra, kernel):
    """The canonical primitive rows of [K, g] when they meet K only in 0,
    else None; K is given by its canonical rows ``kernel``.

    One forward elimination of the brackets [k, x_j] decides: its echelon
    rows go first in the meet, so only the kernel rows are reduced against
    them.  The canonical rows of [K, g] are built from the echelon rows
    only when the meet is trivial."""
    echelon = echelon_int_rows(_bracket_rows(g, kernel))
    return span_int_rows(echelon) if meets_trivially_int_rows(echelon, kernel) else None


def is_stable_form(g: LieAlgebra, form, kernel=None) -> StabilityCertificate | None:
    """Certificate iff [ker B_form, g] intersects ker B_form trivially;
    ``form`` and ``kernel`` as for ``is_contact_form``.

    A contact form (a kernel line <k> with form(k) != 0) is stable by the
    lemma of the module docstring, and its certificate holds no [ker, g];
    any other form goes through ``kernel_bracket_span``."""
    ints = _form(g, form)
    kernel = _kernel(g, ints, kernel)
    if len(kernel) == 1 and pairing(ints, kernel[0]):
        span = None
    else:
        span = kernel_bracket_span(g, kernel)
        if span is None:
            return None
        span = tuple(map(tuple, span))
    return StabilityCertificate(tuple(ints), tuple(map(tuple, kernel)), span)


def _line(g: LieAlgebra, kernel):
    """(r, d) for the line phi0 + t e_r* of the refutation (module
    docstring) through a form with kernel rows ``kernel``: r a coordinate
    where the one kernel row is nonzero, and B_{e_r} of the least rank 2d
    among them (B_{e_r} is skew, so its rank is even).  None unless the
    kernel is one row."""
    if len(kernel) != 1:
        return None
    unit = [0] * g.dim
    ranks = []
    for r, v in enumerate(kernel[0]):
        if v:
            unit[r] = 1
            # B_{e_r} is sparse, and a general rank skips its zero rows sooner
            ranks.append((rank_int_rows(g.kirillov_int_rows(unit)), r))
            unit[r] = 0
    two_d, r = min(ranks)
    return r, two_d // 2


def _no_stable_form(g: LieAlgebra, ints, kernel, r: int, d: int) -> bool:
    """True when, with s = rank ad_k0 for the one kernel row k0 at t = 0,
    k0 lies in [k0, g] and every point t = 1, ..., (s+1)d of the line
    ``ints`` + t e_r* has a kernel that is not a line or a kernel line <k>
    with rank [ad_k | k] <= s, which proves that g has no stable form
    (module docstring)."""
    (k,) = kernel
    echelon = echelon_int_rows(g.ad_int_rows(k))
    s = len(echelon)
    if meets_trivially_int_rows(echelon, kernel):
        return False
    point = list(ints)
    for _ in range((s + 1) * d):
        point[r] += 1  # t = 1, ..., (s+1)d in turn
        at_t = _kernel(g, point, None)
        if len(at_t) == 1 and rank_int_rows(g.ad_int_rows(at_t[0]) + at_t) > s:
            return False
    return True


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


def form_draws(g: LieAlgebra, seed: int, bound: int):
    """The forms a search tests, each as (integer coordinates, ker B_phi as
    ``linalg.skew_kernel_int_rows`` rows): forms with coordinates drawn
    uniformly from [-bound, bound] by one rng stream per seed.  Every draw
    costs one skew elimination."""
    rng = random.Random(seed)
    while True:
        ints = [rng.randint(-bound, bound) for _ in range(g.dim)]
        yield ints, skew_kernel_int_rows(g.kirillov_int_rows(ints))


def _search(g: LieAlgebra, draws, attempts: int, test):
    """The search loop: the first certificate ``test`` issues for one of the
    first ``attempts`` draws, each tested with its own kernel; None when
    the budget runs out, or as soon as ``_no_stable_form`` proves, on the
    line through a refused first draw (``_line``), that no form is stable,
    hence that none passes ``test`` (a contact form is stable), and so
    that the budget would run out."""
    for i, (form, kernel) in enumerate(islice(draws, attempts)):
        cert = test(g, form, kernel)
        if cert is not None:
            return cert
        if not i and attempts > 1:
            line = _line(g, kernel)
            if line is not None and _no_stable_form(g, form, kernel, *line):
                return None
    return None


def find_contact_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
) -> ContactCertificate | None:
    """Randomized search for a contact form; None means budget exhausted,
    or that the line through the first draw proved that no form is
    stable (``_no_stable_form``), hence none contact, after which every
    draw of the budget would have been refused.  Where a stable form
    exists that refutation cannot hold, and a search that finds no
    contact form runs its full budget.

    Tests ``form_draws(g, seed, bound)``.  Exhaustion alone is not a proof
    of non-contactness, only one-sided evidence; the classifier corroborates
    it against the stability search.  A budget of 0 finds nothing; a
    negative one, or a bound below 1, raises ValueError.
    """
    _require_odd(g)
    _require_budget(attempts, bound)
    return _search(g, form_draws(g, seed, bound), attempts, is_contact_form)


def find_stable_form(
    g: LieAlgebra,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
) -> StabilityCertificate | None:
    """Randomized search for a stable form; None means budget exhausted,
    or that the line through the first draw proved that no form is stable
    (``_no_stable_form``).  Draws as ``find_contact_form``.  A budget of 0
    finds nothing; a negative one, or a bound below 1, raises ValueError."""
    _require_budget(attempts, bound)
    return _search(g, form_draws(g, seed, bound), attempts, is_stable_form)
