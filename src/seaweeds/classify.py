"""Batch enumeration and the empirical theorem-verification harness.

For every composition pair valid for the family, the classifier builds the
seaweed (with its construction checks), takes its index from the formula
(``meander.index_formula``, which states the index rule), and, exactly on
the index-one cases (which are automatically odd-dimensional), runs one
search, ``find_stable_form`` on the record seed XOR ``_CONTACT_SALT``.  No
other seaweed draws a form, and a certificate's form is always an integer
form within ``bound``, which ``verify`` checks.  A contact form is stable
(``contact``), so the search settles contact as well:

* a certificate without [ker, g] is of a contact form, which
  ``is_contact_form`` certifies from its form and kernel with no new
  elimination;
* a stable form that is not contact sends the record to
  ``find_contact_form`` on the same seed.  Its refutation proves that no
  stable form exists, so here it can never hold: the search finds a
  contact form or runs its full budget;
* no stable form, whether the budget ran out or the line refuted the
  search, means no contact form among those draws: contact NOT_FOUND.

Each searched record's contact certificate is thus the one
``find_contact_form`` would issue on its own.

In a GL or SL sweep, one search serves each transpose pair.  theta(X) =
-X^T is an automorphism of gl(N) that preserves sl(N) and maps the
seaweed of (a|b) onto that of (b|a) (``construct.transpose_map``).  An
automorphism restricted to a subalgebra is an isomorphism onto its image,
so a form phi on the one is contact or stable exactly when phi o theta is
on the other, and its certificates map with it.  So an index-one record
whose partner (b|a) was searched earlier in the sweep runs no search.  It
takes theta of that record's certificates (``_transposed``), and with
them its statuses and verdict.  theta is a signed permutation of both
bases, so a mapped form keeps integer coordinates within ``bound``.  Every
other index-one record is searched, among them (a|a) and every SP and SO
record.  ``verify`` re-checks a mapped certificate on its own seaweed like
any other.  Verdict policy:

* index != 1: both statuses SKIPPED, verdict CONSISTENT (the equivalence
  under test says nothing there).
* contact FOUND and stable FOUND: CONSISTENT.
* contact FOUND, stable NOT_FOUND: COUNTEREXAMPLE, the state the
  equivalence forbids.  It cannot arise here: contact is looked for only
  once a stable form is found.  ``verify`` keeps the branch, to refuse a
  report that claims it.
* contact NOT_FOUND, stable FOUND: UNRESOLVED.  Once a stable form is
  found the contact search cannot be refuted (above), so its NOT_FOUND
  is only the budget spent, and non-contactness is never claimed.
* both NOT_FOUND: CONSISTENT, neither property present.  On the six
  non-contact SO7 and SO8 seaweeds that is proved on a line after one draw
  (``contact``); otherwise it is evidence, the budget spent.
* a zero-attempt budget leaves the search inconclusive: UNRESOLVED.

The index-one cases are ``contact.search_verdict``, which ``seaweeds verify``
also uses to re-derive each record's verdict.  ``exit_status`` turns a
sweep into the CLI's exit code: 4 when any record is a COUNTEREXAMPLE,
else 3 under ``strict`` when any is UNRESOLVED, else 0.

No index trial is drawn.  Every record still carries the ``trials``
count ``classify`` is given and an empty ``trial_kernel_dims``, which
``verify`` requires, because the benchmark harness passes the one and
reads both.
Per-record determinism comes from derived seeds (seed XOR record ordinal),
so records are independent of evaluation order and identical CLI invocations
produce byte-identical reports.
"""

from __future__ import annotations

import io
import json
from typing import NamedTuple

from . import contact
from .construct import LIMITS, Composition, check_limit, composition_pairs, seaweed, seaweed_label, transpose_map
from .contact import (
    CONSISTENT,
    DEFAULT_ATTEMPTS,
    FOUND,
    NOT_FOUND,
    SKIPPED,
    ContactCertificate,
    StabilityCertificate,
    _require_budget,
    count_verdicts,
    find_contact_form,
    find_stable_form,
    is_stable_form,  # noqa: F401  (perfbench/spans.py traces calls of this name as contact.fallback; the sweep makes none)
    search_verdict,
)
from .lie import DEFAULT_BOUND, DEFAULT_TRIALS, parity
from .lie import index  # noqa: F401  (perfbench/spans.py traces calls of this name as lie.index; the sweep makes none)
from .linalg import span_int_rows
from .meander import index_formula
from .serialize import REPORT_SCHEMA, certificate_to_json

_CONTACT_SALT = 0xC047AC7


class ClassificationRecord(NamedTuple):
    family: str
    n: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    dim: int
    index: int
    parity: str
    contact: str
    stable: str
    verdict: str
    seed: int
    attempts: int
    bound: int
    trials: int
    trial_kernel_dims: tuple[int, ...]
    certificates: dict | None = None


def _one_search(g, search_seed: int, attempts: int, bound: int) -> tuple:
    """The (contact, stable) certificates of one index-one record, each
    None for NOT_FOUND, from its one stability search (module docstring)."""
    s_cert = find_stable_form(g, search_seed, attempts, bound)
    if s_cert is None:
        return None, None
    if s_cert.bracket_span_rows is None:
        # through the module: perfbench/spans.py traces its attribute
        return contact.is_contact_form(g, s_cert.form_row, s_cert.kernel_rows), s_cert
    return find_contact_form(g, search_seed, attempts, bound), s_cert


def _transposed(cert, theta):
    """A certificate of seaweed (a|b) carried to (b|a) by ``theta``, the
    ``construct.transpose_map`` from the one onto the other: every row maps
    by v'[j] = s v[i] for theta[i] = (j, s), and the kernel and bracket
    span rows are made canonical again.  None stays None."""
    if cert is None:
        return None

    def image(row):
        out = [0] * len(theta)
        for (j, sign), v in zip(theta, row):
            out[j] = sign * v
        return tuple(out)

    def span(rows):
        return tuple(map(tuple, span_int_rows([image(row) for row in rows])))

    if isinstance(cert, ContactCertificate):
        return ContactCertificate(image(cert.form_row), image(cert.reeb_row), cert.reeb_den)
    rows = cert.bracket_span_rows
    return StabilityCertificate(image(cert.form_row), span(cert.kernel_rows), None if rows is None else span(rows))


def classify(
    family: str,
    n: int,
    *,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
    trials: int = DEFAULT_TRIALS,
    embed_certificates: bool = False,
) -> list[ClassificationRecord]:
    """Classify every seaweed of the family at rank n; deterministic per seed.
    ``trials`` is only written into the records (see the module docstring).
    Raises ValueError, before any work, on a family not named as in
    ``LIMITS``, a negative attempt budget, or a bound or trial count below
    1, and LimitError on a rank over the limits
    (``construct.check_limit``)."""
    if family not in LIMITS:
        raise ValueError(f"unknown family {family!r}")
    _require_budget(attempts, bound)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_limit(family, n)
    records = []
    searched = {}  # (top, bottom) -> (contact, stable) certificates, awaiting (bottom|top)
    for ordinal, (a, b) in enumerate(composition_pairs(family, n)):
        g = seaweed(family, n, a, b)
        record_seed = seed ^ ordinal
        idx = index_formula(family, n, a, b)
        certs = {}
        if idx == 1:
            partner = searched.pop((b.parts, a.parts), None)
            if partner is not None:
                theta = transpose_map(family, n, b, a)
                c_cert, s_cert = (_transposed(cert, theta) for cert in partner)
            else:
                c_cert, s_cert = _one_search(g, record_seed ^ _CONTACT_SALT, attempts, bound)
                if family in ("GL", "SL"):  # where -X^T maps (a|b) onto (b|a)
                    searched[(a.parts, b.parts)] = c_cert, s_cert
            contact_status = FOUND if c_cert is not None else NOT_FOUND
            stable_status = FOUND if s_cert is not None else NOT_FOUND
            verdict = search_verdict(contact_status, stable_status, attempts)
            if embed_certificates:
                if c_cert is not None:
                    certs["contact"] = certificate_to_json(c_cert)
                if s_cert is not None:
                    certs["stability"] = certificate_to_json(s_cert)
        else:
            contact_status = stable_status = SKIPPED
            verdict = CONSISTENT
        records.append(
            ClassificationRecord(
                family=family,
                n=n,
                top=a.parts,
                bottom=b.parts,
                dim=g.dim,
                index=idx,
                parity=parity(g.dim),
                contact=contact_status,
                stable=stable_status,
                verdict=verdict,
                seed=record_seed,
                attempts=attempts,
                bound=bound,
                trials=trials,
                trial_kernel_dims=(),
                certificates=certs or None,
            )
        )
    return records


# The report's record fields, in ClassificationRecord order; a record's
# certificates follow them only when it has any.
_FIELDS = tuple(name for name in ClassificationRecord._fields if name != "certificates")
_CSV_FIELDS = [name for name in _FIELDS if name != "trial_kernel_dims"]


def _record_to_json(r: ClassificationRecord) -> dict:
    doc = {name: getattr(r, name) for name in _FIELDS}
    if r.certificates is not None:
        doc["certificates"] = r.certificates
    return doc


def report(records, fmt: str = "json") -> str:
    """Render records as a stable-field-order document, ``fmt`` being
    json, csv or text, in lower case.  JSON is compact, one line with no
    spaces, which the C encoder writes.  Its header names the sweep:
    family, n, seed and budgets, all read off record 0, whose seed is the
    sweep's (seed XOR ordinal 0); ``verify`` holds every record to it."""
    summary = count_verdicts([r.verdict for r in records])
    if fmt == "json":
        doc = {"schema": REPORT_SCHEMA}
        if records:
            first = records[0]
            budgets = {key: getattr(first, key) for key in ("attempts", "bound", "trials")}
            doc.update(family=first.family, n=first.n, seed=first.seed, budgets=budgets)
        doc["records"] = [_record_to_json(r) for r in records]
        doc["summary"] = summary
        return json.dumps(doc, separators=(",", ":")) + "\n"
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for r in records:
            row = [getattr(r, name) for name in _CSV_FIELDS]
            writer.writerow([str(Composition(v)) if isinstance(v, tuple) else v for v in row])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in records:
            lines.append(
                f"{seaweed_label(r.family, r.n, Composition(r.top), Composition(r.bottom))} dim={r.dim} "
                f"index={r.index} contact={r.contact} stable={r.stable} verdict={r.verdict}"
            )
        lines.append("")
        lines.append(
            "summary: {records} records, {consistent} consistent, "
            "{counterexample} counterexample, {unresolved} unresolved".format(**summary)
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def exit_status(records, strict: bool = False) -> int:
    """0 success, 4 any counterexample, 3 unresolved-only failures under
    strict, in that order.  2 is left to bad input, which the CLI refuses
    before a sweep."""
    summary = count_verdicts([r.verdict for r in records])
    if summary["counterexample"]:
        return 4
    if strict and summary["unresolved"]:
        return 3
    return 0
