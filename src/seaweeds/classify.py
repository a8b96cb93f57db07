"""Batch enumeration and the empirical theorem-verification harness.

For every composition pair valid for the family, the classifier builds the
seaweed (with its construction checks), takes its index from the formula
(``meander.index_formula``, which states the index rule), and, exactly on
the index-one cases (which are automatically odd-dimensional), runs the
contact and stability searches.  No other seaweed draws a form.  The two
searches test one stream of forms, ``contact.form_draws`` seeded by the
record seed XOR ``_CONTACT_SALT``: each drawn form is eliminated once and
its kernel goes to both tests.  A certificate's form is therefore always
an integer form within ``bound``, which ``verify`` checks.  A contact form
is stable (``contact``), so when both searches succeed the stability
search stops no later than the contact search, in practice on the same
draw: their certificates carry one form, and the stability certificate,
being of a contact form, holds the kernel line alone, with no [ker, g].
Verdict policy:

* index != 1: both searches SKIPPED, verdict CONSISTENT (the equivalence
  under test says nothing there).
* contact FOUND and stable FOUND: CONSISTENT.
* contact FOUND, stable NOT_FOUND: COUNTEREXAMPLE, the state the
  equivalence forbids.  It cannot arise here: a contact form is stable
  (``contact``), and the stability search tests the same draws in the same
  order.  ``verify`` keeps the branch, to refuse a report that claims it.
* contact NOT_FOUND, stable FOUND: UNRESOLVED.  Non-contactness is never
  decided by search failure alone.
* both NOT_FOUND at full budget: CONSISTENT, evidence for the contrapositive
  (neither property present).
* zero-attempt budgets leave searches inconclusive: UNRESOLVED.

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
from itertools import tee
from typing import NamedTuple

from .construct import composition_pairs, seaweed
from .contact import (
    CONSISTENT,
    DEFAULT_ATTEMPTS,
    FOUND,
    NOT_FOUND,
    SKIPPED,
    _require_budget,
    count_verdicts,
    find_contact_form,
    find_stable_form,
    form_draws,
    is_stable_form,  # noqa: F401  (perfbench/spans.py traces calls of this name as contact.fallback; the sweep makes none)
    search_verdict,
)
from .lie import DEFAULT_BOUND, DEFAULT_TRIALS, parity
from .lie import index  # noqa: F401  (perfbench/spans.py traces calls of this name as lie.index; the sweep makes none)
from .meander import index_formula
from .serialize import REPORT_SCHEMA, _parts, certificate_to_json

LIMITS = {"GL": 7, "SL": 7, "SP": 4, "SO": 8}

_CONTACT_SALT = 0xC047AC7


class LimitError(ValueError):
    """Requested rank exceeds the configured sweep limits."""


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


def classify(
    family: str,
    n: int,
    *,
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    bound: int = DEFAULT_BOUND,
    trials: int = DEFAULT_TRIALS,
    force: bool = False,
    embed_certificates: bool = False,
) -> list[ClassificationRecord]:
    """Classify every seaweed of the family at rank n; deterministic per seed.
    ``trials`` is only written into the records (see the module docstring).
    Raises ValueError, before any work, on an unknown family, a negative
    attempt budget, or a bound or trial count below 1, and LimitError on a
    rank over the limits."""
    family = family.upper()
    limit = LIMITS.get(family)
    if limit is None:
        raise ValueError(f"unknown family {family!r}")
    _require_budget(attempts, bound)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n > limit and not force:
        raise LimitError(
            f"{family} sweep limited to n <= {limit} by default; pass force=True "
            "(CLI: --force) to override"
        )
    records = []
    for ordinal, (a, b) in enumerate(composition_pairs(family, n)):
        g = seaweed(family, n, a, b)
        record_seed = seed ^ ordinal
        idx = index_formula(family, n, a, b)
        certs = {}
        if idx == 1:
            search_seed = record_seed ^ _CONTACT_SALT
            contact_draws, stable_draws = tee(form_draws(g, search_seed, bound))
            c_cert = find_contact_form(g, search_seed, attempts, bound, draws=contact_draws)
            s_cert = find_stable_form(g, search_seed, attempts, bound, draws=stable_draws)
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


def report(records, fmt: str = "json", meta: dict | None = None) -> str:
    """Render records as a stable-field-order document (json, csv, or text).
    JSON is compact, one line with no spaces, which the C encoder writes."""
    fmt = fmt.lower()
    summary = count_verdicts([r.verdict for r in records])
    if fmt == "json":
        doc = {"schema": REPORT_SCHEMA}
        if meta:
            doc.update(meta)
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
            writer.writerow([_parts(v) if isinstance(v, tuple) else v for v in row])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in records:
            lines.append(
                f"{r.family}{r.n}[{_parts(r.top)}|{_parts(r.bottom)}] dim={r.dim} "
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
