"""Batch enumeration and the empirical theorem-verification harness.

For every composition pair valid for the family, the classifier builds the
seaweed, computes its randomized index, and, exactly on the index-one cases
(which are automatically odd-dimensional), runs the contact and stability
searches.  The two searches test one stream of forms, seeded by the record
seed XOR ``_CONTACT_SALT``: each drawn form is eliminated once and its
kernel goes to both tests (``contact.form_draws``).  The stream starts at
the index witness when the first index pass reached index one, so that
form costs no elimination at all; a witness found only by the re-run has
coordinates beyond ``bound`` and is not drawn.  A certificate's form is
therefore always an integer form within ``bound``, which ``verify``
checks, and when both searches succeed they usually succeed on the same
draw, so their certificates carry one form.  Verdict policy:

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

``exit_status`` turns a sweep into the CLI's exit code: 4 when any record is
a COUNTEREXAMPLE, else 3 under ``strict`` when any is UNRESOLVED, else 0.

The index-one cases are ``contact.search_verdict``, which ``seaweeds verify``
also uses to re-derive each record's verdict.

Each record has an index floor, a lower bound on its index that one trial
can reach (``meander.index_floor``): the meander index for GL/SL, which is
exact, and dim mod 2 for SP/SO.  A pass of index trials draws at most
``trials`` forms and stops at the first whose kernel dimension equals the
floor, which proves the index.  A pass that misses the floor and whose
trials disagree (``lie.needs_rerun``) triggers one re-run with the
coordinate bound multiplied by 100, a pass of the same shape; the reported
index is the minimum kernel dimension seen, and ``trial_kernel_dims`` lists
every trial of both passes.
Per-record determinism comes from derived seeds (seed XOR record ordinal),
so records are independent of evaluation order and identical CLI invocations
produce byte-identical reports.
"""

from __future__ import annotations

import csv
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
    count_verdicts,
    find_contact_form,
    find_stable_form,
    form_draws,
    is_stable_form,  # noqa: F401  (perfbench/spans.py traces calls of this name as contact.fallback; the sweep makes none)
    search_verdict,
)
from .lie import DEFAULT_BOUND, DEFAULT_TRIALS, index, needs_rerun, parity
from .meander import index_floor
from .serialize import REPORT_SCHEMA, certificate_to_json

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


def _stable_index(g, seed, trials, bound, floor):
    """The index, the trial kernel dimensions of both passes, and the first
    pass's report, whose witness is within ``bound``."""
    report = index(g, seed, trials, bound, floor=floor)
    dims = report.trial_kernel_dims
    value = report.index
    if needs_rerun(dims, floor):
        retry = index(g, seed, trials, bound * 100, floor=floor)
        value = min(value, retry.index)
        dims = dims + retry.trial_kernel_dims
    return value, dims, report


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
    Raises ValueError, before any work, on an unknown family, a negative
    attempt budget, or a bound or trial count below 1, and LimitError on a
    rank over the limits."""
    family = family.upper()
    limit = LIMITS.get(family)
    if limit is None:
        raise ValueError(f"unknown family {family!r}")
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, got {attempts}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
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
        floor = index_floor(family, a, b, g.dim)
        idx, trial_dims, first_pass = _stable_index(g, record_seed, trials, bound, floor)
        certs = {}
        if idx == 1:
            search_seed = record_seed ^ _CONTACT_SALT
            witness = first_pass if first_pass.index == 1 else None
            contact_draws, stable_draws = tee(form_draws(g, search_seed, bound, witness))
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
                trial_kernel_dims=trial_dims,
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


def _parts(composition: tuple[int, ...]) -> str:
    """A composition in the CLI's text form, "0" for the empty one."""
    return ",".join(map(str, composition)) or "0"


def report(records, fmt: str = "json", meta: dict | None = None) -> str:
    """Render records as a stable-field-order document (json, csv, or text)."""
    fmt = fmt.lower()
    summary = count_verdicts([r.verdict for r in records])
    if fmt == "json":
        doc = {"schema": REPORT_SCHEMA}
        if meta:
            doc.update(meta)
        doc["records"] = [_record_to_json(r) for r in records]
        doc["summary"] = summary
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
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
    strict.  2 is left to bad input, which the CLI refuses before a sweep."""
    summary = count_verdicts([r.verdict for r in records])
    if summary["counterexample"]:
        return 4
    if strict and summary["unresolved"]:
        return 3
    return 0
