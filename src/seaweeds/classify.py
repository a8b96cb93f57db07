"""Batch enumeration and the empirical theorem-verification harness.

For every composition pair valid for the family, the classifier builds the
seaweed, computes its randomized index, and, exactly on the index-one cases
(which are automatically odd-dimensional), runs the contact and stability
searches.  Verdict policy:

* index != 1: both searches SKIPPED, verdict CONSISTENT (the equivalence
  under test says nothing there).
* contact FOUND and stable FOUND: CONSISTENT.
* contact FOUND, stable NOT_FOUND: the contact form itself is tested with
  the stability criterion first (it is the canonical forward-direction
  witness); if even that fails, COUNTEREXAMPLE, the state the equivalence
  forbids.
* contact NOT_FOUND, stable FOUND: UNRESOLVED.  Non-contactness is never
  decided by search failure alone.
* both NOT_FOUND at full budget: CONSISTENT, evidence for the contrapositive
  (neither property present).
* zero-attempt budgets leave searches inconclusive: UNRESOLVED.

``exit_status`` turns a sweep into the CLI's exit code: 4 when any record is
a COUNTEREXAMPLE, else 3 under ``strict`` when any is UNRESOLVED, else 0.

The index-one cases are ``contact.search_verdict``, which ``seaweeds verify``
also uses to re-derive each record's verdict.

Index trials that disagree trigger one re-run with the coordinate bound
multiplied by 100; the reported index is the minimum kernel dimension seen.
Per-record determinism comes from derived seeds (seed XOR record ordinal),
so records are independent of evaluation order and identical CLI invocations
produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .construct import Composition, enumerate_compositions, seaweed
from .contact import (
    CONSISTENT,
    FOUND,
    NOT_FOUND,
    SKIPPED,
    find_contact_form,
    find_stable_form,
    is_stable_form,
    search_verdict,
)
from .lie import DEFAULT_BOUND, DEFAULT_TRIALS, index
from .serialize import certificate_to_json

DEFAULT_ATTEMPTS = 64
LIMITS = {"GL": 7, "SL": 7, "SP": 4, "SO": 8}

_CONTACT_SALT = 0xC047AC7
_STABLE_SALT = 0x057AB1E

REPORT_SCHEMA = 1


class LimitError(ValueError):
    """Requested rank exceeds the configured sweep limits."""


@dataclass(frozen=True)
class ClassificationRecord:
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


def composition_pairs(family: str, n: int) -> list[tuple[Composition, Composition]]:
    """Deterministic enumeration of the composition pairs the family admits.

    GL/SL: all pairs of compositions of n (4^(n-1) pairs).  SP/SO: all pairs
    with totals at most floor(N/2), the isotropic-flag bound, including the
    empty composition (no constraint, parabolic = whole algebra); ordered by
    total, then mask order.
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


def _stable_index(g, seed, trials, bound):
    report = index(g, seed, trials, bound)
    dims = report.trial_kernel_dims
    value = report.index
    if len(set(dims)) > 1:
        retry = index(g, seed, trials, bound * 100)
        value = min(value, retry.index)
        dims = dims + retry.trial_kernel_dims
    return value, dims


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
    Raises ValueError, before any work, on an unknown family or a negative
    attempt budget, and LimitError on a rank over the limits."""
    family = family.upper()
    limit = LIMITS.get(family)
    if limit is None:
        raise ValueError(f"unknown family {family!r}")
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, got {attempts}")
    if n > limit and not force:
        raise LimitError(
            f"{family} sweep limited to n <= {limit} by default; pass force=True "
            "(CLI: --force) to override"
        )
    records = []
    for ordinal, (a, b) in enumerate(composition_pairs(family, n)):
        g = seaweed(family, n, a, b)
        record_seed = seed ^ ordinal
        idx, trial_dims = _stable_index(g, record_seed, trials, bound)
        parity = "odd" if g.dim % 2 else "even"
        certs = {}
        if idx == 1:
            c_cert = find_contact_form(g, record_seed ^ _CONTACT_SALT, attempts, bound)
            s_cert = find_stable_form(g, record_seed ^ _STABLE_SALT, attempts, bound)
            if c_cert is not None and s_cert is None:
                s_cert = is_stable_form(g, c_cert.form)
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
                parity=parity,
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


def summarize(records) -> dict:
    counts = {"records": len(records), "consistent": 0, "counterexample": 0, "unresolved": 0}
    for r in records:
        counts[r.verdict.lower()] += 1
    return counts


def _record_to_json(r: ClassificationRecord) -> dict:
    doc = {
        "family": r.family,
        "n": r.n,
        "top": list(r.top),
        "bottom": list(r.bottom),
        "dim": r.dim,
        "index": r.index,
        "parity": r.parity,
        "contact": r.contact,
        "stable": r.stable,
        "verdict": r.verdict,
        "seed": r.seed,
        "attempts": r.attempts,
        "bound": r.bound,
        "trials": r.trials,
        "trial_kernel_dims": list(r.trial_kernel_dims),
    }
    if r.certificates is not None:
        doc["certificates"] = r.certificates
    return doc


_CSV_FIELDS = [
    "family", "n", "top", "bottom", "dim", "index", "parity",
    "contact", "stable", "verdict", "seed", "attempts", "bound", "trials",
]


def report(records, fmt: str = "json", meta: dict | None = None) -> str:
    """Render records as a stable-field-order document (json, csv, or text)."""
    fmt = fmt.lower()
    summary = summarize(records)
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
            writer.writerow(
                [
                    r.family, r.n,
                    ",".join(map(str, r.top)) or "0",
                    ",".join(map(str, r.bottom)) or "0",
                    r.dim, r.index, r.parity, r.contact, r.stable, r.verdict,
                    r.seed, r.attempts, r.bound, r.trials,
                ]
            )
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in records:
            top = ",".join(map(str, r.top)) or "0"
            bottom = ",".join(map(str, r.bottom)) or "0"
            lines.append(
                f"{r.family}{r.n}[{top}|{bottom}] dim={r.dim} index={r.index} "
                f"contact={r.contact} stable={r.stable} verdict={r.verdict}"
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
    summary = summarize(records)
    if summary["counterexample"]:
        return 4
    if strict and summary["unresolved"]:
        return 3
    return 0
