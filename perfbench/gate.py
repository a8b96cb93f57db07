"""Per-record correctness gate for ``seaweeds classify --embed`` reports.

A record fails when its verdict is not CONSISTENT, when its index disagrees
with the exact check (the meander index of Dergachev-Kirillov for SL, the
parity ``index = dim (mod 2)`` for SP/SO), when a FOUND status has no
embedded certificate, or when an embedded certificate fails re-verification
through ``seaweeds.serialize.verify_certificate`` on a freshly rebuilt
seaweed.  The expected composition pairs are enumerated here, independently
of the classifier, so a report with missing or duplicate records fails too.
``verify_document``'s whole-document boolean is not used: it accepts empty
reports and records without certificates.
"""

from __future__ import annotations

from itertools import product

from seaweeds.construct import Composition, seaweed
from seaweeds.meander import meander, meander_index
from seaweeds.serialize import verify_certificate


def compositions(total: int) -> list[tuple[int, ...]]:
    """All ordered compositions of ``total`` (2^(total-1) of them)."""
    out = []
    for cuts in product((False, True), repeat=max(total - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def expected_pairs(family: str, n: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    if family == "SL":
        comps = compositions(n)
    else:
        half = n if family == "SP" else n // 2
        comps = [()] + [c for t in range(1, half + 1) for c in compositions(t)]
    return {(a, b) for a in comps for b in comps}


def _record_failure(family: str, n: int, rec: dict) -> str | None:
    if rec.get("verdict") != "CONSISTENT":
        return f"verdict {rec.get('verdict')}"
    top, bottom = tuple(rec["top"]), tuple(rec["bottom"])
    if family == "SL":
        exact = meander_index(meander(Composition(top), Composition(bottom)), "SL")
        if rec["index"] != exact:
            return f"index {rec['index']} != meander index {exact}"
    elif (rec["index"] - rec["dim"]) % 2:
        return f"index {rec['index']} and dim {rec['dim']} differ in parity"
    certs = rec.get("certificates") or {}
    for status, kind in (("contact", "contact"), ("stable", "stability")):
        if rec.get(status) == "FOUND" and kind not in certs:
            return f"{status} FOUND without a {kind} certificate"
    if certs:
        g = seaweed(family, n, Composition(top), Composition(bottom))
        for kind, cert in certs.items():
            if cert.get("kind") != kind or verify_certificate(g, cert) is not True:
                return f"{kind} certificate fails re-verification"
    return None


def check_report(doc: dict, family: str, n: int) -> tuple[int, list[str]]:
    """(records expected, one failure line per failed or missing record)."""
    expected = expected_pairs(family, n)
    failures = []
    seen = set()
    for ordinal, rec in enumerate(doc.get("records", [])):
        key = (tuple(rec.get("top", ())), tuple(rec.get("bottom", ())))
        label = f"record {ordinal} {key}"
        if key not in expected or key in seen or rec.get("family") != family or rec.get("n") != n:
            failures.append(f"{label}: unexpected or duplicate record")
            continue
        seen.add(key)
        try:
            reason = _record_failure(family, n, rec)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"malformed record ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(f"{label}: {reason}")
    for key in sorted(expected - seen):
        failures.append(f"missing record {key}")
    return len(expected), failures
