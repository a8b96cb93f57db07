"""JSON serialization and independent certificate re-verification.

All rationals are "num/den" strings in lowest terms with positive
denominator; basis indices are 0-based.  Document shapes:

LieAlgebra::

    {"label": str, "dim": int,
     "structure": [[i, j, r, "num/den"], ...],      # i < j, sorted
     "realization": [[["num/den", ...], ...], ...] or null}

Certificates::

    {"kind": "contact", "form": [...], "reeb": [...],
     "kernel_dim": 1, "pairing": "1/1"}
    {"kind": "stability", "form": [...],
     "kernel": {"ambient_dim": n, "basis": [[...], ...]},
     "bracket_span": {...}, "intersection_dim": 0}

Certificate document (input of ``seaweeds verify``)::

    {"schema": 1, "algebra": {...}, "certificates": [cert, ...]}

Classification reports (``seaweeds classify --embed``) carry the same
certificate objects per record; verification rebuilds each record's seaweed
from its family and compositions.  ``verify_*`` recomputes every invariant
from scratch, so tampered data fails either here (False) or already at
algebra reconstruction (StructureError).  The checks run on integer rows,
as the searches do; the serialized kernel and span are compared with the
recomputed ones as canonical rational bases, so a basis that spans the right
space but is not in canonical form is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import Composition, seaweed
from .contact import (
    CONSISTENT,
    FOUND,
    NOT_FOUND,
    SKIPPED,
    ContactCertificate,
    StabilityCertificate,
    bracket_span_int_rows,
    search_verdict,
)
from .lie import (
    Element,
    LieAlgebra,
    OneForm,
    form_int_coords,
    kernel_dim,
    kirillov_kernel_int_rows,
)
from .linalg import Matrix, Subspace, _int_rows, meets_trivially_int_rows
from .meander import meander, meander_index


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _coords_to_json(coords):
    return [frac_to_str(x) for x in coords]


def _coords_from_json(data):
    return tuple(frac_from_str(x) for x in data)


def algebra_to_json(g: LieAlgebra) -> dict:
    doc = {
        "label": g.label,
        "dim": g.dim,
        "structure": [[i, j, r, frac_to_str(c)] for i, j, r, c in g.structure_items()],
    }
    if g.realization is not None:
        doc["realization"] = [
            [_coords_to_json(row) for row in m.rows] for m in g.realization
        ]
    else:
        doc["realization"] = None
    return doc


def algebra_from_json(doc: dict) -> LieAlgebra:
    structure = {}
    for i, j, r, c in doc["structure"]:
        structure.setdefault((i, j), {})[r] = frac_from_str(c)
    realization = None
    if doc.get("realization") is not None:
        realization = tuple(
            Matrix(tuple(_coords_from_json(row) for row in m)) for m in doc["realization"]
        )
    return LieAlgebra(doc["dim"], structure, realization=realization, label=doc.get("label", ""))


def _subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "basis": [_coords_to_json(v) for v in s.basis],
    }


def _subspace_from_json(doc: dict) -> Subspace:
    return Subspace(doc["ambient_dim"], tuple(_coords_from_json(v) for v in doc["basis"]))


def certificate_to_json(cert) -> dict:
    if isinstance(cert, ContactCertificate):
        return {
            "kind": "contact",
            "form": _coords_to_json(cert.form.coords),
            "reeb": _coords_to_json(cert.reeb.coords),
            "kernel_dim": cert.kernel_dim,
            "pairing": frac_to_str(cert.pairing),
        }
    if isinstance(cert, StabilityCertificate):
        return {
            "kind": "stability",
            "form": _coords_to_json(cert.form.coords),
            "kernel": _subspace_to_json(cert.kernel),
            "bracket_span": _subspace_to_json(cert.bracket_span),
            "intersection_dim": cert.intersection_dim,
        }
    raise TypeError(f"not a certificate: {cert!r}")


def verify_certificate(g: LieAlgebra, doc: dict) -> bool:
    """Re-check every invariant of a serialized certificate from scratch."""
    kind = doc.get("kind")
    if kind == "contact":
        form = OneForm(g, _coords_from_json(doc["form"]))
        reeb = Element(g, _coords_from_json(doc["reeb"]))
        if doc["kernel_dim"] != 1 or frac_from_str(doc["pairing"]) != 1:
            return False
        # B_form . reeb = 0, both scaled to integers by positive factors
        (r,) = _int_rows([reeb.coords])
        for row in g.kirillov_int_rows(form_int_coords(form)):
            if sum(a * b for a, b in zip(row, r)):
                return False
        if form(reeb) != 1:
            return False
        return kernel_dim(g, form) == 1
    if kind == "stability":
        form = OneForm(g, _coords_from_json(doc["form"]))
        kernel = _subspace_from_json(doc["kernel"])
        span = _subspace_from_json(doc["bracket_span"])
        if doc["intersection_dim"] != 0:
            return False
        kernel_rows = kirillov_kernel_int_rows(g, form)
        if Subspace.from_int_rows(g.dim, kernel_rows) != kernel:
            return False
        span_rows = bracket_span_int_rows(g, kernel_rows)
        if Subspace.from_int_rows(g.dim, span_rows) != span:
            return False
        return meets_trivially_int_rows(kernel_rows, span_rows)
    raise ValueError(f"unknown certificate kind {kind!r}")


def _rebuild_record_algebra(record: dict) -> LieAlgebra:
    try:
        family = record["family"]
        n = record["n"]
        top = Composition(tuple(record["top"]))
        bottom = Composition(tuple(record["bottom"]))
    except (KeyError, TypeError) as exc:
        raise ValueError("unknown algebra reference in record") from exc
    return seaweed(family, n, top, bottom)


# Record status field -> the certificate a FOUND status must embed.
_EVIDENCE = {"contact": "contact", "stable": "stability"}


def _bookkeeping_holds(record: dict) -> bool:
    """The parity is that of the dimension, and the index is the least trial
    kernel dimension, of the dimension's parity (a Kirillov matrix has even
    rank).  There are ``trials`` trial dimensions, or twice as many exactly
    when the first ``trials`` disagree: the classifier then re-runs the
    trials once with a larger bound."""
    dim, dims, trials = record["dim"], record["trial_kernel_dims"], record["trials"]
    if record["parity"] != ("odd" if dim % 2 else "even") or (record["index"] - dim) % 2:
        return False
    expected = 2 * trials if len(set(dims[:trials])) > 1 else trials
    return trials >= 1 and len(dims) == expected and record["index"] == min(dims)


def _index_claims_hold(record: dict) -> bool:
    """The bookkeeping fields agree (``_bookkeeping_holds``), the budget is
    not negative, the statuses and verdict follow from the index (the
    searches run on index-one seaweeds only, a budget below one finds
    nothing, and the verdict is ``search_verdict`` of the statuses and
    budget), and a GL/SL index equals the meander census."""
    contact, stable = record["contact"], record["stable"]
    if not _bookkeeping_holds(record) or record["attempts"] < 0:
        return False
    if record["index"] != 1:
        if {contact, stable} != {SKIPPED} or record["verdict"] != CONSISTENT:
            return False
    elif not {contact, stable} <= {FOUND, NOT_FOUND}:
        return False
    elif record["attempts"] < 1 and FOUND in (contact, stable):
        return False  # a zero budget finds no form
    elif record["verdict"] != search_verdict(contact, stable, record["attempts"]):
        return False
    if record["family"] in ("GL", "SL"):
        graph = meander(Composition(tuple(record["top"])), Composition(tuple(record["bottom"])))
        return record["index"] == meander_index(graph, record["family"])
    return True


def verify_document(doc: dict) -> bool:
    """Verify every certificate in a certificate document or a report.

    Certificate documents carry an embedded algebra; classification reports
    name each record's seaweed by family and compositions, which is rebuilt.
    A document is invalid when it gives nothing to check (no records, no
    certificates), when a record's statuses or verdict disagree with its
    index, an index-one verdict is not the one its statuses and budget
    give, or a GL/SL index disagrees with the meander census, when a
    record's parity, index and trial kernel dimensions disagree with its
    dimension, its trial count or each other, when a record's attempt
    budget is negative, when a record claims FOUND without embedding the
    certificate, or when a record carries certificates but its index is not
    one (the searches run only on index-one seaweeds).  A document of the
    wrong shape raises ValueError.
    """
    try:
        return _verify_document(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed document: {type(exc).__name__}: {exc}") from exc


def _verify_document(doc: dict) -> bool:
    if "records" in doc:
        if not doc["records"]:
            return False
        ok = True
        for record in doc["records"]:
            if not _index_claims_hold(record):
                return False
            certs = record.get("certificates") or {}
            for status, kind in _EVIDENCE.items():
                if record.get(status) == FOUND and kind not in certs:
                    return False
            if not certs:
                continue
            if record["index"] != 1:
                return False
            g = _rebuild_record_algebra(record)
            for cert in certs.values():
                ok = verify_certificate(g, cert) and ok
        return ok
    if "algebra" not in doc:
        raise ValueError("unknown algebra reference: document embeds no algebra")
    g = algebra_from_json(doc["algebra"])
    certs = doc.get("certificates")
    if certs is None:
        certs = [doc["certificate"]] if "certificate" in doc else []
    if not certs:
        return False
    return all(verify_certificate(g, cert) for cert in certs)
