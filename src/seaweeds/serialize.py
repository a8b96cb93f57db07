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
algebra reconstruction (StructureError).
"""

from __future__ import annotations

from fractions import Fraction

from .construct import Composition, seaweed
from .contact import ContactCertificate, StabilityCertificate
from .lie import Element, LieAlgebra, OneForm, kirillov_matrix
from .linalg import Matrix, Subspace, intersect, nullspace


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
        b = kirillov_matrix(g, form)
        image = [
            sum((row[j] * reeb.coords[j] for j in range(g.dim)), Fraction(0))
            for row in b.rows
        ]
        if any(image):
            return False
        if form(reeb) != 1:
            return False
        return nullspace(b).dim == 1
    if kind == "stability":
        form = OneForm(g, _coords_from_json(doc["form"]))
        kernel = _subspace_from_json(doc["kernel"])
        span = _subspace_from_json(doc["bracket_span"])
        if doc["intersection_dim"] != 0:
            return False
        if nullspace(kirillov_matrix(g, form)) != kernel:
            return False
        vectors = []
        for k in kernel.basis:
            for j in range(g.dim):
                y = [Fraction(0)] * g.dim
                y[j] = Fraction(1)
                vectors.append(g.bracket_coords(list(k), y))
        if Subspace.from_vectors(vectors, g.dim) != span:
            return False
        return intersect(kernel, span).dim == 0
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


def verify_document(doc: dict) -> bool:
    """Verify every certificate in a certificate document or a report.

    Certificate documents carry an embedded algebra; classification reports
    name each record's seaweed by family and compositions, which is rebuilt.
    A document is invalid when it gives nothing to check (no records, no
    certificates), when a record claims FOUND without embedding the
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
            certs = record.get("certificates") or {}
            for status, kind in _EVIDENCE.items():
                if record.get(status) == "FOUND" and kind not in certs:
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
