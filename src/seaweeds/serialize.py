"""JSON serialization and independent certificate re-verification.

All rationals are "num/den" strings in lowest terms with positive
denominator, in algebras and certificates alike: ``_ratio_str`` writes
them and ``_ratio`` reads them (and "num" or an int); basis indices are
0-based.  Document shapes:

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
    {"kind": "stability", "form": [...],
     "kernel": {"ambient_dim": n, "basis": [[...]]},
     "intersection_dim": 0}                          # a contact form

Certificate document (output of ``seaweeds contact`` and ``seaweeds
stable`` in json, input of ``seaweeds verify``)::

    {"schema": CERTIFICATE_SCHEMA, "algebra": {...}, "certificates": [cert, ...]}

Classification reports (``seaweeds classify --embed``) carry the same
certificate objects per record; verification rebuilds each record's seaweed
from its family and compositions.  Reports carry ``"schema":
REPORT_SCHEMA``; schema 3 (certificate schema 2) is the first whose
stability certificate of a contact form omits ``bracket_span``, and schema
4 the first whose index is ``meander.index_formula`` (the index rule),
with no index trial drawn: ``trial_kernel_dims`` is always empty.
``verify`` refuses a report of any other schema, as it refuses a
certificate document whose schema is not ``CERTIFICATE_SCHEMA``.
``verify_*`` recomputes every invariant from scratch, so tampered data
fails either here (False) or already at algebra reconstruction
(StructureError).

Certificates are written and checked on integer rows, as the searches
run, and no Fraction is built on the way.  ``certificate_to_json`` writes
each "num/den" from a certificate's integer rows, and the constant
``kernel_dim`` 1 and ``intersection_dim`` 0; it serves reports and
certificate documents alike.  Each coordinate list read back is parsed
straight into one integer row and the lcm of its reduced denominators.
Either kind of certificate parses its form and takes ker B_phi once, as
canonical primitive integer rows, unless they are given; B_phi is built
only where that kernel is taken.  A contact certificate checks that the
kernel is a line, that reeb lies on it, which is B_phi . reeb = 0, and
phi(reeb) = 1, as integer identities.  A stability certificate compares
the kernel with its serialized basis.  Without ``bracket_span`` it then
needs only that kernel: one row k with phi(k) != 0 makes the form contact,
hence stable (see ``contact``).  With ``bracket_span`` it runs the
kernel-bracket test (``contact.kernel_bracket_span``) on the kernel and
compares the rows of [ker, g] it issues with the serialized span.  A
serialized basis row matches a canonical row only when it clears to it
and its leading entry is 1, so a basis that spans the right space but is
not in canonical rational form is refused.  A report record's certificate
forms are parsed once, and when its two certificates carry one form, as
the sweep's shared search issues them, ker B_phi is taken once and serves
both checks.  A record's certificates are exactly those its FOUND
statuses name (``_evidence``), each of the kind of its key, so a report
written without ``--embed`` fails at its first FOUND record, which
``unembedded_found`` names; and every certificate form in a report must be
one its record's search could draw: integer coordinates within its bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .construct import AmbientAlgebra, composition_pairs, seaweed, seaweed_dim
from .contact import (
    CONSISTENT,
    FOUND,
    NOT_FOUND,
    SKIPPED,
    ContactCertificate,
    StabilityCertificate,
    count_verdicts,
    kernel_bracket_span,
    pairing,
    search_verdict,
)
from .lie import LieAlgebra, parity
from .linalg import Matrix, skew_kernel_int_rows
from .meander import index_formula

REPORT_SCHEMA = 4
CERTIFICATE_SCHEMA = 2


def _ratio_str(num: int, den: int) -> str:
    """num / den as a JSON rational: lowest terms, the sign on the
    numerator, as a Fraction prints it, but without building one."""
    if den != 1:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // g, den // g
    return f"{num}/{den}"


def ratios_to_json(row, den: int = 1) -> list:
    """The coordinates row[i] / den of an integer row as JSON rationals."""
    if den == 1:
        return [f"{v}/1" for v in row]
    return [_ratio_str(v, den) for v in row]


def _ratio(s) -> tuple[int, int]:
    """A JSON rational ("num/den", "num" or an int) as (numerator,
    denominator) in lowest terms, sign on the numerator, as Fraction
    reduces it but without building one."""
    if isinstance(s, int):
        return s, 1
    if "/" not in s:
        return int(s), 1
    num, den = s.split("/")
    num, den = int(num), int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    if den != 1:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // g, den // g
    return num, den


def algebra_to_json(g: LieAlgebra) -> dict:
    doc = {
        "label": g.label,
        "dim": g.dim,
        "structure": [[i, j, r, _ratio_str(c.numerator, c.denominator)] for i, j, r, c in g.structure_items()],
    }
    if g.realization is not None:
        doc["realization"] = [
            [[_ratio_str(x.numerator, x.denominator) for x in row] for row in m.rows] for m in g.realization
        ]
    else:
        doc["realization"] = None
    return doc


def algebra_from_json(doc: dict) -> LieAlgebra:
    structure = {}
    for i, j, r, c in doc["structure"]:
        structure.setdefault((i, j), {})[r] = Fraction(*_ratio(c))
    realization = None
    if doc.get("realization") is not None:
        realization = tuple(
            Matrix(tuple(tuple(Fraction(*_ratio(x)) for x in row) for row in m)) for m in doc["realization"]
        )
    return LieAlgebra(doc["dim"], structure, realization=realization, label=doc.get("label", ""))


def _basis_to_json(dim: int, rows) -> dict:
    # a canonical primitive row k stands for the rational RREF row k / pivot
    return {
        "ambient_dim": dim,
        "basis": [ratios_to_json(k, next(filter(None, k))) for k in rows],
    }


def certificate_to_json(cert) -> dict:
    """A certificate as JSON, written straight from its integer rows."""
    if isinstance(cert, ContactCertificate):
        return {
            "kind": "contact",
            "form": ratios_to_json(cert.form_row, cert.form_den),
            "reeb": ratios_to_json(cert.reeb_row, cert.reeb_den),
            "kernel_dim": 1,
            "pairing": _ratio_str(pairing(cert.form_row, cert.reeb_row), cert.form_den * cert.reeb_den),
        }
    if isinstance(cert, StabilityCertificate):
        dim = len(cert.form_row)
        doc = {
            "kind": "stability",
            "form": ratios_to_json(cert.form_row, cert.form_den),
            "kernel": _basis_to_json(dim, cert.kernel_rows),
        }
        if cert.bracket_span_rows is not None:
            doc["bracket_span"] = _basis_to_json(dim, cert.bracket_span_rows)
        doc["intersection_dim"] = 0
        return doc
    raise TypeError(f"not a certificate: {cert!r}")


def _int_row(data) -> tuple[list, int]:
    """A coordinate list as (row, den): row[i] / den is coordinate i, and
    den is the lcm of the reduced denominators, so row is primitive over
    them and cleared by the least positive factor."""
    ratios = [_ratio(x) for x in data]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _coords_row(g: LieAlgebra, data) -> tuple[list, int]:
    row, den = _int_row(data)
    if len(row) != g.dim:
        raise ValueError("coordinate length does not match algebra dimension")
    return row, den


def _basis_rows(doc: dict) -> tuple:
    return doc["ambient_dim"], [_int_row(v) for v in doc["basis"]]


def _is_canonical(basis, dim: int, rows) -> bool:
    """True iff a parsed basis (``_basis_rows``) is the canonical rational
    basis whose primitive integer rows are ``rows``.  A rational RREF row
    k / p, k primitive with pivot p, clears to k by the lcm p of its
    denominators; a row that clears to k with another lcm is a multiple of
    k / p (twice it when p is even), so the lcm must also be the pivot,
    which makes the row's leading entry 1."""
    ambient, parsed = basis
    return ambient == dim and len(parsed) == len(rows) and all(
        tuple(row) == tuple(k) and den == next(filter(None, k)) for (row, den), k in zip(parsed, rows)
    )


def verify_certificate(g: LieAlgebra, doc: dict, kernel=None, form=None) -> bool:
    """Re-check every invariant of a serialized certificate from scratch, on
    integer rows parsed from the JSON strings (see the module docstring).
    ``kernel`` is ker B_phi of the certificate's form as
    ``skew_kernel_int_rows`` rows, when the caller has taken it for another
    certificate of the same form, and ``form`` is the certificate's form as
    ``_coords_row`` parses it, when the caller has parsed it; otherwise each
    is taken here."""
    kind = doc.get("kind")
    if kind not in ("contact", "stability"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    form, form_den = _coords_row(g, doc["form"]) if form is None else form
    if kernel is None:
        kernel = skew_kernel_int_rows(g.kirillov_int_rows(form))
    if kind == "contact":
        reeb, reeb_den = _coords_row(g, doc["reeb"])
        if doc["kernel_dim"] != 1 or _ratio(doc["pairing"]) != (1, 1) or len(kernel) != 1:
            return False
        # B_form . reeb = 0: reeb lies on the kernel line, k[p] reeb = reeb[p] k
        k = kernel[0]
        p = next(t for t, x in enumerate(k) if x)
        if any(k[p] * y != reeb[p] * x for x, y in zip(k, reeb)):
            return False
        return pairing(form, reeb) == form_den * reeb_den
    kernel_basis = _basis_rows(doc["kernel"])
    span_basis = _basis_rows(doc["bracket_span"]) if "bracket_span" in doc else None
    if doc["intersection_dim"] != 0 or not _is_canonical(kernel_basis, g.dim, kernel):
        return False
    if span_basis is None:
        # a contact form, whose [k, g] lies in ker phi, which misses k
        return len(kernel) == 1 and pairing(form, kernel[0]) != 0
    span = kernel_bracket_span(g, kernel)
    return span is not None and _is_canonical(span_basis, g.dim, span)


# Record status field -> the certificate a FOUND status embeds.
_EVIDENCE = {"contact": "contact", "stable": "stability"}


def _evidence(record: dict) -> set:
    """The certificate kinds a record's FOUND statuses need."""
    return {kind for status, kind in _EVIDENCE.items() if record[status] == FOUND}


def _parts(composition) -> str:
    """A composition in the CLI's text form, "0" for the empty one."""
    return ",".join(map(str, composition)) or "0"


def unembedded_found(doc: dict) -> tuple | None:
    """(ordinal, FAMILYn[top|bottom]) of the first FOUND record of a report
    whose records carry no certificate, as ``classify`` writes it without
    ``embed_certificates``; None for any other document, malformed too."""
    try:
        records = doc.get("records") or ()
        if not any(r.get("certificates") for r in records):
            for ordinal, r in enumerate(records):
                if _evidence(r):
                    return ordinal, f"{r['family']}{r['n']}[{_parts(r['top'])}|{_parts(r['bottom'])}]"
    except (AttributeError, KeyError, TypeError):
        pass
    return None


def _index_claims_hold(record: dict, formula: int) -> bool:
    """The index is ``formula``, the record's ``meander.index_formula``,
    the parity is that of the dimension, no index trial is listed, the
    trial count, attempt budget and bound are ones ``classify`` accepts,
    and the statuses and verdict follow from the index (the searches run
    on index-one seaweeds only, a budget below one finds nothing, and the
    verdict is ``search_verdict`` of the statuses and budget)."""
    contact, stable = record["contact"], record["stable"]
    if record["index"] != formula or record["parity"] != parity(record["dim"]):
        return False
    if record["trial_kernel_dims"] != [] or record["trials"] < 1:
        return False
    if record["attempts"] < 0 or record["bound"] < 1:
        return False
    if record["index"] != 1:
        return {contact, stable} == {SKIPPED} and record["verdict"] == CONSISTENT
    if not {contact, stable} <= {FOUND, NOT_FOUND}:
        return False
    if record["attempts"] < 1 and FOUND in (contact, stable):
        return False  # a zero budget finds no form
    return record["verdict"] == search_verdict(contact, stable, record["attempts"])


def _budgets(record: dict) -> dict:
    return {key: record[key] for key in ("attempts", "bound", "trials")}


def _sweep_holds(doc: dict) -> list | None:
    """The ``seaweed`` arguments (family, n, top, bottom) of each record if
    the records are one whole sweep, in order, else None.  They share one
    family, by its upper-case name, one n and one (attempts, bound, trials)
    budget (the report's, where it names them), their (top, bottom) are
    ``composition_pairs(family, n)``, and each record's seed is the sweep
    seed XOR its ordinal, the report's seed where it names one.  The record
    count is held against the closed form 4^k of that enumeration first, so
    a report naming a huge rank is refused without enumerating it."""
    records = doc["records"]
    family, n, seed = records[0]["family"], records[0]["n"], records[0]["seed"]
    sweep = (family, n, seed, _budgets(records[0]))
    if tuple(doc.get(key, named) for key, named in zip(("family", "n", "seed", "budgets"), sweep)) != sweep:
        return None
    amb = AmbientAlgebra(family, n)  # an unknown family or rank raises ValueError
    k = amb.max_flag - 1 if amb.family in ("GL", "SL") else amb.max_flag
    if amb.family != family or not 0 <= k < len(records).bit_length() or len(records) != 4**k:
        return None
    named = []
    for ordinal, (record, (top, bottom)) in enumerate(zip(records, composition_pairs(family, n))):
        if (record["family"], record["n"], record["seed"] ^ ordinal, _budgets(record)) != sweep:
            return None
        if (tuple(record["top"]), tuple(record["bottom"])) != (top.parts, bottom.parts):
            return None
        named.append((family, n, top, bottom))
    return named


def verify_document(doc: dict) -> bool:
    """Verify every certificate in a certificate document or a report.

    Certificate documents carry an embedded algebra; classification reports
    name each record's seaweed by family and compositions, which is rebuilt.
    A document is invalid when it gives nothing to check (no records, no
    certificates), when a record's index is not its
    ``meander.index_formula``, its parity not that of its dimension, its
    ``trial_kernel_dims`` not empty, its trial count below 1, its attempt
    budget negative or its bound below 1, when its statuses or verdict
    disagree with its index, or an index-one verdict is not the one its
    statuses and budget give (``_index_claims_hold``), when a record's certificate keys are not
    exactly the kinds its FOUND statuses name or a certificate's kind is not
    its key (so a record whose index is not one, whose searches are
    SKIPPED, carries none), when a record's dimension is not that of the
    seaweed it names (the rebuilt seaweed's where certificates are
    embedded, else the count of ambient basis matrices the flags keep), when a certificate's form is not one
    the record's search could draw (a coordinate that is not an integer or
    exceeds the record's bound in absolute value), when a report's summary
    counts disagree with its records' verdicts, or when its records are not
    one whole sweep in order, with one budget (``_sweep_holds``).  A
    document of the wrong shape, a report whose schema is not
    ``REPORT_SCHEMA``, a certificate document whose schema is not
    ``CERTIFICATE_SCHEMA``, or a report naming an unknown family or rank,
    raises ValueError.
    """
    try:
        return _verify_document(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed document: {type(exc).__name__}: {exc}") from exc


def _drawn_within(form: tuple, bound: int) -> bool:
    """True iff a parsed form (``_int_row``) is one a search at ``bound``
    can draw: integer coordinates, none above ``bound`` in absolute value."""
    row, den = form
    return den == 1 and all(-bound <= c <= bound for c in row)


def _verify_document(doc: dict) -> bool:
    if "records" in doc:
        if not doc["records"]:
            return False
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"report schema {doc.get('schema')!r} is not {REPORT_SCHEMA}: classify the sweep again"
            )
        named = _sweep_holds(doc)
        if named is None:
            return False
        ok = True
        for record, args in zip(doc["records"], named):
            if not _index_claims_hold(record, index_formula(*args)):
                return False
            # the certificates are exactly the kinds the FOUND statuses name
            certs = record.get("certificates") or {}
            found = _evidence(record)
            if certs.keys() != found or any(cert["kind"] != kind for kind, cert in certs.items()):
                return False
            if not certs:
                if record["dim"] != seaweed_dim(*args):
                    return False
                continue
            g = seaweed(*args)
            if record["dim"] != g.dim:
                return False
            forms = [_coords_row(g, cert["form"]) for cert in certs.values()]
            if not all(_drawn_within(form, record["bound"]) for form in forms):
                return False
            kernel = None
            if len(forms) == 2 and forms[0] == forms[1]:
                kernel = skew_kernel_int_rows(g.kirillov_int_rows(forms[0][0]))
            for cert, form in zip(certs.values(), forms):
                ok = verify_certificate(g, cert, kernel, form) and ok
        return doc["summary"] == count_verdicts(r["verdict"] for r in doc["records"]) and ok
    if "algebra" not in doc:
        raise ValueError("unknown algebra reference: document embeds no algebra")
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise ValueError(f"certificate schema {doc.get('schema')!r} is not {CERTIFICATE_SCHEMA}")
    g = algebra_from_json(doc["algebra"])
    certs = doc.get("certificates")
    if not certs:
        return False
    return all(verify_certificate(g, cert) for cert in certs)
