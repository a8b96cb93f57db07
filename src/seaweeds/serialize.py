"""JSON serialization and independent certificate re-verification.

All rationals are "num/den" strings in lowest terms with positive
denominator: ``_ratio_str`` writes them and ``_int_row`` reads a list of
them (and "num" or an int), both reduced by ``_lowest``; basis indices
are 0-based.  No document holds an algebra.  Each names its seaweed by
family, rank and composition pair, as ``seaweed(family, n, top, bottom)``
takes them, and ``verify`` rebuilds it, so every certificate is checked
against the seaweed it claims.  Document shapes:

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

    {"schema": CERTIFICATE_SCHEMA, "family": "GL", "n": 3,
     "top": [2, 1], "bottom": [3], "certificates": [cert, ...]}

Classification report (output of ``seaweeds classify --format json``,
the header written by ``classify.report`` from the records)::

    {"schema": REPORT_SCHEMA, "family": "SO", "n": 7, "seed": 0,
     "budgets": {"attempts": 64, "bound": 1000000, "trials": 3},
     "records": [record, ...], "summary": {...}}

Each record names its seaweed by the same fields as a certificate
document, and ``--embed`` puts the same certificate objects in it.
Certificate schema 3 is the first that names its seaweed (schema 2
embedded a rational table, which was checked in place of its label).
Report schema 3 (certificate schema 2) is the first whose stability
certificate of a contact form omits ``bracket_span``, and schema 4 the
first whose index is ``meander.index_formula`` (the index rule), with no
index trial drawn: ``trial_kernel_dims`` is always empty.

``verify_document`` reads a document as malformed, and raises ValueError
(the CLI's exit 2), when it is of another schema (the error names the
command that writes a new one) or of the wrong shape: a missing field,
among them a report's header; an integer field (dimensions, indices,
seeds, budgets, counts, ranks, composition parts) that holds anything
but a JSON integer, a bool or a float included, since Python holds True
and 1.0 equal to 1 (``linalg.as_int``); a rational that is not a string
or an integer, does not parse or has a zero denominator, whose error
names the seaweed, the certificate kind and the field (``_int_row``); an
unknown family, a rank below the family's least or over
``construct.LIMITS``, or a certificate document's compositions that the
family does not admit.  One rule names the family and rank of both
kinds, a certificate document's and a report header's
(``_family_and_rank``), before anything is enumerated or built, since
the ambient build grows as about n^4.

It reads a well-formed document as invalid (False) when it gives nothing
to check (no records, no certificates), or when any claim fails:

* the header's budgets are not ones ``classify`` accepts (attempts >= 0,
  bound >= 1, trials >= 1), checked once;
* the records are not the whole sweep the header names, in order: each
  names its family, n and budgets, its seed is the header's XOR its
  ordinal, and its (top, bottom) is that ordinal's
  ``composition_pairs(family, n)`` (``_sweep_holds``);
* a record's index is not its ``meander.index_formula``, its parity not
  that of its dimension, or its ``trial_kernel_dims`` not empty;
* its statuses are not SKIPPED/CONSISTENT off index one, or on index one
  not FOUND or NOT_FOUND, FOUND under a zero budget, or with a verdict
  other than ``search_verdict`` of its statuses and budget
  (``_index_claims_hold``);
* its certificate keys are not exactly the kinds its FOUND statuses name
  (``_evidence``), or a certificate's kind is not its key; so a report
  written without ``--embed`` fails at its first FOUND record, which
  ``unembedded_found`` names;
* its dimension is not that of the seaweed it names (the rebuilt
  seaweed's where certificates are embedded, else ``seaweed_dim``);
* a certificate form is not one its record's search could draw (integer
  coordinates within its bound), or a form or Reeb vector is not of the
  seaweed's dimension (``verify_certificate`` raises ValueError on this);
* a certificate's invariants do not hold (below);
* the summary is not ``count_verdicts`` of the records' verdicts.

Certificates are written and checked on integer rows, as the searches run.
``certificate_to_json`` writes each "num/den" from a certificate's integer
rows, and the constant ``kernel_dim`` 1 and ``intersection_dim`` 0; it
serves reports and certificate documents alike.  Each coordinate list read
back is parsed in one pass into one integer row and the lcm of its reduced
denominators.  Either kind of certificate parses its form and takes
ker B_phi once, as canonical primitive integer rows, unless they are
given; B_phi is built only where that kernel is taken.  A contact
certificate checks that the kernel is a line, that reeb lies on it, which
is B_phi . reeb = 0, and phi(reeb) = 1, as integer identities.  A
stability certificate compares the kernel with its serialized basis.
Without ``bracket_span`` it then needs only that kernel: one row k with
phi(k) != 0 makes the form contact, hence stable (see ``contact``).  With
``bracket_span`` it runs the kernel-bracket test
(``contact.kernel_bracket_span``) on the kernel and compares the rows of
[ker, g] it issues with the serialized span.  A serialized basis row
matches a canonical row only when it clears to it and its leading entry is
1, so a basis that spans the right space but is not in canonical rational
form is refused.  When a report record's two certificates carry one form,
as the sweep's shared search issues them, ker B_phi is taken once and
serves both checks, and the form is parsed once if it is all strings (so
a bool or a float in either is still refused).
"""

from __future__ import annotations

from math import gcd, lcm

from .construct import Composition, check_limit, composition_pairs, matrix_size, seaweed, seaweed_dim, seaweed_label
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
from .linalg import as_int, skew_kernel_int_rows
from .meander import index_formula

REPORT_SCHEMA = 4
CERTIFICATE_SCHEMA = 3


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms with the sign on the numerator, as
    Fraction reduces it but without building one; den is not 0."""
    if den != 1:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // g, den // g
    return num, den


def _ratio_str(num: int, den: int) -> str:
    """num / den as a JSON rational, in ``_lowest`` terms, as a Fraction
    prints it."""
    return "%d/%d" % _lowest(num, den)


def ratios_to_json(row, den: int = 1) -> list:
    """The coordinates row[i] / den of an integer row as JSON rationals."""
    if den == 1:
        return [f"{v}/1" for v in row]
    return [_ratio_str(v, den) for v in row]


def _ratio(s, what: str = "coordinate") -> tuple[int, int]:
    """A JSON rational ("num/den", "num" or an int) as (numerator,
    denominator) in ``_lowest`` terms (``_int_row`` of one coordinate,
    ``what`` naming it).  A bool or a float is refused (TypeError)."""
    (num,), den = _int_row((s,), what)
    return num, den


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
            "form": ratios_to_json(cert.form_row),
            "reeb": ratios_to_json(cert.reeb_row, cert.reeb_den),
            "kernel_dim": 1,
            "pairing": _ratio_str(pairing(cert.form_row, cert.reeb_row), cert.reeb_den),
        }
    if isinstance(cert, StabilityCertificate):
        dim = len(cert.form_row)
        doc = {
            "kind": "stability",
            "form": ratios_to_json(cert.form_row),
            "kernel": _basis_to_json(dim, cert.kernel_rows),
        }
        if cert.bracket_span_rows is not None:
            doc["bracket_span"] = _basis_to_json(dim, cert.bracket_span_rows)
        doc["intersection_dim"] = 0
        return doc
    raise TypeError(f"not a certificate: {cert!r}")


def _int_row(data, what: str = "coordinate") -> tuple[list, int]:
    """A coordinate list of JSON rationals (see ``_ratio``) as (row, den):
    row[i] / den is coordinate i, and den is the lcm of the reduced
    denominators, so row is primitive over them and cleared by the least
    positive factor.  Each string is split once; a denominator "1" needs no
    gcd, and a list of integers no rescaling.  A string that is not a
    rational, or has a zero denominator, raises ValueError, and any other
    value TypeError, each naming the field ``what``."""
    nums, dens = [], []
    for s in data:
        if type(s) is str:
            num, slash, den = s.partition("/")
            try:
                num, den = int(num), int(den) if slash and den != "1" else 1
            except ValueError:
                raise ValueError(f"{what} {s!r} is not a rational") from None
            if den != 1:
                if den == 0:
                    raise ValueError(f"{what} {s!r} has a zero denominator")
                num, den = _lowest(num, den)
        elif type(s) is int:
            num, den = s, 1
        else:
            raise TypeError(f"{what} {s!r} is not a rational")
        nums.append(num)
        dens.append(den)
    den = lcm(*dens)
    if den == 1:
        return nums, 1
    return [n * (den // d) for n, d in zip(nums, dens)], den


class _WrongLength(ValueError):
    """A form or Reeb vector not of the named seaweed's dimension: a wrong
    claim, which ``verify_document`` reads as invalid, not as malformed."""


def _coords_row(g: LieAlgebra, data, what: str) -> tuple[list, int]:
    row, den = _int_row(data, what)
    if len(row) != g.dim:
        raise _WrongLength("coordinate length does not match algebra dimension")
    return row, den


def _basis_rows(doc: dict, what: str) -> tuple:
    return as_int(doc["ambient_dim"], "ambient_dim"), [_int_row(v, what) for v in doc["basis"]]


def _field(g: LieAlgebra, kind: str, field: str) -> str:
    """How an error names a certificate field: the seaweed, the
    certificate's kind and the field, e.g. "GL3[2,1|3] contact reeb"."""
    return f"{g.label} {kind} {field}"


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
    form, form_den = _coords_row(g, doc["form"], _field(g, kind, "form")) if form is None else form
    if kernel is None:
        kernel = skew_kernel_int_rows(g.kirillov_int_rows(form))
    if kind == "contact":
        reeb, reeb_den = _coords_row(g, doc["reeb"], _field(g, kind, "reeb"))
        pairs_to_one = _ratio(doc["pairing"], _field(g, kind, "pairing")) == (1, 1)
        if as_int(doc["kernel_dim"], "kernel_dim") != 1 or not pairs_to_one or len(kernel) != 1:
            return False
        # B_form . reeb = 0: reeb lies on the kernel line, k[p] reeb = reeb[p] k
        k = kernel[0]
        p = next(t for t, x in enumerate(k) if x)
        if any(k[p] * y != reeb[p] * x for x, y in zip(k, reeb)):
            return False
        return pairing(form, reeb) == form_den * reeb_den
    kernel_basis = _basis_rows(doc["kernel"], _field(g, kind, "kernel basis"))
    span_basis = _basis_rows(doc["bracket_span"], _field(g, kind, "bracket span")) if "bracket_span" in doc else None
    if as_int(doc["intersection_dim"], "intersection_dim") != 0 or not _is_canonical(kernel_basis, g.dim, kernel):
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


def unembedded_found(doc: dict) -> tuple | None:
    """(ordinal, label) of the first FOUND record of a report whose records
    carry no certificate, as ``classify`` writes it without
    ``embed_certificates``, the label as ``seaweed_label`` names the
    record's seaweed; None for any other document, malformed too."""
    try:
        records = doc.get("records") or ()
        if not any(r.get("certificates") for r in records):
            for ordinal, r in enumerate(records):
                if _evidence(r):
                    top, bottom = (Composition(tuple(r[key])) for key in ("top", "bottom"))
                    return ordinal, seaweed_label(r["family"], r["n"], top, bottom)
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    return None


def _index_claims_hold(record: dict, formula: int) -> bool:
    """The index is ``formula``, the record's ``meander.index_formula``,
    the parity is that of the dimension, no index trial is listed, and the
    statuses and verdict follow from the index (the searches run on
    index-one seaweeds only, a budget below one finds nothing, and the
    verdict is ``search_verdict`` of the statuses and budget)."""
    contact, stable = record["contact"], record["stable"]
    if record["index"] != formula or record["parity"] != parity(record["dim"]):
        return False
    if record["trial_kernel_dims"] != []:
        return False
    if record["index"] != 1:
        return {contact, stable} == {SKIPPED} and record["verdict"] == CONSISTENT
    if not {contact, stable} <= {FOUND, NOT_FOUND}:
        return False
    if record["attempts"] < 1 and FOUND in (contact, stable):
        return False  # a zero budget finds no form
    return record["verdict"] == search_verdict(contact, stable, record["attempts"])


def _require_report_ints(doc: dict) -> None:
    """Refuse (``linalg.as_int``) a report any of whose integer fields, its
    own or its records', holds anything but a JSON integer; checked before
    any claim is compared."""
    for field in ("schema", "n", "seed"):
        as_int(doc[field], field)
    for part in ("budgets", "summary"):
        for field, value in doc[part].items():
            as_int(value, f"{part}.{field}")
    for record in doc["records"]:
        for field in ("n", "seed", "dim", "index", "attempts", "bound", "trials"):
            as_int(record[field], field)
        for field in ("top", "bottom", "trial_kernel_dims"):
            for value in record[field]:
                as_int(value, field)


def _budgets(record: dict) -> dict:
    return {key: record[key] for key in ("attempts", "bound", "trials")}


def _sweep_holds(doc: dict) -> list | None:
    """The ``seaweed`` arguments (family, n, top, bottom) of each record if
    the header's budgets are ones ``classify`` accepts and the records are
    the whole sweep the header names, in order (module docstring), else
    None.  The header's family and rank are refused over the limits
    (``_family_and_rank``) before the sweep is enumerated."""
    family, n = _family_and_rank(doc)
    budgets, records = doc["budgets"], doc["records"]
    if budgets["attempts"] < 0 or budgets["bound"] < 1 or budgets["trials"] < 1:
        return None
    pairs = composition_pairs(family, n)
    if len(records) != len(pairs):
        return None
    sweep = (family, n, doc["seed"], budgets)
    named = []
    for ordinal, (record, (top, bottom)) in enumerate(zip(records, pairs)):
        if (record["family"], record["n"], record["seed"] ^ ordinal, _budgets(record)) != sweep:
            return None
        if (tuple(record["top"]), tuple(record["bottom"])) != (top.parts, bottom.parts):
            return None
        named.append((family, n, top, bottom))
    return named


def _family_and_rank(doc: dict) -> tuple[str, int]:
    """The family and rank a certificate document or a report header
    names, the rank checked as an integer (``as_int``) and held to the
    family's least (``matrix_size``, which refuses an unknown family) and
    to ``construct.LIMITS`` (``check_limit``): ValueError, before anything
    is enumerated or built."""
    family, n = doc["family"], as_int(doc["n"], "n")
    matrix_size(family, n)
    check_limit(family, n)
    return family, n


def verify_document(doc: dict) -> bool:
    """Verify every claim of a certificate document or a report: True when
    all hold, False when one fails, and ValueError on a malformed document
    (the rules are the module docstring's)."""
    try:
        return _verify_document(doc)
    except _WrongLength:
        return False
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
        _require_report_ints(doc)
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
            coords = [(cert["form"], _field(g, kind, "form")) for kind, cert in certs.items()]
            # one form parsed once, if only strings: True == 1 and 1.0 == 1
            once = len(coords) == 2 and coords[0][0] == coords[1][0] and all(type(x) is str for x in coords[0][0])
            forms = [_coords_row(g, *coords[0])] * 2 if once else [_coords_row(g, *c) for c in coords]
            if not all(_drawn_within(form, record["bound"]) for form in forms):
                return False
            kernel = None
            if len(forms) == 2 and forms[0] == forms[1]:
                kernel = skew_kernel_int_rows(g.kirillov_int_rows(forms[0][0]))
            for cert, form in zip(certs.values(), forms):
                ok = verify_certificate(g, cert, kernel, form) and ok
        return doc["summary"] == count_verdicts(r["verdict"] for r in doc["records"]) and ok
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise ValueError(
            f"certificate schema {doc.get('schema')!r} is not {CERTIFICATE_SCHEMA}: run contact or stable again"
        )
    as_int(doc["schema"], "schema")
    family, n = _family_and_rank(doc)
    top, bottom = (Composition(tuple(as_int(p, key) for p in doc[key])) for key in ("top", "bottom"))
    g = seaweed(family, n, top, bottom)
    certs = doc.get("certificates")
    if not certs:
        return False
    return all(verify_certificate(g, cert) for cert in certs)
