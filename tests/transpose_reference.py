"""theta(X) = -X^T applied to certificates by linear algebra on matrices:
the tests' oracle for the transpose partners of a GL or SL sweep.

theta is an automorphism of gl(N) with theta^2 = 1 that maps the seaweed
of (a|b) onto that of (b|a).  ``coordinates`` solves for the coordinates
of each theta(x_i) in the other seaweed's basis by a rational elimination
of the realization matrices (``fraction_reference.rref``).  So this oracle
assumes neither that theta permutes the basis up to sign nor that the
package's maps are right.  A certificate of (a|b) for the form phi is
carried to one of (b|a) for phi o theta: vectors v go to theta(v), the form
to phi o theta, and each subspace to the span of its image, in canonical
rational form.
"""

from fractions import Fraction
from functools import lru_cache

import fraction_reference as ref

from seaweeds import seaweed
from seaweeds.construct import Composition


def coordinates(source, target):
    """The coordinate rows of theta(x_i) in ``target``'s basis, for each
    basis matrix x_i of ``source``."""
    size = len(source.realization[0])
    columns = [[v for row in m for v in row] for m in target.realization]
    images = [[-m[v][u] for u in range(size) for v in range(size)] for m in source.realization]
    system = ref.Matrix.from_rows(list(zip(*columns, *images)))
    reduced, pivots = ref.rref(system)
    dim = len(columns)
    assert pivots == tuple(range(dim)), "theta(x_i) is not in the span of the target basis"
    return [[reduced.rows[j][dim + i] for j in range(dim)] for i in range(len(images))]


def _image(vector, coords):
    vector = tuple(map(ref.frac_from_str, vector))
    return tuple(sum((v * c[j] for v, c in zip(vector, coords)), Fraction(0)) for j in range(len(coords[0])))


@lru_cache(maxsize=None)
def _maps(family, n, top, bottom):
    source = seaweed(family, n, Composition(top), Composition(bottom))
    target = seaweed(family, n, Composition(bottom), Composition(top))
    # theta(x_i) in target's basis, and theta(y_j) in source's: theta^-1 = theta
    return coordinates(source, target), coordinates(target, source), target.dim


def transposed_json(family, n, top, bottom, certificates):
    """The JSON certificates of seaweed (bottom|top) that theta makes of
    ``certificates``, those of seaweed (top|bottom), as
    ``fraction_reference.certificate_json`` writes them."""
    forward, backward, dim = _maps(family, n, top, bottom)
    out = {}
    for kind, doc in certificates.items():
        phi = [ref.frac_from_str(x) for x in doc["form"]]
        form = tuple(ref.pair(phi, row) for row in backward)
        if kind == "contact":
            reeb = _image(doc["reeb"], forward)
            cert = ref.ContactReference(form=form, reeb=reeb, kernel_dim=1, pairing=ref.pair(form, reeb))
        else:
            spans = []
            for key in ("kernel", "bracket_span"):
                rows = doc.get(key, {}).get("basis")
                rows = None if rows is None else [_image(v, forward) for v in rows]
                spans.append(None if rows is None else ref.span(rows, dim))
            cert = ref.StabilityReference(form=form, kernel=spans[0], bracket_span=spans[1], intersection_dim=0)
        out[kind] = ref.certificate_json(cert)
    return out


def check_partners(family, n, records):
    """Every index-one record of a GL or SL sweep whose transpose partner
    (bottom|top) comes earlier in the sweep has that record's statuses and
    verdict, and the certificates theta makes of its certificates; a
    record before its partner is not one.  No SP or SO record is.  Returns
    the partner records' ordinals."""
    ordinal = {(r.top, r.bottom): i for i, r in enumerate(records)}
    partners = []
    for i, r in enumerate(records):
        j = ordinal[(r.bottom, r.top)] if family in ("GL", "SL") else i
        if r.index != 1 or j >= i:
            continue
        p = records[j]
        assert (r.dim, r.index, r.contact, r.stable, r.verdict) == (p.dim, p.index, p.contact, p.stable, p.verdict)
        expected = transposed_json(family, n, p.top, p.bottom, p.certificates or {})
        assert (r.certificates or {}) == expected, (r.top, r.bottom)
        partners.append(i)
    return partners
