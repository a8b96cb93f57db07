"""Seaweed Lie algebras over exact rational arithmetic.

Construction of seaweed (biparabolic) subalgebras of gl(n), sl(n), sp(2n),
and so(n), each named by its family, rank and composition pair and built
by one entry point, ``seaweed(family, n, a, b)``; their index, by formula
(``meander``), with randomized Kirillov-form witnesses; contact and
stability analysis with machine-checkable certificates; and an
exhaustive small-rank classifier testing the equivalence "index-one
seaweed is contact iff it admits a stable form" on enumerated composition
pairs.  All exact linear algebra, from Kirillov matrices and kernels to
certificate checks, runs on ints (``linalg``): an algebra is its integer
matrices, with its structure constants read off their commutators
(``lie``), and rationals appear only as the "num/den" strings of JSON,
parsed straight into integer rows.  No module builds a Fraction.  The
package keeps what the ``seaweeds`` commands reach; the block picture of
type-A seaweeds, the rational Kirillov matrix, rational elimination and
the small stock algebras the tests build (Heisenberg, abelian) live under
``tests``.  A contact form
is stable (``contact`` proves it), so the classifier searches for a
stable form alone and reads contact off its certificate; it cannot reach
a COUNTEREXAMPLE, and the sweep tests stable => contact.  In type A it
searches once per transpose pair: theta(X) = -X^T maps the seaweed of
(a|b) onto that of (b|a), and an automorphism restricted to a subalgebra
is an isomorphism onto its image, so (b|a) takes theta of (a|b)'s
certificates (``classify``).  Each family has one name, in upper case,
and each report format one, in lower case.  Every document names its
seaweed by family, rank and compositions, and ``verify`` rebuilds it:
reports are compact JSON (schema 4) and certificate documents schema 3,
whose shapes and checks ``serialize`` states.
"""

from .classify import ClassificationRecord, classify, exit_status, report
from .construct import Composition, enumerate_compositions, parse_pair, seaweed
from .contact import (
    ContactCertificate,
    StabilityCertificate,
    find_contact_form,
    find_stable_form,
    is_contact_form,
    is_stable_form,
)
from .lie import IndexReport, LieAlgebra, index
from .meander import MeanderGraph, census, index_formula, meander, meander_index, meander_svg
from .serialize import certificate_to_json, verify_document

__version__ = "0.1.0"

# Name of the exact arithmetic path, printed by tooling that records its
# environment; there is one, in pure Python.
BACKEND_NAME = "python"

__all__ = [
    "BACKEND_NAME",
    "ClassificationRecord",
    "Composition",
    "ContactCertificate",
    "IndexReport",
    "LieAlgebra",
    "MeanderGraph",
    "StabilityCertificate",
    "census",
    "certificate_to_json",
    "classify",
    "enumerate_compositions",
    "exit_status",
    "find_contact_form",
    "find_stable_form",
    "index",
    "index_formula",
    "is_contact_form",
    "is_stable_form",
    "meander",
    "meander_index",
    "meander_svg",
    "parse_pair",
    "report",
    "seaweed",
    "verify_document",
]
