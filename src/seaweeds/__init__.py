"""Seaweed Lie algebras over exact rational arithmetic.

Construction of seaweed (biparabolic) subalgebras of gl(n), sl(n), sp(2n),
and so(n); their index, by formula (``meander``), with randomized
Kirillov-form witnesses; contact and stability analysis
with machine-checkable certificates; and an exhaustive small-rank classifier
testing the equivalence "index-one seaweed is contact iff it admits a stable
form" on enumerated composition pairs.  All exact linear algebra, from
Kirillov matrices, kernels and certificate checks to minimal polynomials
and centers, runs on integer rows; rationals appear only in the public
values and in JSON.  ``Matrix`` and ``Subspace`` are exported as values
only: no rank, kernel or intersection is taken on them.  The package keeps
what the ``seaweeds`` commands reach, the quasi-reductive building blocks
(center, minimal polynomial, squarefreeness, semisimple kernel generators)
and the Lie-algebra values; the block picture of type-A seaweeds, the
rational Kirillov matrix and rational elimination live on as test oracles.
A contact form is stable (ker B_phi = <k> with phi(k) != 0 puts [k, g]
in ker phi), so the classifier's two searches, which share one stream of
forms, cannot reach a COUNTEREXAMPLE; the sweep tests stable => contact.
A stability certificate of a contact form holds its kernel line alone,
which ``verify`` checks with no [ker, g]; only a stable form that is not
contact carries [ker, g].  Reports are compact JSON (schema 4).
"""

from .classify import ClassificationRecord, classify, exit_status, report
from .construct import (
    AmbientAlgebra,
    Composition,
    enumerate_compositions,
    flag_seaweed,
    parse_pair,
    seaweed,
)
from .contact import (
    ContactCertificate,
    StabilityCertificate,
    contact_volume_nonzero,
    find_contact_form,
    find_stable_form,
    is_contact_form,
    is_semisimple_element,
    is_stable_form,
    reductive_type_witness,
)
from .lie import (
    Element,
    IndexReport,
    LieAlgebra,
    OneForm,
    abelian,
    bracket,
    center,
    heisenberg,
    index,
)
from .linalg import (
    Matrix,
    Subspace,
    is_squarefree,
    minimal_polynomial,
)
from .meander import MeanderGraph, census, index_formula, meander, meander_index, meander_svg
from .serialize import algebra_from_json, algebra_to_json, certificate_to_json, verify_document

__version__ = "0.1.0"

# Name of the exact arithmetic path, printed by tooling that records its
# environment; there is one, in pure Python.
BACKEND_NAME = "python"

__all__ = [
    "AmbientAlgebra",
    "BACKEND_NAME",
    "ClassificationRecord",
    "Composition",
    "ContactCertificate",
    "Element",
    "IndexReport",
    "LieAlgebra",
    "Matrix",
    "MeanderGraph",
    "OneForm",
    "StabilityCertificate",
    "Subspace",
    "abelian",
    "algebra_from_json",
    "algebra_to_json",
    "bracket",
    "census",
    "center",
    "certificate_to_json",
    "classify",
    "contact_volume_nonzero",
    "enumerate_compositions",
    "exit_status",
    "find_contact_form",
    "find_stable_form",
    "flag_seaweed",
    "heisenberg",
    "index",
    "index_formula",
    "is_contact_form",
    "is_semisimple_element",
    "is_squarefree",
    "is_stable_form",
    "meander",
    "meander_index",
    "meander_svg",
    "minimal_polynomial",
    "parse_pair",
    "reductive_type_witness",
    "report",
    "seaweed",
    "verify_document",
]
