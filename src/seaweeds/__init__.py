"""Seaweed Lie algebras over exact rational arithmetic.

Construction of seaweed (biparabolic) subalgebras of gl(n), sl(n), sp(2n),
and so(n); Kirillov-form index computation; contact and stability analysis
with machine-checkable certificates; and an exhaustive small-rank classifier
testing the equivalence "index-one seaweed is contact iff it admits a stable
form" on enumerated composition pairs.
"""

from .classify import ClassificationRecord, classify, exit_status, report
from .construct import (
    AmbientAlgebra,
    Composition,
    enumerate_compositions,
    flag_seaweed,
    gln_seaweed,
    matrix_span,
    parse_pair,
    seaweed,
    sln_seaweed,
)
from .contact import (
    ContactBasis,
    ContactCertificate,
    StabilityCertificate,
    contact_basis,
    contact_volume_nonzero,
    contactify,
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
    is_regular,
    kirillov_matrix,
    sample_form,
)
from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    intersect,
    is_squarefree,
    minimal_polynomial,
    nullspace,
    rank,
)
from .meander import MeanderGraph, census, meander, meander_index, meander_svg
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
    "ContactBasis",
    "ContactCertificate",
    "Element",
    "IndexReport",
    "LieAlgebra",
    "Matrix",
    "MeanderGraph",
    "OneForm",
    "Scalar",
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
    "contact_basis",
    "contact_volume_nonzero",
    "contactify",
    "enumerate_compositions",
    "exit_status",
    "find_contact_form",
    "find_stable_form",
    "flag_seaweed",
    "gln_seaweed",
    "heisenberg",
    "index",
    "intersect",
    "is_contact_form",
    "is_regular",
    "is_semisimple_element",
    "is_squarefree",
    "is_stable_form",
    "kirillov_matrix",
    "matrix_span",
    "meander",
    "meander_index",
    "meander_svg",
    "minimal_polynomial",
    "nullspace",
    "parse_pair",
    "rank",
    "reductive_type_witness",
    "report",
    "sample_form",
    "seaweed",
    "sln_seaweed",
    "verify_document",
]
