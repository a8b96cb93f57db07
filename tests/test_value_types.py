"""Value semantics of the package's immutable types.

Records (ClassificationRecord, ContactCertificate, StabilityCertificate,
MeanderGraph, IndexReport) compare by their fields; the values with
validation or arithmetic (Composition, Element, OneForm, Matrix, Subspace)
compare by type and fields.  Every one refuses assignment, and each hashes
whenever its fields do.
"""

from fractions import Fraction

import pytest
from stock_algebras import heisenberg

from seaweeds import (
    ClassificationRecord,
    Composition,
    ContactCertificate,
    Element,
    IndexReport,
    Matrix,
    MeanderGraph,
    OneForm,
    StabilityCertificate,
    Subspace,
    meander,
)

F = Fraction
G = heisenberg()


def record(**changes):
    fields = dict(
        family="GL", n=3, top=(2, 1), bottom=(3,), dim=6, index=1, parity="even",
        contact="FOUND", stable="FOUND", verdict="CONSISTENT", seed=0,
        attempts=64, bound=10**6, trials=3, trial_kernel_dims=(),
    )
    fields.update(changes)
    return ClassificationRecord(**fields)


def values():
    """Pairs (make, changed): make() builds a fresh value, and changed() an
    equal-typed value that differs in one field."""
    coords = (F(1), F(2), F(3))
    return {
        "Composition": (lambda: Composition((2, 1)), lambda: Composition((1, 2))),
        "Element": (lambda: Element(G, coords), lambda: Element(G, coords[::-1])),
        "OneForm": (lambda: OneForm(G, coords), lambda: OneForm(G, coords[::-1])),
        "Matrix": (lambda: Matrix.from_rows([[1, 2]]), lambda: Matrix.from_rows([[2, 1]])),
        "Subspace": (lambda: Subspace(2, ((F(1), F(0)),)), lambda: Subspace(2, ((F(0), F(1)),))),
        "MeanderGraph": (
            lambda: meander(Composition((2, 1)), Composition((3,))),
            lambda: meander(Composition((1, 2)), Composition((3,))),
        ),
        "ContactCertificate": (
            lambda: ContactCertificate((0, 0, 1), 1, (0, 0, 1), 1),
            lambda: ContactCertificate((0, 0, 1), 1, (0, 0, 1), -1),
        ),
        "StabilityCertificate": (
            lambda: StabilityCertificate((0, 0, 1), 1, ((0, 0, 1),), ()),
            lambda: StabilityCertificate((0, 0, 2), 1, ((0, 0, 1),), ()),
        ),
        "IndexReport": (
            lambda: IndexReport(1, (1,), (0, 0, 1)),
            lambda: IndexReport(1, (3, 1), (0, 0, 1)),
        ),
        "ClassificationRecord": (record, lambda: record(verdict="UNRESOLVED")),
    }


VALUES = values()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_are_equal_values_with_equal_hashes(name):
    make, changed = VALUES[name]
    assert make() == make() and not make() != make()
    assert hash(make()) == hash(make())
    assert make() != changed() and not make() == changed()
    assert len({make(), make(), changed()}) == 2


FIELDS = {
    "Composition": ["parts"],
    "Element": ["algebra", "coords"],
    "OneForm": ["algebra", "coords"],
    "Matrix": ["rows"],
    "Subspace": ["ambient_dim", "basis"],
    "MeanderGraph": ["n", "top_edges", "bottom_edges"],
    "ContactCertificate": ["form_row", "form_den", "reeb_row", "reeb_den"],
    "StabilityCertificate": ["form_row", "form_den", "kernel_rows", "bracket_span_rows"],
    "IndexReport": ["index", "trial_kernel_dims", "witness_coords"],
    "ClassificationRecord": ["family", "verdict", "trial_kernel_dims", "certificates"],
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_refuse_assignment_and_deletion(name):
    value = VALUES[name][0]()
    for field in FIELDS[name]:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept


def test_vectors_and_covectors_never_compare_equal():
    coords = (F(1), F(2), F(3))
    assert Element(G, coords) != OneForm(G, coords)
    assert OneForm(G, coords) != Element(G, coords)
    assert Element(G, coords) == Element(G, coords)
    assert Element(G, coords) != Element(heisenberg(), coords)  # another algebra


def test_values_are_never_equal_to_their_fields():
    assert Composition((2, 1)) != (2, 1) and Composition((2, 1)) != ((2, 1),)
    assert Matrix.from_rows([[1]]) != ((F(1),),)
    assert Subspace(1, ((F(1),),)) != (1, ((F(1),),))


def test_a_record_with_certificates_is_not_hashable():
    # A dict field makes the record unhashable; comparison still works.
    with_certs = record(certificates={"contact": {}})
    assert with_certs == record(certificates={"contact": {}})
    with pytest.raises(TypeError):
        hash(with_certs)


@pytest.mark.parametrize("parts", [(0,), (2, -1), (1, 1.0), (True, 0)])
def test_composition_refuses_parts_that_are_not_positive_integers(parts):
    with pytest.raises(ValueError, match="positive integers"):
        Composition(parts)


@pytest.mark.parametrize("kind", [Element, OneForm])
@pytest.mark.parametrize("length", [0, 2, 4])
def test_coordinates_must_match_the_algebra_dimension(kind, length):
    with pytest.raises(ValueError, match="dimension"):
        kind(G, (F(1),) * length)


def test_reprs_name_the_type_and_fields():
    assert repr(Composition((2, 1))) == "Composition(parts=(2, 1))"
    assert repr(IndexReport(1, (1,), (2,))) == (
        "IndexReport(index=1, trial_kernel_dims=(1,), witness_coords=(2,))"
    )
    assert repr(ContactCertificate((1,), 1, (1,), 1)) == (
        "ContactCertificate(form_row=(1,), form_den=1, reeb_row=(1,), reeb_den=1)"
    )
