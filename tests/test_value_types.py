"""Value semantics of the package's six immutable types.

The five records (ClassificationRecord, ContactCertificate,
StabilityCertificate, MeanderGraph, IndexReport) compare by their fields;
the one value with validation (Composition) compares by type and fields.
Every one refuses assignment, and each hashes whenever its fields do.
"""

import pytest

from seaweeds import (
    ClassificationRecord,
    Composition,
    ContactCertificate,
    IndexReport,
    MeanderGraph,
    StabilityCertificate,
    meander,
)


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
    return {
        "Composition": (lambda: Composition((2, 1)), lambda: Composition((1, 2))),
        "MeanderGraph": (
            lambda: meander(Composition((2, 1)), Composition((3,))),
            lambda: meander(Composition((1, 2)), Composition((3,))),
        ),
        "ContactCertificate": (
            lambda: ContactCertificate((0, 0, 1), (0, 0, 1), 1),
            lambda: ContactCertificate((0, 0, 1), (0, 0, 1), -1),
        ),
        "StabilityCertificate": (
            lambda: StabilityCertificate((0, 0, 1), ((0, 0, 1),), ()),
            lambda: StabilityCertificate((0, 0, 2), ((0, 0, 1),), ()),
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
    "MeanderGraph": ["n", "top_edges", "bottom_edges"],
    "ContactCertificate": ["form_row", "reeb_row", "reeb_den"],
    "StabilityCertificate": ["form_row", "kernel_rows", "bracket_span_rows"],
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


def test_values_are_never_equal_to_their_fields():
    assert Composition((2, 1)) != (2, 1) and Composition((2, 1)) != ((2, 1),)


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


def test_reprs_name_the_type_and_fields():
    assert repr(Composition((2, 1))) == "Composition(parts=(2, 1))"
    assert repr(IndexReport(1, (1,), (2,))) == (
        "IndexReport(index=1, trial_kernel_dims=(1,), witness_coords=(2,))"
    )
    assert repr(ContactCertificate((1,), (1,), 1)) == (
        "ContactCertificate(form_row=(1,), reeb_row=(1,), reeb_den=1)"
    )
