import itertools
from fractions import Fraction

import pytest
import fraction_reference as ref
from block_reference import gln_seaweed
from fraction_reference import kirillov_matrix

from seaweeds import (
    Composition,
    Element,
    LieAlgebra,
    Matrix,
    OneForm,
    abelian,
    contact_volume_nonzero,
    find_contact_form,
    find_stable_form,
    heisenberg,
    is_contact_form,
    is_semisimple_element,
    is_stable_form,
    meander,
    meander_index,
    reductive_type_witness,
    seaweed,
)
from seaweeds.contact import PreconditionError
from seaweeds.lie import kirillov_kernel
from seaweeds.serialize import certificate_to_json

F = Fraction


def C(*parts):
    return Composition(tuple(parts))


def form(g, coords):
    return OneForm(g, tuple(F(c) for c in coords))


def aff1():
    """2-dimensional nonabelian algebra [x, y] = y."""
    x = Matrix.from_rows([[1, 0], [0, 0]])
    y = Matrix.from_rows([[0, 1], [0, 0]])
    return LieAlgebra(2, {(0, 1): {1: 1}}, realization=(x, y), label="aff(1)")


def leibniz_det(m):
    """Cofactor-free independent determinant (sum over permutations)."""
    n = m.nrows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


# -- is_contact_form ---------------------------------------------------------------


def test_contact_heisenberg():
    h = heisenberg()
    cert = is_contact_form(h, form(h, [0, 0, 1]))
    assert cert is not None
    assert certificate_to_json(cert) == {
        "kind": "contact",
        "form": ["0/1", "0/1", "1/1"],
        "reeb": ["0/1", "0/1", "1/1"],
        "kernel_dim": 1,
        "pairing": "1/1",
    }


def test_contact_heisenberg_irregular_form():
    h = heisenberg()
    assert is_contact_form(h, form(h, [1, 0, 0])) is None


def test_contact_dimension_one():
    g = gln_seaweed(C(1), C(1))
    cert = is_contact_form(g, form(g, [1]))
    assert cert is not None and certificate_to_json(cert)["reeb"] == ["1/1"]


def test_contact_rejects_even_dimension():
    g = gln_seaweed(C(2), C(2))
    with pytest.raises(PreconditionError):
        is_contact_form(g, form(g, [0, 1, 0, 0]))


# -- contact_volume_nonzero ---------------------------------------------------------


def test_volume_heisenberg_bordered_determinant():
    h = heisenberg()
    phi = form(h, [0, 0, 1])
    b = kirillov_matrix(h, phi)
    bordered = Matrix.from_rows(
        [[0] + list(phi.coords)]
        + [[-phi.coords[i]] + list(b.rows[i]) for i in range(3)]
    )
    assert leibniz_det(bordered) == 1  # independent 4x4 determinant
    assert contact_volume_nonzero(h, phi)


def test_volume_zero_form():
    for g in (heisenberg(), abelian(5)):
        assert not contact_volume_nonzero(g, form(g, [0] * g.dim))


def test_volume_even_dimension_rejected():
    g = gln_seaweed(C(2), C(2))
    with pytest.raises(PreconditionError):
        contact_volume_nonzero(g, form(g, [0, 1, 0, 0]))


def test_volume_agrees_with_kernel_characterization():
    import random

    rng = random.Random(8080)
    pool = [
        heisenberg(),
        abelian(3),
        gln_seaweed(C(2, 1), C(3)),
        gln_seaweed(C(3), C(1, 2)),
        seaweed("SL", 2, C(2), C(2)),
    ]
    checked = 0
    for g in pool:
        assert g.dim % 2 == 1
        coords_sets = [[0] * g.dim]
        for _ in range(25):
            coords_sets.append([rng.randint(-4, 4) for _ in range(g.dim)])
        for coords in coords_sets:
            phi = form(g, coords)
            assert contact_volume_nonzero(g, phi) == (is_contact_form(g, phi) is not None)
            checked += 1
    assert checked >= 100


# -- is_stable_form -----------------------------------------------------------------


def test_stable_gl2_semisimple_pairing():
    g = gln_seaweed(C(2), C(2))  # basis e11, e12, e21, e22
    phi = form(g, [1, 0, 0, 2])  # phi(X) = tr(diag(1,2) X)
    cert = is_stable_form(g, phi)
    assert cert is not None
    assert cert.kernel_rows == ((1, 0, 0, 0), (0, 0, 0, 1))
    assert cert.bracket_span_rows == ((0, 1, 0, 0), (0, 0, 1, 0))
    assert certificate_to_json(cert)["intersection_dim"] == 0


def test_stable_zero_form_iff_abelian():
    a = abelian(4)
    cert = is_stable_form(a, form(a, [0] * 4))
    assert cert is not None and len(cert.kernel_rows) == 4 and not cert.bracket_span_rows
    h = heisenberg()
    assert is_stable_form(h, form(h, [0, 0, 0])) is None


def test_stable_heisenberg_zstar():
    h = heisenberg()
    cert = is_stable_form(h, form(h, [0, 0, 1]))
    assert cert is not None
    assert cert.kernel_rows == ((0, 0, 1),)


def test_aff1_stability_exhaustion():
    # Exhaustive oracle over the 2-parameter form space: B_phi = [[0, b], [-b, 0]]
    # for phi = a x* + b y*, so the kernel is 0 (trivially stable) for b != 0
    # and all of g (bracket span = <y> inside it, unstable) for b = 0.
    g = aff1()
    for a in range(-3, 4):
        for b in range(-3, 4):
            cert = is_stable_form(g, form(g, [a, b]))
            assert (cert is not None) == (b != 0)
    found = find_stable_form(g, seed=5, attempts=16)
    assert found is not None and found.kernel_rows == ()


def test_stability_scaling_invariance():
    g = gln_seaweed(C(2, 1), C(3))
    phi = form(g, find_contact_form(g, seed=2).form_row)
    for c in (2, -3, F(1, 5)):
        scaled = phi.scale(c)
        assert (is_stable_form(g, scaled) is not None) == (is_stable_form(g, phi) is not None)
        assert (is_contact_form(g, scaled) is not None) == (
            is_contact_form(g, phi) is not None
        )


# -- searches -----------------------------------------------------------------------


def test_find_contact_heisenberg():
    cert = find_contact_form(heisenberg(), seed=0)
    assert cert is not None


def test_find_contact_seaweed_with_meander_oracle():
    a, b = C(2, 1), C(3)
    assert meander_index(meander(a, b)) == 1  # the search target is index one
    g = gln_seaweed(a, b)
    cert = find_contact_form(g, seed=11)
    assert cert is not None
    # re-check the certificate invariants from scratch
    assert cert.form_den == 1
    kernel = kirillov_kernel(g, form(g, cert.form_row))
    assert kernel.dim == 1
    assert ref.contains(kernel, [F(v, cert.reeb_den) for v in cert.reeb_row])
    assert sum(f * r for f, r in zip(cert.form_row, cert.reeb_row)) == cert.reeb_den  # form(reeb) = 1


def test_find_contact_abelian_exhausts():
    assert find_contact_form(abelian(3), seed=1, attempts=8) is None


def test_find_contact_even_dim_rejected():
    with pytest.raises(PreconditionError):
        find_contact_form(abelian(2), seed=1)


def test_searches_refuse_a_negative_budget_and_take_a_zero_one():
    g = heisenberg()
    for search in (find_contact_form, find_stable_form):
        with pytest.raises(ValueError, match="attempts must be nonnegative"):
            search(g, seed=1, attempts=-1)
        for bound in (0, -1):
            with pytest.raises(ValueError, match="bound must be at least 1"):
                search(g, seed=1, bound=bound)
        assert search(g, seed=1, attempts=0) is None


def test_searches_are_deterministic():
    g = gln_seaweed(C(2, 1), C(3))
    assert find_contact_form(g, seed=9) == find_contact_form(g, seed=9)
    assert find_stable_form(g, seed=9) == find_stable_form(g, seed=9)


def test_forward_direction_contact_implies_stable():
    for g in (heisenberg(), gln_seaweed(C(2, 1), C(3)), seaweed("SL", 2, C(2), C(2))):
        cert = find_contact_form(g, seed=21)
        assert cert is not None
        assert is_stable_form(g, cert.form_row) is not None


# -- semisimplicity and reductive type ----------------------------------------------


def test_semisimple_examples():
    g = gln_seaweed(C(2), C(2))
    diag12 = Element(g, (F(1), F(0), F(0), F(2)))
    e12 = g.basis_element(1)
    identity = Element(g, (F(1), F(0), F(0), F(1)))
    assert is_semisimple_element(diag12)
    assert not is_semisimple_element(e12)
    assert is_semisimple_element(identity)


def test_semisimple_needs_realization():
    g = LieAlgebra(2, {(0, 1): {1: 1}})
    with pytest.raises(PreconditionError):
        is_semisimple_element(g.basis_element(0))


def test_reductive_witness_rejects_nonzero_center():
    g = gln_seaweed(C(2), C(2))
    with pytest.raises(PreconditionError):
        reductive_type_witness(g, form(g, [1, 0, 0, 2]))


def test_reductive_witness_rejects_fat_kernel():
    sl2 = seaweed("SL", 2, C(2), C(2))
    with pytest.raises(PreconditionError):
        reductive_type_witness(sl2, form(sl2, [0, 0, 0]))


def test_reductive_witness_on_contact_sl2():
    sl2 = seaweed("SL", 2, C(2), C(2))
    cert = find_contact_form(sl2, seed=14)
    assert cert is not None
    assert reductive_type_witness(sl2, form(sl2, cert.form_row))
