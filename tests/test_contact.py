import itertools
from fractions import Fraction

import pytest

from seaweeds import (
    Composition,
    Element,
    LieAlgebra,
    Matrix,
    OneForm,
    abelian,
    contact_basis,
    contact_volume_nonzero,
    contactify,
    find_contact_form,
    find_stable_form,
    gln_seaweed,
    heisenberg,
    is_contact_form,
    is_semisimple_element,
    is_stable_form,
    kirillov_matrix,
    meander,
    meander_index,
    reductive_type_witness,
    seaweed,
)
from seaweeds.contact import PreconditionError, dual_functional
from seaweeds.lie import kirillov_kernel
from seaweeds.linalg import Subspace, rank

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
    assert cert.reeb == Element(h, (F(0), F(0), F(1)))
    assert cert.pairing == 1
    assert cert.kernel_dim == 1


def test_contact_heisenberg_irregular_form():
    h = heisenberg()
    assert is_contact_form(h, form(h, [1, 0, 0])) is None


def test_contact_dimension_one():
    g = gln_seaweed(C(1), C(1))
    cert = is_contact_form(g, form(g, [1]))
    assert cert is not None and cert.reeb.coords == (F(1),)


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
    assert cert.kernel == Subspace.from_vectors([[1, 0, 0, 0], [0, 0, 0, 1]], 4)
    assert cert.bracket_span == Subspace.from_vectors([[0, 1, 0, 0], [0, 0, 1, 0]], 4)
    assert cert.intersection_dim == 0


def test_stable_zero_form_iff_abelian():
    a = abelian(4)
    cert = is_stable_form(a, form(a, [0] * 4))
    assert cert is not None and cert.kernel.dim == 4 and cert.bracket_span.dim == 0
    h = heisenberg()
    assert is_stable_form(h, form(h, [0, 0, 0])) is None


def test_stable_heisenberg_zstar():
    h = heisenberg()
    cert = is_stable_form(h, form(h, [0, 0, 1]))
    assert cert is not None
    assert cert.kernel == Subspace.from_vectors([[0, 0, 1]], 3)


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
    assert found is not None and found.kernel.dim == 0


def test_stability_scaling_invariance():
    g = gln_seaweed(C(2, 1), C(3))
    phi = find_contact_form(g, seed=2).form
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
    kernel = kirillov_kernel(g, cert.form)
    assert kernel.dim == 1
    assert kernel.contains(cert.reeb.coords)
    assert cert.form(cert.reeb) == 1


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
        assert search(g, seed=1, attempts=0) is None


def test_searches_are_deterministic():
    g = gln_seaweed(C(2, 1), C(3))
    assert find_contact_form(g, seed=9).form == find_contact_form(g, seed=9).form
    assert find_stable_form(g, seed=9).form == find_stable_form(g, seed=9).form


def test_forward_direction_contact_implies_stable():
    for g in (heisenberg(), gln_seaweed(C(2, 1), C(3)), seaweed("SL", 2, C(2), C(2))):
        cert = find_contact_form(g, seed=21)
        assert cert is not None
        assert is_stable_form(g, cert.form) is not None


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
    assert reductive_type_witness(sl2, cert.form)


# -- contact basis ------------------------------------------------------------------


def canonical_block(dim):
    rows = [[F(0)] * dim for _ in range(dim)]
    for pos in range(1, dim - 1, 2):
        rows[pos][pos + 1] = F(1)
        rows[pos + 1][pos] = F(-1)
    return Matrix.from_rows(rows)


def test_contact_basis_heisenberg():
    h = heisenberg()
    cert = is_contact_form(h, form(h, [0, 0, 1]))
    basis = contact_basis(h, cert)
    assert [e.coords for e in basis.elements] == [
        (F(0), F(0), F(1)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
    ]
    assert basis.dual_check == canonical_block(3)


def test_contact_basis_seaweed():
    g = gln_seaweed(C(2, 1), C(3))
    cert = find_contact_form(g, seed=4)
    basis = contact_basis(g, cert)
    assert len(basis.elements) == 7  # Reeb plus three symplectic pairs
    assert basis.elements[0] == cert.reeb
    assert basis.dual_check == canonical_block(7)
    change = Matrix([e.coords for e in basis.elements])
    assert rank(change) == 7


def test_contact_basis_rejects_tampered_certificate():
    h = heisenberg()
    cert = is_contact_form(h, form(h, [0, 0, 1]))
    bad = type(cert)(
        form=cert.form, reeb=cert.reeb.scale(2), kernel_dim=1, pairing=cert.pairing
    )
    with pytest.raises(PreconditionError):
        contact_basis(h, bad)


# -- contactify ---------------------------------------------------------------------


def test_contactify_rejects_contact_input():
    h = heisenberg()
    with pytest.raises(PreconditionError):
        contactify(h, form(h, [0, 0, 1]))  # form(kernel generator) != 0


def test_contactify_rejects_fat_kernel():
    with pytest.raises(PreconditionError):
        contactify(abelian(3), form(abelian(3), [1, 1, 1]))


def test_contactify_self_inverse_construction():
    g = gln_seaweed(C(2, 1), C(3))
    base = find_contact_form(g, seed=6)
    reeb = base.reeb
    reeb_dual = dual_functional(g, reeb.coords)
    phi = base.form + reeb_dual.scale(-base.form(reeb))
    assert phi(reeb) == 0
    kernel = kirillov_kernel(g, phi)
    assert kernel.dim == 1 and kernel.contains(reeb.coords)  # stayed regular
    cert = contactify(g, phi)
    assert cert is not None
    assert kirillov_kernel(g, cert.form) == kernel
    assert cert.form(reeb) != 0


def test_dual_functional_normalization():
    g = gln_seaweed(C(2, 1), C(3))
    v = (F(0), F(2), F(0), F(1), F(0), F(0), F(0))
    dual = dual_functional(g, v)
    assert dual(Element(g, v)) == 1
