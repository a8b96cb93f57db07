import itertools
from fractions import Fraction

import pytest
import fraction_reference as ref
from block_reference import gln_seaweed
from fraction_reference import contact_volume_nonzero, kirillov_matrix
from stock_algebras import abelian, heisenberg

from seaweeds import (
    Composition,
    LieAlgebra,
    find_contact_form,
    find_stable_form,
    is_contact_form,
    is_stable_form,
    meander,
    meander_index,
    seaweed,
)
from seaweeds.contact import PreconditionError
from seaweeds.linalg import skew_kernel_int_rows
from seaweeds.serialize import certificate_to_json

F = Fraction


def C(*parts):
    return Composition(tuple(parts))


def aff1():
    """2-dimensional nonabelian algebra [x, y] = y."""
    x = ((1, 0), (0, 0))
    y = ((0, 1), (0, 0))
    return LieAlgebra((x, y), label="aff(1)")


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
    cert = is_contact_form(h, [0, 0, 1])
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
    assert is_contact_form(h, [1, 0, 0]) is None


def test_contact_dimension_one():
    g = gln_seaweed(C(1), C(1))
    cert = is_contact_form(g, [1])
    assert cert is not None and certificate_to_json(cert)["reeb"] == ["1/1"]


def test_contact_rejects_even_dimension():
    g = gln_seaweed(C(2), C(2))
    with pytest.raises(PreconditionError):
        is_contact_form(g, [0, 1, 0, 0])


# -- the bordered volume oracle (fraction_reference.contact_volume_nonzero) ---------


def test_volume_heisenberg_bordered_determinant():
    h = heisenberg()
    phi = [0, 0, 1]
    b = kirillov_matrix(h, phi)
    bordered = ref.Matrix.from_rows(
        [[0] + phi]
        + [[-phi[i]] + list(b.rows[i]) for i in range(3)]
    )
    assert leibniz_det(bordered) == 1  # independent 4x4 determinant
    assert contact_volume_nonzero(h, phi)


def test_volume_zero_form():
    for g in (heisenberg(), abelian(5)):
        assert not contact_volume_nonzero(g, [0] * g.dim)


def test_volume_even_dimension_rejected():
    g = gln_seaweed(C(2), C(2))
    with pytest.raises(PreconditionError):
        contact_volume_nonzero(g, [0, 1, 0, 0])


@pytest.mark.parametrize("bad", ["long", "short"])
def test_volume_refuses_a_form_of_the_wrong_length(bad):
    g = gln_seaweed(C(2, 1), C(3))
    make, error = BAD_FORMS[bad]
    with pytest.raises(error):
        contact_volume_nonzero(g, make(g.dim))


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
        for phi in coords_sets:
            assert contact_volume_nonzero(g, phi) == (is_contact_form(g, phi) is not None)
            checked += 1
    assert checked >= 100


# -- is_stable_form -----------------------------------------------------------------


def test_stable_gl2_semisimple_pairing():
    g = gln_seaweed(C(2), C(2))  # basis e11, e12, e21, e22
    phi = [1, 0, 0, 2]  # phi(X) = tr(diag(1,2) X)
    cert = is_stable_form(g, phi)
    assert cert is not None
    assert cert.kernel_rows == ((1, 0, 0, 0), (0, 0, 0, 1))
    assert cert.bracket_span_rows == ((0, 1, 0, 0), (0, 0, 1, 0))
    assert certificate_to_json(cert)["intersection_dim"] == 0


def test_stable_zero_form_iff_abelian():
    a = abelian(4)
    cert = is_stable_form(a, [0] * 4)
    assert cert is not None and len(cert.kernel_rows) == 4 and not cert.bracket_span_rows
    h = heisenberg()
    assert is_stable_form(h, [0, 0, 0]) is None


def test_stable_heisenberg_zstar():
    h = heisenberg()
    cert = is_stable_form(h, [0, 0, 1])
    assert cert is not None
    assert cert.kernel_rows == ((0, 0, 1),)


def test_aff1_stability_exhaustion():
    # Exhaustive oracle over the 2-parameter form space: B_phi = [[0, b], [-b, 0]]
    # for phi = a x* + b y*, so the kernel is 0 (trivially stable) for b != 0
    # and all of g (bracket span = <y> inside it, unstable) for b = 0.
    g = aff1()
    for a in range(-3, 4):
        for b in range(-3, 4):
            cert = is_stable_form(g, [a, b])
            assert (cert is not None) == (b != 0)
    found = find_stable_form(g, seed=5, attempts=16)
    assert found is not None and found.kernel_rows == ()


def test_stability_scaling_invariance():
    g = gln_seaweed(C(2, 1), C(3))
    phi = find_contact_form(g, seed=2).form_row
    for c in (2, -3, 5):
        scaled = [c * x for x in phi]
        assert (is_stable_form(g, scaled) is not None) == (is_stable_form(g, phi) is not None)
        assert (is_contact_form(g, scaled) is not None) == (
            is_contact_form(g, phi) is not None
        )
    # a rational multiple, which the package takes cleared, on the reference
    fifth = [F(x, 5) for x in phi]
    assert (ref.is_stable_form(g, fifth) is not None) == (is_stable_form(g, phi) is not None)
    assert (ref.is_contact_form(g, fifth) is not None) == (is_contact_form(g, phi) is not None)


BAD_FORMS = {
    "Fraction": (lambda dim: [F(k, 7) for k in range(1, dim + 1)], TypeError),
    "float": (lambda dim: [1.0] + [0] * (dim - 1), TypeError),
    "bool": (lambda dim: [0] * (dim - 1) + [True], TypeError),
    "long": (lambda dim: [1] * (dim + 1), ValueError),
    "short": (lambda dim: [1] * (dim - 1), ValueError),
}


@pytest.mark.parametrize("test", [is_contact_form, is_stable_form])
@pytest.mark.parametrize("bad", sorted(BAD_FORMS))
def test_a_form_that_is_not_dim_ints_is_refused(test, bad):
    # the fraction-free eliminations would floor a Fraction, and a longer
    # form would be cut short, each without an error
    g = gln_seaweed(C(2, 1), C(3))
    make, error = BAD_FORMS[bad]
    with pytest.raises(error):
        test(g, make(g.dim))


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
    assert all(type(c) is int for c in cert.form_row)
    kernel = ref.Subspace.from_int_rows(g.dim, skew_kernel_int_rows(g.kirillov_int_rows(cert.form_row)))
    assert kernel == ref.kirillov_kernel(g, cert.form_row)
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
