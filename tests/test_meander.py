import pytest
from block_reference import gln_seaweed

from seaweeds import Composition, census, index, meander, meander_index, meander_svg
from seaweeds.construct import composition_pairs, seaweed
from seaweeds.lie import DEFAULT_BOUND
from seaweeds.meander import index_floor


def C(*parts):
    return Composition(tuple(parts))


def test_meander_path_example():
    m = meander(C(2, 1), C(3))
    assert m.top_edges == ((1, 2),)
    assert m.bottom_edges == ((1, 3),)
    assert census(m) == (0, 1)  # single path 2-1-3
    assert meander_index(m) == 1


def test_meander_cycle_example():
    m = meander(C(2, 2), C(4))
    assert m.top_edges == ((1, 2), (3, 4))
    assert m.bottom_edges == ((1, 4), (2, 3))
    assert census(m) == (1, 0)  # one 4-cycle
    assert meander_index(m) == 2


def test_meander_torus():
    ones = C(1, 1, 1, 1, 1)
    m = meander(ones, ones)
    assert m.top_edges == () and m.bottom_edges == ()
    assert census(m) == (0, 5)
    assert meander_index(m) == 5


def test_meander_full_gl():
    for n in (2, 4, 6):
        m = meander(C(n), C(n))
        assert census(m) == (n // 2, 0)
        assert meander_index(m) == n
    for n in (3, 5):
        m = meander(C(n), C(n))
        assert census(m) == (n // 2, 1)
        assert meander_index(m) == n


def test_meander_borel_index():
    # stabilizer of the full flag: index of the Borel in gl(n) is ceil(n/2)
    for n in range(1, 7):
        m = meander(C(n), C(*([1] * n)))
        assert meander_index(m) == (n + 1) // 2


def test_meander_totals_must_agree():
    with pytest.raises(ValueError):
        meander(C(2), C(3))


def test_meander_index_sl_variant():
    m = meander(C(2), C(2))
    assert meander_index(m, "GL") == 2
    assert meander_index(m, "SL") == 1
    with pytest.raises(ValueError):
        meander_index(m, "SP")


def test_meander_matches_randomized_index_small():
    from seaweeds import enumerate_compositions

    for n in range(2, 5):
        comps = enumerate_compositions(n)
        for a in comps:
            for b in comps:
                g = gln_seaweed(a, b)
                assert meander_index(meander(a, b)) == index(g, seed=31).index


def test_meander_svg_smoke():
    svg = meander_svg(meander(C(2, 1), C(3)))
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 3
    assert svg.count("<path") == 2
    assert svg == meander_svg(meander(C(2, 1), C(3)))  # deterministic


FLOOR_SWEEPS = [("GL", n) for n in range(2, 6)] + [("SL", n) for n in range(2, 7)]
FLOOR_SWEEPS += [("SP", 2), ("SP", 3), ("SO", 5), ("SO", 6), ("SO", 7)]


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("family,n", FLOOR_SWEEPS)
def test_index_with_a_floor_draws_a_prefix_of_the_trials(family, n, seed):
    # the classifier's seeds and budgets; the floor only stops the trials early
    for ordinal, (a, b) in enumerate(composition_pairs(family, n)):
        g = seaweed(family, n, a, b)
        floor = index_floor(family, a, b, g.dim)
        full = index(g, seed ^ ordinal, 3, DEFAULT_BOUND)
        cut = index(g, seed ^ ordinal, 3, DEFAULT_BOUND, floor=floor)
        dims = cut.trial_kernel_dims
        assert full.trial_kernel_dims[: len(dims)] == dims
        assert cut.index == full.index >= floor
        assert cut.witness_coords == full.witness_coords
        assert dims[-1] == floor if len(dims) < 3 else floor not in dims[:-1]
