"""Oracles for ``meander.index_formula``, the index of every record.

* Type A: the Tauvel-Yu-Joseph cascade formula, kept here only, equals the
  meander index on every composition pair with n <= 7.
* Types B, C, D: the closed-form cascade of ``meander._cascade`` equals
  the cascade built from the root system by highest roots, for every
  composition up to rank 4.
* Every family: a randomized Kirillov trial stopped at the formula reaches
  it on every pair up to the sweep limits (slow).
"""

from fractions import Fraction
from itertools import combinations

import pytest

from seaweeds import Composition, enumerate_compositions, index, meander, meander_index, seaweed
from seaweeds.classify import LIMITS
from seaweeds.construct import composition_pairs
from seaweeds.linalg import rank_int_rows
from seaweeds.meander import _cascade, _root_system, index_formula


def type_a_cascade(n, parts):
    """The cascade of the type-A blocks of a composition of n: for a block
    of size p at s, epsilon_{s+i} - epsilon_{s+p-1-i} for i < p/2."""
    roots, start = [], 0
    for p in parts:
        for i in range(p // 2):
            v = [0] * n
            v[start + i], v[start + p - 1 - i] = 1, -1
            roots.append(v)
        start += p
    return roots


def type_a_formula(family, a, b):
    """rk g + |K(pi1)| + |K(pi2)| - 2 dim span, rk sl(n) = n - 1, plus the
    centre for gl(n)."""
    n = a.total
    rows = type_a_cascade(n, a.parts) + type_a_cascade(n, b.parts)
    return (n - 1) + len(rows) - 2 * rank_int_rows(rows) + (family == "GL")


def test_the_type_a_cascade_formula_is_the_meander_index():
    pairs = 0
    for n in range(1, 8):
        comps = enumerate_compositions(n)
        for a in comps:
            for b in comps:
                census = meander(a, b)
                for family in ("GL", "SL"):
                    assert type_a_formula(family, a, b) == meander_index(census, family)
                pairs += 1
    assert pairs == 5461


# -- types B, C, D from the root system ---------------------------------------


def unit(rank, *terms):
    v = [0] * rank
    for j, c in terms:
        v[j] += c
    return tuple(v)


def positive_roots(kind, rank):
    roots = []
    for i, j in combinations(range(rank), 2):
        roots += [unit(rank, (i, 1), (j, -1)), unit(rank, (i, 1), (j, 1))]
    if kind == "B":
        roots += [unit(rank, (i, 1)) for i in range(rank)]
    if kind == "C":
        roots += [unit(rank, (i, 2)) for i in range(rank)]
    return roots


def simple_roots(kind, rank):
    """{k: alpha_k}, k = 1..rank; D_1 has none."""
    alpha = {k: unit(rank, (k - 1, 1), (k, -1)) for k in range(1, rank)}
    if kind == "B":
        alpha[rank] = unit(rank, (rank - 1, 1))
    elif kind == "C":
        alpha[rank] = unit(rank, (rank - 1, 2))
    elif rank >= 2:
        alpha[rank] = unit(rank, (rank - 2, 1), (rank - 1, 1))
    return alpha


def coefficients(alpha, root):
    """root as sum c_k alpha_k, by exact elimination (the alpha_k are
    independent)."""
    keys = sorted(alpha)
    rows = [[Fraction(alpha[k][j]) for k in keys] + [Fraction(root[j])] for j in range(len(root))]
    pivots = []
    r = 0
    for c in range(len(keys)):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    assert all(not row[-1] for row in rows[r:])
    return {keys[c]: rows[i][-1] for i, c in enumerate(pivots)}


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def highest_root_cascade(kind, rank, kept):
    """Kostant's cascade of the simple roots ``kept`` ({k: alpha_k}): for
    each connected component, its highest root, then the cascade of the
    component's simple roots orthogonal to it."""
    alpha = simple_roots(kind, rank)
    out = []
    todo = set(kept)
    while todo:
        component, frontier = set(), [min(todo)]
        while frontier:
            k = frontier.pop()
            if k not in component:
                component.add(k)
                frontier += [j for j in todo if dot(alpha[j], alpha[k])]
        todo -= component
        within = [
            (sum(c.values()), root)
            for root in positive_roots(kind, rank)
            for c in [coefficients(alpha, root)]
            if all(v >= 0 for v in c.values()) and {k for k, v in c.items() if v} <= component
        ]
        theta = max(within)[1]
        out.append(theta)
        out += highest_root_cascade(kind, rank, {k for k in component if not dot(alpha[k], theta)})
    return out


def kept_simple_roots(kind, rank, parts):
    """The simple roots a composition keeps: alpha_s is excluded at each
    prefix sum s, and in D a prefix sum rank - 1 excludes alpha_rank too."""
    excluded, s = set(), 0
    for p in parts:
        s += p
        excluded.add(s)
        if kind == "D" and s == rank - 1:
            excluded.add(rank)
    return set(simple_roots(kind, rank)) - excluded


def compositions_up_to(rank):
    return [Composition(())] + [c for t in range(1, rank + 1) for c in enumerate_compositions(t)]


@pytest.mark.parametrize("kind", ["B", "C", "D"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_the_closed_form_cascade_is_the_highest_root_cascade(kind, rank):
    comps = compositions_up_to(rank)
    generic = {c.parts: highest_root_cascade(kind, rank, kept_simple_roots(kind, rank, c.parts)) for c in comps}
    for parts, cascade in generic.items():
        assert sorted(_cascade(kind, rank, parts)) == sorted(cascade), parts
    # and so the formula is the generic cascade's, the bottom reversed
    family, n = ("SP", rank) if kind == "C" else ("SO", 2 * rank + (kind == "B"))
    assert _root_system(family, n) == (kind, rank)
    for a in comps:
        for b in comps:
            rows = generic[a.parts] + generic[b.parts[::-1]]
            assert index_formula(family, n, a, b) == rank + len(rows) - 2 * rank_int_rows(rows)


# -- every family against randomized Kirillov trials ---------------------------


# the least rank of each family's ambient
LEAST = {"GL": 1, "SL": 2, "SP": 1, "SO": 2}


@pytest.mark.slow
@pytest.mark.parametrize("family,n", [(f, n) for f, top in sorted(LIMITS.items()) for n in range(LEAST[f], top + 1)])
def test_a_trial_stopped_at_the_formula_reaches_it(family, n):
    # a trial's kernel dimension is an upper bound on the index; one that
    # equals the formula, a lower bound, proves both
    for ordinal, (a, b) in enumerate(composition_pairs(family, n)):
        g = seaweed(family, n, a, b)
        value = index_formula(family, n, a, b)
        assert index(g, ordinal, 3, 10**6, floor=value).index == value, (a, b)


def test_the_formula_takes_one_name_per_family_and_refuses_what_no_seaweed_is():
    a, b = Composition((1, 2)), Composition((3, 1))
    assert index_formula("SP", 4, a, b) == 1
    for family in ("XX", "sp"):
        with pytest.raises(ValueError, match="unknown family"):
            index_formula(family, 4, a, b)
    with pytest.raises(ValueError, match="at most 3"):
        index_formula("SP", 3, a, b)
