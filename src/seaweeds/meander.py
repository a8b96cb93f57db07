"""The index of a seaweed, by formula: meander graphs for type A and the
Kostant cascade for types B, C and D.

**The index rule.**  The index of every seaweed the package builds is
``index_formula``, a theorem, not a sample.  Tauvel and Yu (*Sur l'indice
de certaines algebres de Lie*, Ann. Inst. Fourier 2004) bound the index of
a seaweed q(pi1, pi2) of a simple g by

    rk g + |K(pi1)| + |K(pi2)| - 2 dim span(K(pi1) u K(pi2)),

K(pi) the Kostant cascade of strongly orthogonal roots of pi, and Joseph
(*On semi-invariants and index for biparabolics*) proved equality.  A
Kirillov form only bounds the index from above, so no number of draws can
prove a record is not of index one; the classifier draws forms only for an
index-one seaweed, to search it, and ``verify`` holds every record's index
to this formula.

**Type A (GL, SL).**  The meander census gives the same value
(Dergachev-Kirillov).  Vertices 1..n sit on a line; each part of the top
composition contributes arcs above the line pairing its positions
symmetrically first-to-last, and the bottom composition does the same
below the line.  Every vertex meets at most one top and one bottom arc, so
components are simple paths (isolated vertices included) or cycles, and
the index is 2*(#cycles) + (#paths) in gl(n), one less in sl(n).

**Types B, C, D (SO, SP).**  SP n is C_n, SO 2r+1 is B_r and SO 2r is D_r,
of rank n or r, with roots as integer vectors in the coordinates
epsilon_1..epsilon_r.  A composition excludes the simple roots alpha_s at
its prefix sums s (alpha_r the last one; in D a prefix sum r-1 excludes
alpha_{r-1} and alpha_r both).  What is left is one type-A block per part,
of size p starting at s, whose cascade is epsilon_{s+i} - epsilon_{s+p-1-i}
for i < p/2, and the tail of the m = r - t coordinates after the total t:
2 epsilon_j for each of them in C, epsilon_j +- epsilon_{j+1} on
consecutive pairs in B and D, and in B epsilon_r besides when m is odd (a
D tail of one coordinate has no roots).  The top composition enters as
given and the bottom reversed, which is where the construction's second
flag puts it.  Each cascade is built once per type, rank and composition
(``_cascade``); a pair costs one integer rank of at most 2r short rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .construct import Composition
from .linalg import rank_int_rows


class MeanderGraph(NamedTuple):
    n: int
    top_edges: tuple[tuple[int, int], ...]
    bottom_edges: tuple[tuple[int, int], ...]


def _arcs(comp: Composition) -> tuple[tuple[int, int], ...]:
    arcs = []
    start = 1
    for part in comp.parts:
        lo, hi = start, start + part - 1
        while lo < hi:
            arcs.append((lo, hi))
            lo += 1
            hi -= 1
        start += part
    return tuple(arcs)


def meander(a: Composition, b: Composition) -> MeanderGraph:
    """Meander of a composition pair; totals must agree and be at least 1,
    as for the seaweed the pair names."""
    if a.total != b.total:
        raise ValueError("composition totals differ")
    if a.total < 1:
        raise ValueError("rank must be at least 1")
    return MeanderGraph(a.total, _arcs(a), _arcs(b))


def census(m: MeanderGraph) -> tuple[int, int]:
    """(#cycles, #paths), counting isolated vertices as paths."""
    top, bottom, seen = [0] * (m.n + 1), [0] * (m.n + 1), [False] * (m.n + 1)
    for u, v in m.top_edges:
        top[u], top[v] = v, u
    for u, v in m.bottom_edges:
        bottom[u], bottom[v] = v, u
    cycles = paths = 0
    for start in range(1, m.n + 1):
        if seen[start]:
            continue
        seen[start] = closed = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for nbr in (top[x], bottom[x]):
                if not nbr:  # vertex 0 is no vertex: x ends a path
                    closed = False
                elif not seen[nbr]:
                    seen[nbr] = True
                    frontier.append(nbr)
        if closed:
            cycles += 1
        else:
            paths += 1
    return cycles, paths


def meander_index(m: MeanderGraph, family: str = "GL") -> int:
    """Seaweed index from the meander census: 2C + P for gl, 2C + P - 1 for sl."""
    if family not in ("GL", "SL"):
        raise ValueError("meander index formula applies to GL and SL only")
    cycles, paths = census(m)
    value = 2 * cycles + paths
    return value - 1 if family == "SL" else value


def _root_system(family: str, n: int) -> tuple[str, int]:
    """The type and rank of the SP/SO ambient of rank parameter ``n``."""
    if family == "SP":
        return "C", n
    return ("B" if n % 2 else "D"), n // 2


@lru_cache(maxsize=None)
def _cascade(kind: str, rank: int, parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Kostant cascade of the simple roots of type ``kind`` and rank
    ``rank`` that the composition ``parts`` keeps, as integer vectors in
    epsilon coordinates (see the module docstring)."""

    def root(*terms):
        v = [0] * rank
        for j, c in terms:
            v[j] += c
        return tuple(v)

    roots = []
    start = 0
    for p in parts:
        roots += [root((start + i, 1), (start + p - 1 - i, -1)) for i in range(p // 2)]
        start += p
    if kind == "C":
        roots += [root((j, 2)) for j in range(start, rank)]
    else:
        for j in range(start, rank - 1, 2):
            roots += [root((j, 1), (j + 1, 1)), root((j, 1), (j + 1, -1))]
        if kind == "B" and (rank - start) % 2:
            roots.append(root((rank - 1, 1)))
    return tuple(roots)


def index_formula(family: str, n: int, a: Composition, b: Composition) -> int:
    """The index of the seaweed ``construct.seaweed(family, n, a, b)``: the
    meander index for GL and SL, the Tauvel-Yu-Joseph cascade formula for
    SP and SO (see the module docstring).  Raises ValueError on an unknown
    family or an SP/SO composition beyond the rank."""
    if family in ("GL", "SL"):
        return meander_index(meander(a, b), family)
    if family not in ("SP", "SO"):
        raise ValueError(f"unknown family {family!r}")
    kind, rank = _root_system(family, n)
    if max(a.total, b.total) > rank:
        raise ValueError(f"{family} compositions must total at most {rank}")
    rows = _cascade(kind, rank, a.parts) + _cascade(kind, rank, b.parts[::-1])
    return rank + len(rows) - 2 * rank_int_rows(rows)


def meander_svg(m: MeanderGraph, unit: int = 40) -> str:
    """Deterministic SVG drawing: dots on a baseline, top arcs above,
    bottom arcs below."""
    pad = unit
    width = pad * 2 + unit * max(m.n - 1, 0)
    max_span = max([v - u for u, v in m.top_edges + m.bottom_edges], default=1)
    height = 2 * (pad + unit * max_span // 2) + 2 * pad
    base = height // 2

    def x(v):
        return pad + (v - 1) * unit

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{x(1)}" y1="{base}" x2="{x(m.n)}" y2="{base}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for (edges, sweep) in ((m.top_edges, 1), (m.bottom_edges, 0)):
        for u, v in edges:
            r = (x(v) - x(u)) / 2
            parts.append(
                f'<path d="M {x(u)} {base} A {r} {r} 0 0 {sweep} {x(v)} {base}" '
                'fill="none" stroke="#222222" stroke-width="2"/>'
            )
    for v in range(1, m.n + 1):
        parts.append(f'<circle cx="{x(v)}" cy="{base}" r="4" fill="#222222"/>')
        parts.append(
            f'<text x="{x(v)}" y="{base + 20}" font-size="12" '
            f'text-anchor="middle">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
