"""Meander graphs: the combinatorial index oracle for type-A seaweeds.

Vertices 1..n sit on a line; each part of the top composition contributes
arcs above the line pairing its positions symmetrically first-to-last, and
the bottom composition does the same below the line.  Every vertex meets at
most one top and one bottom arc, so components are simple paths (isolated
vertices included) or cycles, and the classical census formula gives the
seaweed index: 2*(#cycles) + (#paths) in gl(n), one less in sl(n).
``index_floor`` gives the classifier's index trials a lower bound to stop
at in every family: this exact index for GL/SL, the dimension's parity for
SP/SO.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import Composition


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
    top = {}
    bottom = {}
    for u, v in m.top_edges:
        top[u], top[v] = v, u
    for u, v in m.bottom_edges:
        bottom[u], bottom[v] = v, u
    seen = set()
    cycles = paths = 0
    for start in range(1, m.n + 1):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for nbr in (top.get(x), bottom.get(x)):
                if nbr is not None and nbr not in component:
                    component.add(nbr)
                    frontier.append(nbr)
        seen |= component
        if all(v in top and v in bottom for v in component):
            cycles += 1
        else:
            paths += 1
    return cycles, paths


def meander_index(m: MeanderGraph, family: str = "GL") -> int:
    """Seaweed index from the meander census: 2C + P for gl, 2C + P - 1 for sl."""
    family = family.upper()
    if family not in ("GL", "SL"):
        raise ValueError("meander index formula applies to GL and SL only")
    cycles, paths = census(m)
    value = 2 * cycles + paths
    return value - 1 if family == "SL" else value


def index_floor(family: str, a: Composition, b: Composition, dim: int) -> int:
    """A lower bound on the index of the seaweed of ``family`` on (a, b),
    of dimension ``dim``, that one randomized trial can reach: the meander
    index for GL and SL, which is exact, and ``dim % 2`` for SP and SO (a
    Kirillov matrix is skew, so its rank is even and index = dim mod 2)."""
    if family in ("GL", "SL"):
        return meander_index(meander(a, b), family)
    return dim % 2


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
