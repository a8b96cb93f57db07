"""Small stock algebras the tests build: the Heisenberg algebra and the
abelian algebras, each with a matrix realization."""

from fractions import Fraction

from seaweeds import LieAlgebra, Matrix


def heisenberg(label: str = "heisenberg") -> LieAlgebra:
    """3-dimensional Heisenberg algebra, [x, y] = z, realized inside gl(3)."""
    e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    return LieAlgebra(3, {(0, 1): {2: 1}}, realization=(e12, e23, e13), label=label)


def abelian(n: int, label: str = "") -> LieAlgebra:
    """Abelian algebra of dimension n, realized as diagonal matrices."""
    mats = []
    for i in range(n):
        rows = [[Fraction(1) if (u == v == i) else Fraction(0) for v in range(n)] for u in range(n)]
        mats.append(Matrix(tuple(tuple(r) for r in rows)))
    return LieAlgebra(n, {}, realization=tuple(mats), label=label or f"abelian({n})")
