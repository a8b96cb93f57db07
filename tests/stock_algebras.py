"""Small stock algebras the tests build: the Heisenberg algebra and the
abelian algebras, each with a matrix realization of integer rows; and
``unit``, the coordinates of a basis element."""

from seaweeds import LieAlgebra


def heisenberg(label: str = "heisenberg") -> LieAlgebra:
    """3-dimensional Heisenberg algebra, [x, y] = z, realized inside gl(3)."""
    e12 = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    e23 = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    e13 = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    return LieAlgebra((e12, e23, e13), label=label)


def abelian(n: int, label: str = "") -> LieAlgebra:
    """Abelian algebra of dimension n, realized as diagonal matrices."""
    mats = [[[int(u == v == i) for v in range(n)] for u in range(n)] for i in range(n)]
    return LieAlgebra(mats, label=label or f"abelian({n})")


def unit(g: LieAlgebra, i: int) -> list:
    """The coordinates of the basis element x_i."""
    return [int(k == i) for k in range(g.dim)]
