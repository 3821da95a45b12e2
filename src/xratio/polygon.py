"""Convex polygon triangulations and the configurations they induce.

Vertices of the n-gon are labeled 1..n in cyclic order; side k joins
vertices k and k+1 (indices mod n, so side n joins n and 1).  A diagonal
{u, v} picks out the four sides adjacent to its endpoints, and the four
marked points sitting on those sides give the quadruple

    quad({u, v}) = {u-1, u, v-1, v}    (labels mod n, in 1..n)

whose cross-ratio is constrained when the diagonal is flattened.  A
triangulation (n-3 pairwise non-crossing diagonals) therefore induces a
configuration of n-3 quadruples, and its degree has a closed form:
2 to the number of internal triangles, where a triangle of the
triangulation is internal when none of its three sides is a polygon side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .engine import CrossRatioProblem

__all__ = [
    "Diagonal",
    "Triangle",
    "Triangulation",
    "diagonal_to_quad",
    "triangulation_to_problem",
    "triangles_of",
    "internal_triangle_count",
    "closed_formula_degree",
    "enumerate_triangulations",
    "random_triangulation",
    "inscribed_polygon_triangulation",
    "ENUMERATION_CAP",
]

Diagonal = tuple[int, int]
ENUMERATION_CAP = 12  # largest n enumerate_triangulations (and verify) covers


def _norm_diagonal(n: int, d) -> Diagonal:
    u, v = sorted(d)
    if u == v:
        raise ValueError(f"degenerate diagonal {d!r}")
    if not (all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v))
            and 1 <= u < v <= n):
        raise ValueError(f"diagonal {d!r} out of range for n={n}")
    if v - u == 1 or (u == 1 and v == n):
        raise ValueError(f"{d!r} is a polygon side, not a diagonal")
    return (u, v)


def diagonals_cross(n: int, d1: Diagonal, d2: Diagonal) -> bool:
    """True when the two diagonals cross in the open interior.

    {u,v} and {x,y} cross iff x and y separate u and v on the circle;
    sharing an endpoint does not count as crossing.
    """
    u, v = d1
    x, y = d2
    if {u, v} & {x, y}:
        return False

    def between(a, b, c):
        # c strictly inside the arc a -> b (counterclockwise)
        return (c - a) % n < (b - a) % n and c != a

    return between(u, v, x) != between(u, v, y)


@dataclass(frozen=True)
class Triangle:
    """A face of a triangulation: three vertices plus how many of its
    sides are polygon sides (0 means internal)."""

    vertices: tuple[int, int, int]
    exterior_sides: int

    @property
    def internal(self) -> bool:
        return self.exterior_sides == 0


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the convex n-gon by n-3 non-crossing diagonals."""

    n: int
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise ValueError(f"need an integer n >= 3, got {self.n!r}")
        diags = tuple(sorted(_norm_diagonal(self.n, d) for d in self.diagonals))
        if len(set(diags)) != len(diags):
            raise ValueError("repeated diagonal")
        if len(diags) != self.n - 3:
            raise ValueError(f"need {self.n - 3} diagonals, got {len(diags)}")
        for d1, d2 in combinations(diags, 2):
            if diagonals_cross(self.n, d1, d2):
                raise ValueError(f"diagonals {d1} and {d2} cross")
        object.__setattr__(self, "diagonals", diags)

    def to_json(self) -> dict:
        return {"n": self.n, "diagonals": [list(d) for d in self.diagonals]}

    @classmethod
    def from_json(cls, obj: dict) -> "Triangulation":
        return cls(obj["n"], tuple(tuple(d) for d in obj["diagonals"]))


def diagonal_to_quad(n: int, d) -> frozenset[int]:
    """Quadruple of side labels cut out by a diagonal: {u-1, u, v-1, v} mod n."""
    u, v = _norm_diagonal(n, d)
    wrap = lambda k: (k - 1) % n + 1
    q = frozenset({wrap(u - 1), u, wrap(v - 1), v})
    assert len(q) == 4  # endpoints non-adjacent, so the four sides are distinct
    return q


def triangulation_to_problem(t: Triangulation) -> CrossRatioProblem:
    """The induced configuration: one quadruple per diagonal."""
    return CrossRatioProblem(
        t.n, tuple(diagonal_to_quad(t.n, d) for d in t.diagonals)
    )


def triangles_of(t: Triangulation) -> tuple[Triangle, ...]:
    """The n-2 triangular faces.

    In a convex polygon a vertex triple is a face iff all three of its
    connecting segments are sides or diagonals of the triangulation: any
    segment of the triple splits the polygon, and the other triangulation
    edges never cross it, so the triple bounds an empty triangle.
    """
    edges = set(t.diagonals)
    for k in range(1, t.n):
        edges.add((k, k + 1))
    edges.add((1, t.n))

    def is_side(a, b):
        a, b = sorted((a, b))
        return b - a == 1 or (a == 1 and b == t.n)

    faces = []
    for a, b, c in combinations(range(1, t.n + 1), 3):
        if (a, b) in edges and (b, c) in edges and (a, c) in edges:
            ext = sum(1 for e in ((a, b), (b, c), (a, c)) if is_side(*e))
            faces.append(Triangle((a, b, c), ext))
    faces = tuple(faces)
    assert len(faces) == t.n - 2
    return faces


def internal_triangle_count(t: Triangulation) -> int:
    """Number of faces all of whose sides are diagonals."""
    return sum(1 for f in triangles_of(t) if f.internal)


def closed_formula_degree(t: Triangulation) -> int:
    """Degree of the induced configuration: 2 ** internal_triangle_count."""
    return 2 ** internal_triangle_count(t)


def enumerate_triangulations(n: int) -> Iterator[Triangulation]:
    """All triangulations of the n-gon, in a deterministic order.

    Recursive ear decomposition: the side (1, n) lies in a unique triangle
    (1, k, n), which splits the polygon into the sub-polygons on vertices
    1..k and k..n.  Yields Catalan(n-2) triangulations; n is capped at
    ENUMERATION_CAP.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")

    def rec(verts: tuple[int, ...]) -> Iterator[tuple[Diagonal, ...]]:
        # verts in convex position, in cyclic order
        if len(verts) < 3:
            yield ()
            return
        first, last = verts[0], verts[-1]
        for i in range(1, len(verts) - 1):
            k = verts[i]
            new = []
            if i > 1:
                new.append(tuple(sorted((first, k))))
            if i < len(verts) - 2:
                new.append(tuple(sorted((k, last))))
            for left in rec(verts[: i + 1]):
                for right in rec(verts[i:]):
                    yield tuple(new) + left + right

    for diags in rec(tuple(range(1, n + 1))):
        yield Triangulation(n, diags)


def random_triangulation(n: int, seed: int) -> Triangulation:
    """Uniformly random triangulation of the n-gon.

    Grows a uniform plane binary tree with n-1 leaves by leaf insertion
    (pick a uniform node, hang it and a fresh leaf under a new internal
    node, sides swapped by a coin flip), then reads the triangulation off
    the tree: leaves in left-to-right order are the polygon sides 1..n-1,
    and an internal node whose leaves span sides i..j is the diagonal
    {i, j+1}.  The root spans all of 1..n-1, which is the side (n, 1),
    so only non-root internal nodes contribute diagonals.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    leaves = n - 1

    children: list[tuple[int, int] | None] = [None]  # node 0 is a leaf
    root = 0
    parent = {0: -1}
    for _ in range(leaves - 1):
        x = rng.randrange(len(children))
        leaf = len(children)
        children.append(None)
        node = len(children)
        pair = (x, leaf) if rng.random() < 0.5 else (leaf, x)
        children.append(pair)
        p = parent[x]
        parent[node] = p
        parent[x] = node
        parent[leaf] = node
        if p == -1:
            root = node
        else:
            a, b = children[p]
            children[p] = (node, b) if a == x else (a, node)

    diagonals = []
    next_side = 1

    def span(v: int) -> tuple[int, int]:
        nonlocal next_side
        if children[v] is None:
            s = next_side
            next_side += 1
            return s, s
        a, b = children[v]
        lo, _ = span(a)
        _, hi = span(b)
        if v != root:
            diagonals.append((lo, hi + 1))
        return lo, hi

    span(root)
    return Triangulation(n, tuple(diagonals))


def inscribed_polygon_triangulation(n: int) -> Triangulation:
    """A triangulation meeting the inscribed-polygon lower bound.

    Joins every other vertex into an inscribed floor(n/2)-gon (odd n
    leaves one quadrilateral gap, closed by an extra chord) and fans the
    inscribed polygon from vertex 1.  All floor(n/2) - 2 faces of the fan
    are internal, so the degree is 2 ** (floor(n/2) - 2), the maximum a
    triangulation can reach at this n.
    """
    if n < 6:
        raise ValueError("need n >= 6")
    m = n // 2
    diags: list[Diagonal] = []
    if n % 2 == 0:
        for k in range(1, m + 1):
            diags.append(tuple(sorted((2 * k - 1, (2 * k + 1 - 1) % n + 1))))
    else:
        for k in range(1, m):
            diags.append((2 * k - 1, 2 * k + 1))
        diags.append((1, 2 * m - 1))
        diags.append((1, 2 * m))
    for k in range(2, m - 1):
        diags.append((1, 2 * k + 1))
    return Triangulation(n, tuple(diags))
