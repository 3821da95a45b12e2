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
from typing import Iterator

from .engine import CrossRatioProblem
from .engine.instance import _is_int

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


def _check_n(n, least: int = 3) -> None:
    if not _is_int(n) or n < least:
        raise ValueError(f"need an integer n >= {least}, got {n!r}")


def _norm_diagonal(n: int, d) -> Diagonal:
    ends = sorted(d)
    if len(ends) != 2:
        raise ValueError(f"diagonal {d!r} does not have 2 vertices")
    u, v = ends
    if u == v:
        raise ValueError(f"degenerate diagonal {d!r}")
    if not (_is_int(u) and _is_int(v) and 1 <= u < v <= n):
        raise ValueError(f"diagonal {d!r} out of range for n={n}")
    if v - u == 1 or (u == 1 and v == n):
        raise ValueError(f"{d!r} is a polygon side, not a diagonal")
    return (u, v)


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
        _check_n(self.n)
        diags = tuple(sorted(_norm_diagonal(self.n, d) for d in self.diagonals))
        if len(set(diags)) != len(diags):
            raise ValueError("repeated diagonal")
        if len(diags) != self.n - 3:
            raise ValueError(f"need {self.n - 3} diagonals, got {len(diags)}")
        # As intervals [u, v] on 1..n, diagonals cross iff they overlap
        # without nesting.  In (u, -v) order the stack holds the diagonals
        # enclosing u, each inside the one below, so only the top can cross.
        stack: list[Diagonal] = []
        for d in sorted(diags, key=lambda d: (d[0], -d[1])):
            u, v = d
            while stack and stack[-1][1] <= u:
                stack.pop()
            if stack and stack[-1][1] < v:
                raise ValueError(f"diagonals {stack[-1]} and {d} cross")
            stack.append(d)
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
    """The n-2 triangular faces, in lexicographic order of their vertices.

    In a convex polygon a vertex triple is a face iff all three of its
    connecting segments are sides or diagonals of the triangulation: any
    segment of the triple splits the polygon, and the other triangulation
    edges never cross it, so the triple bounds an empty triangle.  The
    faces are thus the triangles a < b < c of the edge graph: b a
    neighbour of a, and c a neighbour of both.
    """
    n = t.n
    adj = {v: {(v - 2) % n + 1, v % n + 1} for v in range(1, n + 1)}
    for u, v in t.diagonals:
        adj[u].add(v)
        adj[v].add(u)
    faces = []
    for a in range(1, n + 1):
        for b in sorted(adj[a]):
            if b < a:
                continue
            for c in sorted(adj[a] & adj[b]):
                if c < b:
                    continue
                # (a, c) skips b, so it is a side only as (1, n)
                ext = (b - a == 1) + (c - b == 1) + (a == 1 and c == n)
                faces.append(Triangle((a, b, c), ext))
    faces = tuple(faces)
    assert len(faces) == n - 2
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
    _check_n(n)
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
    _check_n(n)
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
    _check_n(n, 6)
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
