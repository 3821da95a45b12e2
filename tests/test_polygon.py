import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import all_diagonals, brute_triangulations, catalan
from xratio import (
    Triangulation,
    closed_formula_degree,
    diagonal_to_quad,
    enumerate_triangulations,
    inscribed_polygon_triangulation,
    internal_triangle_count,
    random_triangulation,
    triangles_of,
    triangulation_to_problem,
)
from xratio.polygon import Triangle

GON13_DIAGONALS = ((1, 3), (1, 4), (1, 10), (1, 12), (4, 6), (4, 9),
                     (4, 10), (6, 8), (6, 9), (10, 12))
GON13_QUADS = [
    [1, 2, 3, 13], [1, 3, 4, 13], [1, 9, 10, 13], [1, 11, 12, 13],
    [3, 4, 5, 6], [3, 4, 8, 9], [3, 4, 9, 10], [5, 6, 7, 8],
    [5, 6, 8, 9], [9, 10, 11, 12],
]


def fan(n):
    return Triangulation(n, tuple((1, k) for k in range(3, n)))


def test_diagonal_to_quad_examples():
    assert diagonal_to_quad(6, (1, 3)) == frozenset({6, 1, 2, 3})
    assert diagonal_to_quad(6, (3, 5)) == frozenset({2, 3, 4, 5})
    assert diagonal_to_quad(6, (1, 5)) == frozenset({6, 1, 4, 5})
    assert diagonal_to_quad(13, (1, 5)) == frozenset({13, 1, 4, 5})
    # order of endpoints does not matter
    assert diagonal_to_quad(8, (6, 2)) == diagonal_to_quad(8, (2, 6))


def test_diagonal_to_quad_rejects_sides():
    with pytest.raises(ValueError):
        diagonal_to_quad(6, (2, 3))
    with pytest.raises(ValueError):
        diagonal_to_quad(6, (1, 6))
    with pytest.raises(ValueError):
        diagonal_to_quad(6, (0, 3))
    for d in ((), (3,), (1, 3, 5)):
        with pytest.raises(ValueError, match="does not have 2 vertices"):
            diagonal_to_quad(6, d)


def test_diagonal_to_quad_injective():
    # two diagonals of the square share the quad {1,2,3,4}; from n=5 on
    # the two adjacent side pairs of a quad determine the diagonal
    for n in range(5, 10):
        quads = {}
        for d in all_diagonals(n):
            q = diagonal_to_quad(n, d)
            assert q not in quads, (n, d, quads[q])
            quads[q] = d
    assert diagonal_to_quad(4, (1, 3)) == diagonal_to_quad(4, (2, 4))


def test_validation_accepts_exactly_the_noncrossing_sets():
    # brute_triangulations filters by the geometry of the inscribed polygon
    for n in range(4, 9):
        valid = brute_triangulations(n)
        for sub in combinations(all_diagonals(n), n - 3):
            if frozenset(sub) in valid:
                assert Triangulation(n, sub).diagonals == tuple(sorted(sub))
            else:
                with pytest.raises(ValueError, match="cross"):
                    Triangulation(n, sub)


def test_13gon_quads_golden():
    t = Triangulation(13, GON13_DIAGONALS)
    p = triangulation_to_problem(t)
    assert sorted(sorted(q) for q in p.quads) == sorted(GON13_QUADS)
    assert p.n == 13


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation(6, ((1, 3), (2, 4), (1, 4)))  # (1,3) crosses (2,4)
    with pytest.raises(ValueError):
        Triangulation(6, ((1, 3), (1, 4)))  # too few
    with pytest.raises(ValueError):
        Triangulation(6, ((1, 3), (1, 3), (1, 4)))  # repeat
    with pytest.raises(ValueError):
        Triangulation(6, ((1, 2), (1, 4), (1, 5)))  # side
    with pytest.raises(ValueError, match="degenerate"):
        Triangulation(6, ((3, 3), (1, 3), (1, 4)))
    with pytest.raises(ValueError, match="out of range"):
        Triangulation.from_json({"n": 6, "diagonals": [[True, 3], [3, 5], [1, 5]]})
    with pytest.raises(ValueError, match="out of range"):
        Triangulation(6, ((1.5, 3), (3, 5), (1, 5)))
    for n in (6.0, "6"):
        with pytest.raises(ValueError, match="integer n"):
            Triangulation(n, ((1, 3), (3, 5), (1, 5)))
    with pytest.raises(ValueError, match="integer n"):
        Triangulation.from_json({"n": "6", "diagonals": [[1, 3], [3, 5], [1, 5]]})
    for bad in ([1, 3, 5], [1], []):
        with pytest.raises(ValueError, match="does not have 2 vertices"):
            Triangulation.from_json({"n": 6, "diagonals": [bad, [3, 5], [1, 5]]})


def test_constructors_check_n():
    for n in (5.0, 2.0, True, "5", 2):
        with pytest.raises(ValueError, match="need an integer n >= 3"):
            list(enumerate_triangulations(n))
    for n in (6.5, 6.0, True, 2):
        with pytest.raises(ValueError, match="need an integer n >= 3"):
            random_triangulation(n, 1)
    for n in (7.0, "8", 5):
        with pytest.raises(ValueError, match="need an integer n >= 6"):
            inscribed_polygon_triangulation(n)


def test_triangulation_json_roundtrip():
    t = Triangulation(13, GON13_DIAGONALS)
    assert Triangulation.from_json(t.to_json()) == t


def test_triangles_of_13gon():
    t = Triangulation(13, GON13_DIAGONALS)
    faces = triangles_of(t)
    assert len(faces) == 11
    internal = sorted(f.vertices for f in faces if f.internal)
    assert internal == [(1, 4, 10), (1, 10, 12), (4, 6, 9)]
    assert sum(f.exterior_sides for f in faces) == 13


def triple_scan_faces(t):
    """Faces by testing every vertex triple: the direct reference."""
    edges = set(t.diagonals) | {(k, k + 1) for k in range(1, t.n)} | {(1, t.n)}

    def is_side(a, b):
        return b - a == 1 or (a == 1 and b == t.n)

    return tuple(
        Triangle((a, b, c), sum(is_side(*e) for e in ((a, b), (b, c), (a, c))))
        for a, b, c in combinations(range(1, t.n + 1), 3)
        if {(a, b), (b, c), (a, c)} <= edges
    )


def test_faces_match_triple_scan():
    for n in range(3, 10):
        for t in enumerate_triangulations(n):
            assert triangles_of(t) == triple_scan_faces(t), t


def test_triangle_face_counts():
    rng = random.Random(5)
    for n in range(4, 12):
        t = random_triangulation(n, rng.randrange(2**32))
        faces = triangles_of(t)
        assert len(faces) == n - 2
        assert sum(f.exterior_sides for f in faces) == n
        for f in faces:
            assert f.internal == (f.exterior_sides == 0)


def test_internal_triangle_counts():
    assert internal_triangle_count(Triangulation(6, ((1, 3), (3, 5), (1, 5)))) == 1
    assert internal_triangle_count(Triangulation(13, GON13_DIAGONALS)) == 3
    for n in range(4, 13):
        assert internal_triangle_count(fan(n)) == 0
        assert closed_formula_degree(fan(n)) == 1


def test_closed_formula_is_power_of_two():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(5, 13)
        t = random_triangulation(n, rng.randrange(2**32))
        assert closed_formula_degree(t) == 2 ** internal_triangle_count(t)


def test_rotation_preserves_internal_count():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(5, 12)
        t = random_triangulation(n, rng.randrange(2**32))
        k = rng.randrange(1, n)
        rot = lambda v: (v + k - 1) % n + 1
        t2 = Triangulation(n, tuple(tuple(sorted((rot(u), rot(v)))) for u, v in t.diagonals))
        assert internal_triangle_count(t2) == internal_triangle_count(t)


def test_enumerate_matches_brute_force():
    for n in range(3, 9):
        got = {frozenset(t.diagonals) for t in enumerate_triangulations(n)}
        assert got == brute_triangulations(n)
        assert len(got) == catalan(n - 2)


def test_enumeration_counts():
    for n, count in [(9, 429), (10, 1430)]:
        assert sum(1 for _ in enumerate_triangulations(n)) == count


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap 12"):
        list(enumerate_triangulations(13))


def test_random_triangulation_deterministic():
    for n in (5, 8, 11):
        assert random_triangulation(n, 77) == random_triangulation(n, 77)


def test_random_triangulation_covers_uniformly():
    n, samples = 6, 4200
    freq = Counter(random_triangulation(n, seed) for seed in range(samples))
    assert len(freq) == 14
    expect = samples / 14
    for t, c in freq.items():
        assert 0.5 * expect < c < 1.6 * expect, (t.diagonals, c)


def test_inscribed_construction():
    for n in range(6, 15):
        t = inscribed_polygon_triangulation(n)
        assert internal_triangle_count(t) == n // 2 - 2
        assert closed_formula_degree(t) == 2 ** (n // 2 - 2)
    assert inscribed_polygon_triangulation(6) == Triangulation(6, ((1, 3), (3, 5), (1, 5)))
    with pytest.raises(ValueError):
        inscribed_polygon_triangulation(5)


def test_inscribed_is_triangulation_maximum():
    # no triangulation of the n-gon has more internal triangles
    for n in range(5, 10):
        best = max(internal_triangle_count(t) for t in enumerate_triangulations(n))
        assert best == max(n // 2 - 2, 0)
