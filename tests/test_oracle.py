import cmath
import json
import random

import numpy as np
import pytest

from xratio import (
    INFINITY,
    CrossRatioProblem,
    PathBudgetError,
    Target,
    Triangulation,
    build_system,
    cross_ratio,
    default_chart,
    degree,
    inscribed_polygon_triangulation,
    numeric_degree,
    solve_total_degree,
    triangulation_to_problem,
)

SNOWFLAKE = CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}, {1, 4, 5, 6}))


def rand_points(rng, k=4):
    while True:
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(k)]
        if min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) > 1e-3:
            return pts


def test_cross_ratio_normalization():
    for x in (2.5, -1 + 2j, 0.3j, 7):
        assert abs(cross_ratio(INFINITY, 0, 1, x) - x) < 1e-12


def test_cross_ratio_infinity_limits():
    rng = random.Random(1)
    for _ in range(20):
        pts = rand_points(rng)
        big = 1e9 * cmath.exp(2j * cmath.pi * rng.random())
        for pos in range(4):
            with_inf = list(pts)
            with_inf[pos] = INFINITY
            with_big = list(pts)
            with_big[pos] = big
            got = cross_ratio(*with_inf)
            want = cross_ratio(*with_big)
            assert abs(got - want) < 1e-6 * max(1, abs(want))


def test_cross_ratio_mobius_invariance():
    rng = random.Random(2)
    for _ in range(25):
        a, b, c, d = rand_points(rng)
        m = rand_points(rng)  # Mobius coefficients
        if abs(m[0] * m[3] - m[1] * m[2]) < 1e-3:
            continue
        mob = lambda z: (m[0] * z + m[1]) / (m[2] * z + m[3])
        lam = cross_ratio(a, b, c, d)
        lam2 = cross_ratio(mob(a), mob(b), mob(c), mob(d))
        assert abs(lam - lam2) < 1e-9 * max(1, abs(lam))


def test_cross_ratio_permutation_identities():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c, d = rand_points(rng)
        lam = cross_ratio(a, b, c, d)
        assert abs(cross_ratio(b, a, d, c) - lam) < 1e-10
        assert abs(cross_ratio(c, d, a, b) - lam) < 1e-10
        assert abs(cross_ratio(a, b, d, c) - 1 / lam) < 1e-10
        assert abs(cross_ratio(b, a, c, d) - 1 / lam) < 1e-10
        assert abs(cross_ratio(a, c, b, d) - (1 - lam)) < 1e-10


def test_default_chart_snowflake():
    chart = default_chart(SNOWFLAKE)
    assert chart.inf_label == 1
    assert chart.zero_label == 2
    assert chart.one_label == 3
    assert chart.unknowns == (4, 5, 6)
    z = np.array([4j, 5j, 6j])
    assert chart.position(1, z) == INFINITY
    assert chart.position(2, z) == 0
    assert chart.position(3, z) == 1
    assert chart.position(5, z) == 5j


def test_system_degrees_linear_fan():
    # both quads through the infinity label turn linear
    p = CrossRatioProblem(5, ({5, 1, 2, 3}, {5, 1, 3, 4}))
    targets = tuple(Target(tuple(sorted(q)), 2 + 1j) for q in p.quads)
    system = build_system(p, targets)
    assert system.degrees == (1, 1)
    assert system.bezout == 1


def test_system_degrees_snowflake():
    targets = tuple(Target(tuple(sorted(q)), 0.5 + 1j) for q in SNOWFLAKE.quads)
    system = build_system(SNOWFLAKE, targets)
    assert sorted(system.degrees) == [1, 1, 2]
    assert system.bezout == 2


def test_build_system_validates_targets():
    targets = (Target((1, 2, 3, 4), 1j),) * 3
    with pytest.raises(ValueError):
        build_system(SNOWFLAKE, targets)


def test_eval_jac_finite_difference():
    targets = tuple(
        Target(tuple(sorted(q)), v)
        for q, v in zip(SNOWFLAKE.quads, (0.7 + 0.2j, 1.3 - 0.4j, -0.8 + 1.1j))
    )
    system = build_system(SNOWFLAKE, targets)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        jac = system.jac(z)
        h = 1e-7
        for j in range(3):
            dz = np.zeros(3, dtype=complex)
            dz[j] = h
            fd = (system.eval(z + dz) - system.eval(z - dz)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-5)


def test_converged_endpoints_hit_targets():
    values = (0.9 + 0.6j, 1.4 - 0.3j, 0.5 + 1.2j)
    targets = tuple(
        Target(tuple(sorted(q)), v) for q, v in zip(SNOWFLAKE.quads, values)
    )
    system = build_system(SNOWFLAKE, targets)
    chart = system.chart
    results = solve_total_degree(system, seed=11)
    good = [r for r in results if r.status == "converged"]
    assert len(good) >= 2
    for r in good:
        pts = chart.points(6, r.z)
        for q, v in zip(SNOWFLAKE.quads, values):
            qq = tuple(sorted(q))
            got = cross_ratio(*(pts[lab] for lab in qq))
            assert abs(got - v) < 1e-7


def test_solve_deterministic():
    targets = tuple(Target(tuple(sorted(q)), 0.8 + 0.9j) for q in SNOWFLAKE.quads)
    system = build_system(SNOWFLAKE, targets)
    r1 = solve_total_degree(system, seed=21)
    r2 = solve_total_degree(system, seed=21)
    assert [r.status for r in r1] == [r.status for r in r2]
    for a, b in zip(r1, r2):
        if a.status == "converged":
            assert np.allclose(a.z, b.z)


def test_numeric_degree_snowflake():
    fc = numeric_degree(SNOWFLAKE, seed=1)
    assert fc.count == 2
    assert not fc.inconclusive
    assert fc.trial_counts == (2, 2, 2)
    assert fc.paths_failed == 0


def test_numeric_degree_matches_engine_small():
    rng = random.Random(9)
    checked = 0
    while checked < 6:
        n = rng.randrange(5, 7)
        quads = tuple(
            frozenset(rng.sample(range(1, n + 1), 4)) for _ in range(n - 3)
        )
        p = CrossRatioProblem(n, quads)
        fc = numeric_degree(p, seed=rng.randrange(2**31))
        assert not fc.inconclusive, (p.quads, fc)
        assert fc.count == degree(p), (p.quads, fc.count)
        checked += 1


def test_numeric_degree_vanishing():
    p = CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 4, 5}))
    fc = numeric_degree(p, seed=4)
    assert fc.count == 0
    assert not fc.inconclusive


def test_numeric_degree_inscribed_octagon():
    p = triangulation_to_problem(inscribed_polygon_triangulation(8))
    fc = numeric_degree(p, seed=6)
    assert fc.count == 4
    assert not fc.inconclusive


def test_unknown_limit_enforced():
    p = triangulation_to_problem(inscribed_polygon_triangulation(10))
    with pytest.raises(ValueError):
        numeric_degree(p, unknown_limit=6)


def test_path_budget_error():
    with pytest.raises(PathBudgetError):
        numeric_degree(SNOWFLAKE, path_cap=1)


def test_fiber_count_json():
    fc = numeric_degree(SNOWFLAKE, seed=1)
    obj = json.loads(json.dumps(fc.to_json()))
    assert obj["count"] == 2
    assert obj["inconclusive"] is False
    assert obj["trials"] == [2, 2, 2]
