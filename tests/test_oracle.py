import cmath
import itertools
import json
import random

import numpy as np
import pytest

from oracles import (
    INFINITY,
    brute_all_triples_bound,
    brute_matching_bound,
    brute_vanishes,
    chart_points,
    cross_ratio,
    near_degenerate,
    random_problem,
)
from xratio import (
    CrossRatioProblem,
    Engine,
    PathBudgetError,
    Triangulation,
    build_system,
    closed_formula_degree,
    degree,
    enumerate_triangulations,
    inscribed_polygon_triangulation,
    matching_bound,
    numeric_degree,
    oracle,
    random_triangulation,
    solve_total_degree,
    triangulation_to_problem,
)
from xratio.cli import load_input
from xratio.oracle import (
    TRIALS,
    _near_degenerate,
    _predict,
    _solve,
    _start_eval,
    _target_eval,
    _verdict,
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


def test_matching_bound_chart_snowflake():
    bound, chart = matching_bound(SNOWFLAKE)
    inf, zero, one = chart
    assert len(set(chart)) == 3
    unknowns = [lab for lab in range(1, 7) if lab not in chart]
    pts = chart_points(6, chart, [4j, 5j, 6j])
    assert (pts[inf], pts[zero], pts[one], pts[unknowns[1]]) == (INFINITY, 0, 1, 5j)
    assert build_system(SNOWFLAKE, (2j for _ in SNOWFLAKE.quads)).chart == chart


def test_system_degrees_linear_fan():
    # both quads through the infinity label turn linear
    p = CrossRatioProblem(5, ({5, 1, 2, 3}, {5, 1, 3, 4}))
    system = build_system(p, [2 + 1j] * 2)
    assert system.nv == 2
    assert matching_bound(p)[0] == 1


def test_system_degrees_snowflake():
    system = build_system(SNOWFLAKE, [0.5 + 1j] * 3)
    assert system.nv == 3
    assert matching_bound(SNOWFLAKE)[0] == 2


def test_build_system_validates_targets():
    for values in ([1j] * 2, [1j] * 4):
        with pytest.raises(ValueError, match="one value per quad"):
            build_system(SNOWFLAKE, values)


def test_build_system_validates_chart():
    # a repeated label, label 0, label n+1, a non-int label, a bool, and
    # the old unknowns-list form, which built a non-square system
    for chart in ((1, 2, 2), (0, 2, 3), (1, 2, 7), (1, 2, 3.0), (1, True, 3),
                  (4, 5, 6, 7), (1, 2)):
        with pytest.raises(ValueError, match=r"^chart .* does not pin three distinct int"
                                             r" labels of 1\.\.6$") as err:
            build_system(SNOWFLAKE, [1j] * 3, chart)
        assert repr(chart) in str(err.value)
    assert build_system(SNOWFLAKE, [1j] * 3, [6, 1, 2]).nv == 3


def test_eval_jac_finite_difference():
    system = build_system(SNOWFLAKE, (0.7 + 0.2j, 1.3 - 0.4j, -0.8 + 1.1j))
    K, R, coef = (np.repeat(a[None], 10, axis=0) for a in (system.K, system.R, system.coef))
    rng = np.random.default_rng(5)
    z = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    F, jac = _target_eval(K, R, coef, z)
    h = 1e-7
    for j in range(3):
        dz = np.zeros(3, dtype=complex)
        dz[j] = h
        fd = (_target_eval(K, R, coef, z + dz)[0] - _target_eval(K, R, coef, z - dz)[0]) / (2 * h)
        assert np.allclose(jac[:, :, j], fd, atol=1e-5)
    # F_j = f_j2 f_j3 (cross-ratio - lam_j); the chart puts a label of
    # some quads at infinity, whose factors are the constant 1
    chart = system.chart
    assert any(chart[0] in q for q in SNOWFLAKE.quads)
    f = K + np.matmul(R, z[:, None, :, None])[..., 0]
    for p in range(10):
        pts = chart_points(6, chart, z[p])
        for j, (q, value) in enumerate(zip(SNOWFLAKE.quads, system.values)):
            want = f[p, j, 2] * f[p, j, 3] * (cross_ratio(*(pts[lab] for lab in sorted(q))) - value)
            assert abs(F[p, j] - want) < 1e-9 * max(1.0, abs(want))


def test_converged_endpoints_hit_targets():
    values = (0.9 + 0.6j, 1.4 - 0.3j, 0.5 + 1.2j)
    system = build_system(SNOWFLAKE, values)
    results = solve_total_degree([system], [11])
    assert all(type(r.status) is str for r in results)  # not a numpy string
    good = [r for r in results if r.status == "converged"]
    assert len(good) >= 2
    for r in good:
        pts = chart_points(6, system.chart, r.z)
        for q, v in zip(SNOWFLAKE.quads, values):
            got = cross_ratio(*(pts[lab] for lab in sorted(q)))
            assert abs(got - v) < 1e-7


def test_solve_deterministic(monkeypatch):
    system = build_system(SNOWFLAKE, [0.8 + 0.9j] * 3)
    r1 = solve_total_degree([system], [21])
    r2 = solve_total_degree([system], [21])
    monkeypatch.setattr("xratio.oracle.BATCH_BYTES", 1)  # one path per batch
    r3 = solve_total_degree([system], [21])
    for other in (r2, r3):
        assert [r.status for r in r1] == [r.status for r in other]
        for a, b in zip(r1, other):
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
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^unknown_limit must .* got {bad!r}$"):
            numeric_degree(SNOWFLAKE, unknown_limit=bad)


def test_path_budget_error():
    with pytest.raises(PathBudgetError):
        numeric_degree(SNOWFLAKE, path_cap=1)


def test_fiber_count_json():
    fc = numeric_degree(SNOWFLAKE, seed=1)
    obj = json.loads(json.dumps(fc.to_json()))
    assert obj["count"] == 2
    assert obj["inconclusive"] is False
    assert obj["trials"] == [2, 2, 2]


def test_matching_bound_equals_closed_formula():
    # the min-chart permanent of a triangulation is 2^(internal triangles)
    checked = 0
    for n in range(4, 10):
        for t in enumerate_triangulations(n):
            bound, _ = matching_bound(triangulation_to_problem(t))
            assert bound == closed_formula_degree(t), (n, t.diagonals)
            checked += 1
    assert checked == 624


def test_matching_bound_bounds_degree():
    rng = random.Random(17)
    vanishing = 0
    for i in range(300):
        p = random_problem(5 + i % 5, rng)
        bound, chart = matching_bound(p)
        assert (bound == 0) == brute_vanishes(p.quads), p.quads
        assert degree(p) <= bound, p.quads
        assert len(set(chart)) == 3 and set(chart) <= set(range(1, p.n + 1))
        vanishing += bound == 0
    assert 0 < vanishing < 300


def test_matching_bound_bounds_every_nonvanishing_class(exhaustive_runs):
    # every class exhaustive_cn scores for n <= 8, 405 of them at n = 8
    bare = Engine(shortcuts=False)
    for n, (res, recorded) in exhaustive_runs.items():
        assert len(recorded) == res.evaluations
        for p, d in recorded:
            assert 0 < d <= matching_bound(p)[0], p.quads
            assert d == bare.degree(p), p.quads
    assert len(exhaustive_runs[8][1]) == 405


def test_matching_bound_matches_brute_reference():
    # the exact bound and chart, tie rules included, against permutations;
    # the charts inside a quad are a subset of all pinned triples, so the
    # bound is never below the least over all of them, and 0 exactly when
    # that is
    rng = random.Random(31)
    for i in range(150):
        p = random_problem(5 + i % 5, rng)
        bound, chart = matching_bound(p)
        assert (bound, chart) == brute_matching_bound(p.n, p.quads), p.quads
        least = brute_all_triples_bound(p.n, p.quads)[0]
        assert bound >= least and (bound == 0) == (least == 0), p.quads
        assert matching_bound(p, cap=1)[0] == min(bound, 2), p.quads
    # a negative cap would read as a bound of 0, i.e. degree 0
    p = triangulation_to_problem(inscribed_polygon_triangulation(8))
    assert matching_bound(p)[0] == 4
    with pytest.raises(ValueError):
        matching_bound(p, cap=-1)
    with pytest.raises(ValueError):
        numeric_degree(p, path_cap=-1)
    # integer arguments are checked, not coerced: True is not 1
    for cap in (1.5, True):
        with pytest.raises(ValueError, match=f"^cap must .* got {cap!r}$"):
            matching_bound(p, cap=cap)
    for name, bad in (("path_cap", 2.5), ("path_cap", True),
                      ("seed", 1.5), ("seed", True), ("seed", -1)):
        with pytest.raises(ValueError, match=f"^{name} must .* got {bad!r}$"):
            numeric_degree(SNOWFLAKE, **{name: bad})


def test_matching_bound_inscribed_within_steps():
    # the quad charts of the inscribed 21-gon and 25-gon are counted within
    # MATCHING_STEPS; a scan of all C(n,3) triples needs 7.7M steps at n=21
    for n, bound in ((21, 256), (25, 1024)):
        p = triangulation_to_problem(inscribed_polygon_triangulation(n))
        assert matching_bound(p) == (bound, (1, 2, 3)), n


def test_paths_tracked_is_trials_times_bound():
    rng = random.Random(23)
    for n in (7, 8, 9):
        p = triangulation_to_problem(random_triangulation(n, rng.randrange(2**32)))
        bound, chart = matching_bound(p)
        fc = numeric_degree(p, seed=rng.randrange(2**31))
        assert fc.bound == bound
        assert fc.chart == chart
        assert fc.paths_tracked == TRIALS * bound
        assert fc.paths_diverged == 0
        assert not fc.inconclusive and fc.count == degree(p) == bound


def test_single_root_is_not_coincident():
    # bound 1: one path per trial, so endpoints cannot coincide
    quads = [[1, 2, 5, 9], [1, 3, 5, 6], [2, 3, 4, 5], [2, 3, 4, 9], [2, 4, 7, 9],
             [2, 5, 7, 8]]
    p = CrossRatioProblem(9, tuple(frozenset(q) for q in quads))
    fc = numeric_degree(p)
    assert not fc.inconclusive, fc.reasons
    assert fc.count == 1
    assert fc.paths_tracked == 3


def test_start_system_jac_finite_difference():
    rng = np.random.default_rng(8)
    M = rng.random((4, 5, 5)) < 0.5
    A = np.where(M, rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape), 0)
    z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    G, JG = _start_eval(A, M, z)
    assert np.allclose(G, np.where(M, z[:, None, :] - A, 1).prod(axis=2))
    h = 1e-7
    for i in range(5):
        dz = np.zeros(5, dtype=complex)
        dz[i] = h
        fd = (_start_eval(A, M, z + dz)[0] - _start_eval(A, M, z - dz)[0]) / (2 * h)
        assert np.allclose(JG[:, :, i], fd, atol=1e-5)
    # at a start root a vanishing factor keeps its derivative
    a = A[:1, :2, :2]
    root = np.array([[a[0, 0, 0], a[0, 1, 1]]])
    G, JG = _start_eval(a, np.ones((1, 2, 2), dtype=bool), root)
    assert np.allclose(G, 0)
    assert np.allclose(JG[0], [[root[0, 1] - a[0, 0, 1], 0], [0, root[0, 0] - a[0, 1, 0]]])


def test_batched_solve_isolates_singular_systems():
    H = np.array([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)], dtype=complex)
    b = np.ones((3, 2), dtype=complex)
    x, good = _solve(H, b)
    assert good.tolist() == [True, False, True]
    assert np.allclose(x[0], 1) and np.allclose(x[2], 0.5)


def test_predictor_is_fourth_order():
    # H = z^2 - (1 + 3t), tracked along the root z = sqrt(1 + 3t): the
    # one-step error of an order-p predictor shrinks 2^(p+1)-fold when dt
    # halves, about 32x for RK4 and 4x for Euler
    def slope(t, z):
        return _solve(2 * z[:, :, None], np.full_like(z, 3))

    t = np.array([0.2])
    z = np.sqrt(1 + 3 * t)[:, None].astype(complex)
    err = []
    for dt in (0.1, 0.05):
        z1, ok = _predict(slope, t, z, np.array([dt]))
        assert ok.all()
        err.append(abs(z1[0, 0] - np.sqrt(1 + 3 * (t[0] + dt))))
    assert err[1] > 0 and err[0] / err[1] >= 16, err


def test_13gon_step_ceiling(monkeypatch):
    # 24 paths over three trials; the tracker's cost is its step count
    calls = []
    solve = oracle.solve_total_degree

    def spy(systems, seeds):
        calls.append(solve(systems, seeds))
        return calls[-1]

    monkeypatch.setattr(oracle, "solve_total_degree", spy)
    fc = numeric_degree(load_input("triangulated_13gon.json"))
    assert fc.count == 8 and not fc.inconclusive
    (results,) = calls
    assert len(results) == 24
    assert sum(r.steps for r in results) <= 1500


def test_capped_path_stops_at_max_steps(monkeypatch):
    # no path of the inscribed 9-gon arrives within 3 steps of dt <= 0.1:
    # each stops after exactly MAX_STEPS steps and, stopped short of t = 1,
    # is judged failed
    p = triangulation_to_problem(inscribed_polygon_triangulation(9))
    calls = []
    solve = oracle.solve_total_degree

    def spy(systems, seeds):
        calls.append(solve(systems, seeds))
        return calls[-1]

    monkeypatch.setattr(oracle, "solve_total_degree", spy)
    for cap in (1, 3):
        monkeypatch.setattr(oracle, "MAX_STEPS", cap)
        calls.clear()
        numeric_degree(p)
        (results,) = calls
        assert len(results) == 12
        assert max(r.steps for r in results) <= cap
        assert {r.status for r in results} == {"failed"}


def test_near_degenerate_ignores_order():
    # a collision is judged relative to the larger point of the pair, so
    # w = v * (1 + 1.00005e-4) is within 1e-4 whichever of v, w comes first
    for v in (1000, 1e4j, -2e5 + 3e5j):
        near = (v, v * (1 + 1.00005e-4), 0.3 + 2j)
        apart = (v, v * (1 + 1.0002e-4), 0.3 + 2j)
        for z, want in ((near, True), (apart, False)):
            rows = np.array(list(itertools.permutations(z)))
            assert (_near_degenerate(rows, 1e-4) == want).all(), (z, want)
            assert not _near_degenerate(rows, 1e-8).any()


def test_near_degenerate_matches_scalar_reference():
    # random rows, and rows with one coordinate or pair placed 0.1 percent
    # inside or outside each relative bound; every row is compared with
    # the one-point-at-a-time reference
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(300):
        z = (rng.normal(size=5) + 1j * rng.normal(size=5)) * 10.0 ** rng.uniform(-2, 6, 5)
        rows.append(z.copy())
        for tol in (1e-4, 1e-8):
            for side in (1 - 1e-3, 1 + 1e-3):
                i, j = rng.choice(5, 2, replace=False)
                phase = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                y = z.copy()
                y[i] = rng.integers(2) + tol * side * phase  # next to 0 or 1
                rows.append(y)
                y = z.copy()
                if abs(z[i]) > 1:  # |v - w| against |w| = |v| (1 + s)
                    y[j] = z[i] * (1 + tol / (1 - tol) * side)
                else:  # against the floor 1
                    y[i] = 0.5 * z[i] / abs(z[i])
                    y[j] = y[i] + tol * side * phase
                rows.append(y)
    rows = np.array(rows)
    for tol in (1e-4, 1e-8):
        want = [near_degenerate(z, tol) for z in rows]
        assert _near_degenerate(rows, tol).tolist() == want
        assert 0.2 < np.mean(want) < 0.8
    assert not _near_degenerate(np.zeros((2, 0), dtype=complex), 1e-4).any()


def test_verdict_hand_built_endpoints():
    # the snowflake system whose targets are the cross-ratios at a random
    # chart point, which is then an exact root
    chart = matching_bound(SNOWFLAKE)[1]
    root = np.array(rand_points(random.Random(8), 3))
    pts = chart_points(6, chart, root)
    values = [cross_ratio(*(pts[lab] for lab in sorted(q))) for q in SNOWFLAKE.quads]
    system = build_system(SNOWFLAKE, values, chart)
    z = np.array([
        root,                                     # an exact root, arrived
        [0.5 + 0.5j, 0.5 + 0.50001j, 2 - 1j],     # stopped at a colliding pair
        [900, 900j, -800],                        # stopped: |z| = 1503, each |z_i| < 1e3
        [0.3 + 2j, -1.5 + 0.2j, 2.5 - 0.7j],      # stopped, small and apart
    ], dtype=complex)
    assert np.linalg.norm(z[2]) > 1.5e3 and np.abs(z[2]).max() < 1e3
    arrived = np.array([True, False, False, False])
    K, R, coef = (np.repeat(a[None], len(z), axis=0) for a in (system.K, system.R, system.coef))
    status, residual = _verdict(K, R, coef, z, arrived)
    assert status.tolist() == ["converged", "diverged", "diverged", "failed"]
    assert residual[0] < 1e-12 and np.isnan(residual[1:]).all()
    assert np.abs(z[0] - root).max() < 1e-12  # polishing keeps the root


def test_verdict_tiny_denominator_diverges():
    # one unknown and f_0 = f_1 = f_2 = f_3 = z - 2: the cleared equation
    # (1 - lam) (z - 2)^2 = 0 holds at its double root z = 2, which is no
    # non-configuration, but the ratio f_0 f_1 / (f_2 f_3) is 1, not lam.
    # Polishing halves the distance to the double root twelve times.
    lam = 0.7 + 0.4j
    K = np.full((1, 1, 4), -2, dtype=complex)
    R = np.ones((1, 1, 4, 1), dtype=complex)
    coef = np.array([[[1, 1, -lam, -lam]]])
    z = np.array([[2 + 1e-3]], dtype=complex)
    status, residual = _verdict(K, R, coef, z, np.array([True]))
    assert status.tolist() == ["diverged"]
    assert residual[0] < 1e-10 and 1e-8 < abs(z[0, 0] - 2) < 1e-6
