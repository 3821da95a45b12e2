"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Each test prints one PASS/FAIL line per check so a plain pytest -v run
reads as the acceptance report.  Budgets (seeds, evaluation counts, time
limits) are pinned here and documented in the README; a miss above the
hard guarantee fails loudly rather than being skipped.
"""

import random
import time

import pytest

from oracles import brute_vanishes, random_problem, split_degree_at
from xratio import (
    CrossRatioProblem,
    Engine,
    Triangulation,
    bound_report,
    contributing_trees,
    degree,
    enumerate_triangulations,
    heuristic_cn,
    internal_triangle_count,
    numeric_degree,
    triangulation_to_problem,
)
from xratio.engine.core import _find_double_cut, _find_three_cut
from xratio.engine.instance import side_form
from xratio.engine.surplus import find_violation

SEARCH_SEED = 1729
HEURISTIC_BUDGETS = {7: 3_000, 8: 5_000, 9: 10_000, 10: 20_000}
STRETCH_TARGETS = {7: 2, 8: 4, 9: 6, 10: 10}
HARD_GUARANTEE = {n: 2 ** (n // 2 - 2) for n in (7, 8, 9, 10)}

GON13_DIAGONALS = ((1, 3), (1, 4), (1, 10), (1, 12), (4, 6), (4, 9),
                    (4, 10), (6, 8), (6, 9), (10, 12))
GON13_QUADS = [
    [1, 2, 3, 13], [1, 3, 4, 13], [1, 9, 10, 13], [1, 11, 12, 13],
    [3, 4, 5, 6], [3, 4, 8, 9], [3, 4, 9, 10], [5, 6, 7, 8],
    [5, 6, 8, 9], [9, 10, 11, 12],
]
CATALAN_SWEEP = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430}


def check(name, cond, detail=""):
    tag = "PASS" if cond else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag}: {name}{suffix}")
    assert cond, f"{name}{suffix}"


@pytest.fixture(scope="module")
def stretch_results():
    out = {}
    for n, budget in HEURISTIC_BUDGETS.items():
        out[n] = heuristic_cn(n, budget=budget, seed=SEARCH_SEED)
    return out


def test_13gon_fixture_golden():
    t0 = time.perf_counter()
    tri = Triangulation(13, GON13_DIAGONALS)
    problem = triangulation_to_problem(tri)
    d = Engine().degree(problem)
    elapsed = time.perf_counter() - t0
    check("13-gon fixture produces the ten reference quads",
          sorted(sorted(q) for q in problem.quads) == sorted(GON13_QUADS))
    check("13-gon fixture degree is 8", d == 8, f"got {d}")
    check("13-gon fixture runtime under 1 s", elapsed < 1.0, f"{elapsed:.3f}s")


def test_triangulation_sweep():
    t0 = time.perf_counter()
    engine = Engine()
    counts = {}
    mismatches = 0
    for n in range(3, 11):
        counts[n] = 0
        for tri in enumerate_triangulations(n):
            counts[n] += 1
            got = engine.degree(triangulation_to_problem(tri))
            if got != 2 ** internal_triangle_count(tri):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    check("triangulation counts per n match the Catalan numbers",
          counts == CATALAN_SWEEP, f"{counts}")
    check("degree equals 2^(internal triangles) on all 2055 triangulations",
          mismatches == 0, f"{mismatches} mismatches")
    check("sweep runtime under 5 min", elapsed < 300, f"{elapsed:.1f}s")


def test_fan_degree_one():
    for n in range(4, 13):
        tri = Triangulation(n, tuple((1, k) for k in range(3, n)))
        d = degree(triangulation_to_problem(tri))
        check(f"fan triangulation n={n} has degree 1", d == 1, f"got {d}")


def test_exhaustive_table(exhaustive_results):
    values = {n: res.best_degree for n, res in exhaustive_results.items()}
    elapsed = sum(res.elapsed for res in exhaustive_results.values())
    check("exhaustive maxima for n=3..8 are 1, 1, 1, 2, 2, 4",
          values == {3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 4}, f"{values}")
    check("exhaustive runtime under 1 min", elapsed < 60, f"{elapsed:.1f}s")


def test_heuristic_lower_bounds(stretch_results):
    for n in (7, 8, 9, 10):
        res = stretch_results[n]
        check(
            f"heuristic n={n} meets the triangulation-seeded guarantee "
            f">= {HARD_GUARANTEE[n]}",
            res.best_degree >= HARD_GUARANTEE[n],
            f"got {res.best_degree} (seed {SEARCH_SEED}, "
            f"budget {HEURISTIC_BUDGETS[n]})",
        )
    for n in (7, 8, 9, 10):
        res = stretch_results[n]
        check(
            f"heuristic n={n} reaches the recorded value >= {STRETCH_TARGETS[n]}",
            res.best_degree >= STRETCH_TARGETS[n],
            f"got {res.best_degree} (seed {SEARCH_SEED}, "
            f"budget {HEURISTIC_BUDGETS[n]})",
        )


def test_bound_sandwich(exhaustive_results, stretch_results):
    outputs = ([exhaustive_results[n] for n in (6, 7, 8)]
               + [stretch_results[n] for n in (7, 8, 9, 10)])
    for res in outputs:
        rep = bound_report(res.n)
        check(
            f"search output n={res.n} sits in [{rep.lower}, {rep.upper}]",
            rep.lower <= res.best_degree <= rep.upper,
            f"best {res.best_degree}",
        )
        for w in res.witnesses:
            assert degree(w) == res.best_degree


def test_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    agreed = 0
    for i in range(20):
        n = (5, 6, 7)[i % 3]
        problem = random_problem(n, rng)
        fc = numeric_degree(problem, seed=rng.randrange(2**31))
        want = degree(problem)
        ok = (not fc.inconclusive) and fc.count == want
        if not ok:
            check(f"oracle agreement on random problem {i} (n={n})", ok,
                  f"numeric {fc.count} vs engine {want}, "
                  f"inconclusive={fc.inconclusive}")
        agreed += ok
    check("numeric count equals engine degree on 20 random problems",
          agreed == 20, f"{agreed}/20")

    vanishing = [
        CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 4, 5})),
        CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5})),
        CrossRatioProblem(7, ({1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5},
                              {3, 4, 6, 7})),
        CrossRatioProblem(7, ({1, 2, 3, 4}, {1, 2, 3, 4}, {2, 3, 4, 5},
                              {4, 5, 6, 7})),
        CrossRatioProblem(8, ({1, 2, 3, 4}, {1, 2, 3, 5}, {2, 3, 4, 5},
                              {5, 6, 7, 8}, {1, 6, 7, 8})),
    ]
    zeros = 0
    for i, problem in enumerate(vanishing):
        assert find_violation(*problem.compact()) is not None, i
        fc = numeric_degree(problem, seed=777 + i)
        zeros += (fc.count == 0 and not fc.inconclusive)
    check("numeric count is 0 on 5 label-deficient problems",
          zeros == 5, f"{zeros}/5")
    elapsed = time.perf_counter() - t0
    check("oracle agreement runtime under 2 min", elapsed < 120,
          f"{elapsed:.1f}s")


def side_degree_product(engine, problem, sides):
    """Product of the degrees of a finder's sides (quad indices, label mask)."""
    masks = problem.compact()[1]
    prod = 1
    for idx, labels in sides:
        prod *= engine.degree(CrossRatioProblem.from_masks(
            *side_form([masks[j] for j in idx], labels)))
    return prod


def test_recursion_properties():
    # split-choice independence, all (quad, pairing) pairs per instance
    rng = random.Random(31415)
    bad = 0
    for _ in range(50):
        n = rng.randrange(5, 8)
        problem = random_problem(n, rng)
        want = degree(problem)
        quads = [set(q) for q in problem.quads]
        for s1 in range(len(quads)):
            for pairing in range(3):
                got = split_degree_at(range(1, n + 1), quads, s1, pairing)
                bad += (got != want)
    check("recursion value is split-choice independent (50 instances, "
          "every quad and pairing)", bad == 0, f"{bad} deviations")

    bad = 0
    for _ in range(100):
        n = rng.randrange(5, 10)
        problem = random_problem(n, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relab = CrossRatioProblem(
            n, tuple(frozenset(perm[x - 1] for x in q) for q in problem.quads)
        )
        bad += (degree(relab) != degree(problem))
    check("degree is invariant under 100 random relabelings", bad == 0,
          f"{bad} deviations")

    bare = Engine(shortcuts=False)
    pent = CrossRatioProblem(5, ({5, 1, 2, 3}, {2, 3, 4, 5}))
    tc = _find_three_cut(*pent.compact())
    check("separating label triple factors the degree (integer equality)",
          tc is not None and tc[0] == 1
          and bare.degree(pent) == side_degree_product(bare, pent, tc[1]))

    snow = CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}, {1, 4, 5, 6}))
    _, sides = _find_double_cut(*snow.compact())
    prod = 2 * side_degree_product(bare, snow, sides)
    check("pairwise-two quad triple doubles the side product "
          "(integer equality)", bare.degree(snow) == prod,
          f"{bare.degree(snow)} vs {prod}")

    bad = 0
    for _ in range(60):
        n = rng.randrange(5, 8)
        problem = random_problem(n, rng)
        bad += (len(contributing_trees(problem)) != degree(problem))
    check("contributing tree count equals the degree (60 instances)",
          bad == 0, f"{bad} deviations")

    bad = 0
    for _ in range(200):
        n = rng.randrange(5, 9)
        problem = random_problem(n, rng)
        got = find_violation(*problem.compact()) is not None
        bad += (got != brute_vanishes(problem.quads))
    check("label-deficiency test agrees with subset enumeration "
          "(200 instances)", bad == 0, f"{bad} deviations")


def test_large_numeric_fiber_count():
    t0 = time.perf_counter()
    problem = triangulation_to_problem(Triangulation(13, GON13_DIAGONALS))
    fc = numeric_degree(problem, seed=20260818, unknown_limit=10,
                        path_cap=4096)
    elapsed = time.perf_counter() - t0
    check(
        "13-gon numeric fiber count is a conclusive 8 over 24 paths",
        fc.count == 8 and not fc.inconclusive and fc.paths_tracked == 24,
        f"count {fc.count}, inconclusive={fc.inconclusive}, "
        f"trials {list(fc.trial_counts)}, {fc.paths_tracked} paths",
    )
    check("13-gon numeric run under the 30 min budget", elapsed < 1800,
          f"{elapsed:.1f}s")
