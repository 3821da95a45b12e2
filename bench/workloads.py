"""The benchmark's workloads: seeded inputs, timed rounds and checks.

Each workload builds its inputs in `setup`, runs whole rounds of
operations in `run_round` (appending one latency per operation), and
after the timed phase `check`s every round's outputs against values the
benchmark computes itself or takes from `tests/oracles.py`.  `check`
returns the failed operations of a round and, among them, those that
returned a wrong answer (the rest declined to give one).  The package is
reached only through its public names on the `xr` module object.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import combinations
from math import comb
from time import perf_counter

# seed of the input sets that must not vary between runs (see LargeExact
# and OracleCertify)
INPUT_SEED = 1729


def internal_triangles(diagonals) -> int:
    """Faces bounded by three diagonals, counted from the diagonals alone.

    In a convex polygon three pairwise-joined vertices of a triangulation
    always bound a face, so the internal faces are the triangles of the
    diagonal graph.
    """
    adj: dict[int, set[int]] = {}
    for u, v in diagonals:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sum(len(adj[u] & adj[v]) for u, v in diagonals) // 3


def _diagonal_bits(n: int) -> dict[tuple[int, int], int]:
    diags = [(u, v) for u, v in combinations(range(1, n + 1), 2)
             if v - u != 1 and not (u == 1 and v == n)]
    return {d: 1 << i for i, d in enumerate(diags)}


class SearchN10:
    """heuristic_cn(10) rounds, each with a fresh Engine and its own seed."""

    name = "search_n10"
    tail_pct = 99
    n = 10

    def __init__(self, tiny: bool = False):
        self.budget = 40 if tiny else 600
        self.sample = 4 if tiny else 12  # evaluations rechecked per round

    def setup(self, xr, oracles, seed: int):
        return {"xr": xr, "seed": seed}

    def run_round(self, st, r: int, lat: array):
        xr = st["xr"]
        rng = random.Random(f"{st['seed']}/{r}")
        keep = set(rng.sample(range(self.budget), self.sample))
        timed = _TimedEngine(xr.Engine(), lat, keep)
        res = xr.heuristic_cn(self.n, budget=self.budget,
                              seed=rng.randrange(2**32), engine=timed)
        return res, timed.kept, rng.randrange(2**32)

    def check(self, st, r: int, out, oracles) -> tuple[int, int]:
        res, kept, check_seed = out
        xr = st["xr"]
        rng = random.Random(check_seed)
        n = self.n
        labels = range(1, n + 1)
        failed = 0
        if not 2 ** (n // 2 - 2) <= res.best_degree <= 2 ** (n - 5):
            failed += 1
        items = [(w, res.best_degree) for w in res.witnesses] + kept
        for problem, d in items:
            perm = dict(zip(labels, rng.sample(labels, n)))
            moved = xr.CrossRatioProblem(
                n, tuple(frozenset(perm[x] for x in q) for q in problem.quads))
            ok = (oracles.split_degree(labels, problem.quads) == d
                  and oracles.brute_vanishes(problem.quads) == (d == 0)
                  and xr.Engine().degree(moved) == d)
            failed += not ok
        return failed, failed


class _TimedEngine:
    """Engine stand-in for heuristic_cn's engine= parameter: times each
    degree call and keeps the evaluations whose index is in `keep`."""

    def __init__(self, engine, lat: array, keep: set[int]):
        self.engine = engine
        self.lat = lat
        self.keep = keep
        self.kept: list = []
        self.calls = 0

    def degree(self, problem):
        t0 = perf_counter()
        d = self.engine.degree(problem)
        self.lat.append(perf_counter() - t0)
        if self.calls in self.keep:
            self.kept.append((problem, d))
        self.calls += 1
        return d


class TriangulationSweep:
    """Every triangulation for n = 3..nmax, one Engine per n, as the
    `verify` command runs it.  The sweep is exhaustive, so the seed does
    not change its inputs."""

    name = "triangulation_sweep"
    tail_pct = 99

    def __init__(self, tiny: bool = False):
        self.nmax = 7 if tiny else 11

    def setup(self, xr, oracles, seed: int):
        return {"xr": xr, "bits": {n: _diagonal_bits(n) for n in range(3, self.nmax + 1)}}

    def run_round(self, st, r: int, lat: array):
        xr = st["xr"]
        out = []
        for n in range(3, self.nmax + 1):
            bits = st["bits"][n]
            masks, degs, formula = array("Q"), array("q"), array("q")
            eng = xr.Engine()
            gen = xr.enumerate_triangulations(n)
            while True:
                t0 = perf_counter()
                tri = next(gen, None)
                if tri is None:
                    break
                d = eng.degree(xr.triangulation_to_problem(tri))
                c = xr.closed_formula_degree(tri)
                lat.append(perf_counter() - t0)
                masks.append(sum(bits[dg] for dg in tri.diagonals))
                degs.append(d)
                formula.append(c)
            out.append((n, masks, degs, formula))
        return out

    def check(self, st, r: int, out, oracles) -> tuple[int, int]:
        failed = 0
        for n, masks, degs, formula in out:
            diag_of = {b: d for d, b in st["bits"][n].items()}
            expected = comb(2 * (n - 2), n - 2) // (n - 1)  # Catalan(n-2)
            failed += max(0, expected - len(masks))  # each missing one fails
            seen = set()
            for mask, d, c in zip(masks, degs, formula):
                diags = [diag_of[1 << i] for i in range(mask.bit_length()) if mask >> i & 1]
                want = 2 ** internal_triangles(diags)
                ok = len(diags) == n - 3 and mask not in seen and d == want and c == want
                seen.add(mask)
                failed += not ok
        return failed, failed


class LargeExact:
    """degree with a cold Engine on one large triangulation at a time:
    the inscribed triangulation for n = 16..24 and one uniform random
    triangulation for each n = 20..40.

    The random triangulations come from INPUT_SEED, not from --seed:
    one of them costs 10 ms to 2 s depending on its symmetry, so a set
    drawn per seed made one round take 10 to 14 s and moved ops_per_s by
    40% between seeds.  --seed only shuffles the order of the calls.
    """

    name = "large_exact"
    tail_pct = 80

    def __init__(self, tiny: bool = False):
        self.inscribed = range(8, 11) if tiny else range(16, 25)
        self.random_n = range(8, 11) if tiny else range(20, 41)

    def setup(self, xr, oracles, seed: int):
        rng = random.Random(INPUT_SEED)
        tris = [(xr.inscribed_polygon_triangulation(n), True) for n in self.inscribed]
        tris += [(xr.random_triangulation(n, rng.randrange(2**32)), False)
                 for n in self.random_n]
        random.Random(seed).shuffle(tris)
        return {"xr": xr, "tris": tris,
                "problems": [xr.triangulation_to_problem(t) for t, _ in tris]}

    def run_round(self, st, r: int, lat: array):
        engine = st["xr"].Engine
        degs = array("q")
        for p in st["problems"]:
            t0 = perf_counter()
            d = engine().degree(p)
            lat.append(perf_counter() - t0)
            degs.append(d)
        return degs

    def check(self, st, r: int, degs, oracles) -> tuple[int, int]:
        failed = 0
        for (t, inscribed), d in zip(st["tris"], degs):
            ok = d == 2 ** internal_triangles(t.diagonals)
            if inscribed:
                ok = ok and d == 2 ** (t.n // 2 - 2)
            failed += not ok
        return failed, failed


class OracleCertify:
    """numeric_degree on random triangulations (n = 9..12) and general
    nonvanishing configurations (n = 8..10).

    The inputs come from INPUT_SEED, not from --seed: the cost of one
    call varies a hundredfold with its path count, and whether a general
    configuration comes out inconclusive depends on the input, so inputs
    drawn per seed would make both the spread and the failure share
    depend on the seed.  --seed only shuffles the order of the calls.
    """

    name = "oracle_certify"
    tail_pct = 75

    def __init__(self, tiny: bool = False):
        self.tri_n = (9,) if tiny else (9, 10, 11, 12)
        self.gen_n = (8,) if tiny else (8, 9, 10)
        self.per_n = 1 if tiny else 2

    def setup(self, xr, oracles, seed: int):
        rng = random.Random(INPUT_SEED)
        items = []
        for n in self.tri_n:
            for _ in range(self.per_n):
                t = xr.random_triangulation(n, rng.randrange(2**32))
                items.append((xr.triangulation_to_problem(t), t))
        for n in self.gen_n:
            found = 0
            while found < self.per_n:
                quads = tuple(frozenset(rng.sample(range(1, n + 1), 4))
                              for _ in range(n - 3))
                if oracles.brute_vanishes(quads):
                    continue
                items.append((xr.CrossRatioProblem(n, quads), None))
                found += 1
        random.Random(seed).shuffle(items)
        return {"xr": xr, "items": items}

    def run_round(self, st, r: int, lat: array):
        numeric_degree = st["xr"].numeric_degree
        out = []
        for p, _ in st["items"]:
            t0 = perf_counter()
            fc = numeric_degree(p, unknown_limit=9)
            lat.append(perf_counter() - t0)
            out.append((fc.count, fc.inconclusive, fc.reasons))
        return out

    def check(self, st, r: int, out, oracles) -> tuple[int, int]:
        failed = wrong = 0
        for (p, tri), (count, inconclusive, reasons) in zip(st["items"], out):
            if tri is not None:
                want = 2 ** internal_triangles(tri.diagonals)
            else:
                want = oracles.split_degree(range(1, p.n + 1), p.quads)
            if inconclusive or count != want:
                failed += 1
                wrong += not inconclusive
                if r == 0:
                    quads = [sorted(q) for q in p.quads]
                    print(f"oracle_certify: n={p.n} quads={quads} count={count} "
                          f"want={want} reasons={list(reasons)}", file=sys.stderr)
        return failed, wrong


WORKLOADS = {w.name: w for w in (SearchN10, TriangulationSweep, LargeExact, OracleCertify)}
