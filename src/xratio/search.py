"""Searching for the largest degree at a given label count.

Triangulations only realize powers of two (2 to the internal-triangle
count, at most 2**(floor(n/2) - 2) for an n-gon), but general
configurations beat them: the record values are not all powers of two.
This module provides an isomorph-free exhaustive search up to
EXHAUSTIVE_CERTIFIED labels (certified maxima), a budgeted hill-climbing
search for larger n (lower bounds only), and the bounds on every result.
"""

from __future__ import annotations

import fcntl
import json
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .engine import CrossRatioProblem, Engine, canonical_key, normalize
from .engine.core import DEGREE_LIMIT
from .engine.instance import _is_int
from .engine.surplus import find_violation
from .polygon import (
    _check_n,
    inscribed_polygon_triangulation,
    random_triangulation,
    triangulation_to_problem,
)

__all__ = [
    "SearchResult",
    "BoundReport",
    "RECORDS",
    "bound_report",
    "exhaustive_cn",
    "heuristic_cn",
    "ResultsFileError",
    "append_result",
    "load_results",
    "resume_result",
]

# Best degrees from recorded searches (exact up to EXHAUSTIVE_CERTIFIED,
# lower bounds beyond).  n = 11..14 are reached by
# heuristic_cn(n, budget=1500, seed=1729); tests/test_search.py keeps one
# witness of each.
RECORDS = {3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 6, 10: 10,
           11: 15, 12: 22, 13: 34, 14: 51}
EXHAUSTIVE_CERTIFIED = 9  # largest n exhaustive_cn covers, so RECORDS is exact up to it
WITNESS_CAP = 64
SIDEWAYS_CAP = 40  # equal-degree moves accepted in a row by heuristic_cn
STALL_CAP = 300    # rejected moves before heuristic_cn restarts a climb


@dataclass(frozen=True)
class BoundReport:
    """Sandwich for the maximal degree at n labels."""

    n: int
    lower: int           # met by an explicit triangulation
    upper: int
    record: int | None   # best recorded search value (lower bound on the max)
    exact: bool          # record certified by exhaustive search

    def to_json(self) -> dict:
        return {"n": self.n, "lower": self.lower, "upper": self.upper,
                "record": self.record, "exact": self.exact}


def bound_report(n: int) -> BoundReport:
    _check_n(n)
    if n <= 4:
        lower = upper = 1
    else:
        lower = 2 ** (n // 2 - 2)
        upper = 2 ** (n - 5)
    return BoundReport(n, lower, upper, RECORDS.get(n),
                       n <= EXHAUSTIVE_CERTIFIED)


def _check_args(n: int, mode: str, budget: int = 1) -> None:
    """ValueError on the arguments exhaustive_cn (mode "exhaustive") or
    heuristic_cn refuses."""
    _check_n(n)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_CERTIFIED:
            raise ValueError(f"exhaustive search covers n <= {EXHAUSTIVE_CERTIFIED}")
    else:
        if n < 6:
            raise ValueError("heuristic search needs n >= 6; below that use exhaustive_cn")
        # its first start, the inscribed triangulation, has degree
        # 2**(n//2 - 2), which must stay below DEGREE_LIMIT
        top = 2 * (DEGREE_LIMIT - 1).bit_length() + 3
        if n > top:
            raise ValueError(f"heuristic search needs n <= {top}: above that the "
                             f"inscribed triangulation's degree reaches {DEGREE_LIMIT}")
        if not _is_int(budget) or budget < 1:
            raise ValueError(f"budget must be a positive integer, got {budget!r}")


@dataclass(frozen=True)
class SearchResult:
    n: int
    mode: str                     # exhaustive | heuristic
    best_degree: int
    witnesses: tuple[CrossRatioProblem, ...]   # canonical forms
    evaluations: int
    elapsed: float
    seed: int | None
    budget: int | None
    certified: bool               # True when the whole space was covered

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "best_degree": self.best_degree,
            "witnesses": [[sorted(q) for q in w.quads] for w in self.witnesses],
            "evaluations": self.evaluations,
            "elapsed": round(self.elapsed, 3),
            "seed": self.seed,
            "budget": self.budget,
            "certified": self.certified,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchResult":
        """Inverse of to_json.  Fields are checked, never coerced: a
        record with a field of the wrong type or value is a ValueError."""
        bad = [key for key in ("n", "best_degree", "evaluations") if not _is_int(obj[key])]
        bad += [key for key in ("seed", "budget")
                if not (obj.get(key) is None or _is_int(obj[key]))]
        if not (_is_int(obj["elapsed"]) or isinstance(obj["elapsed"], float)):
            bad.append("elapsed")
        if not isinstance(obj["certified"], bool):
            bad.append("certified")
        if obj["mode"] not in ("exhaustive", "heuristic"):
            bad.append("mode")
        if bad:
            raise ValueError(", ".join(f"{key}={obj.get(key)!r}" for key in bad))
        return cls(
            n=obj["n"],
            mode=obj["mode"],
            best_degree=obj["best_degree"],
            witnesses=tuple(
                CrossRatioProblem(obj["n"], tuple(frozenset(q) for q in w))
                for w in obj["witnesses"]
            ),
            evaluations=obj["evaluations"],
            elapsed=float(obj["elapsed"]),
            seed=obj.get("seed"),
            budget=obj.get("budget"),
            certified=obj["certified"],
        )


class _Tracker:
    def __init__(self):
        self.best = -1
        self.witnesses: dict[CrossRatioProblem, None] = {}

    def record(self, problem: CrossRatioProblem, d: int):
        if d > self.best:
            self.best = d
            self.witnesses.clear()
        if d == self.best and len(self.witnesses) < WITNESS_CAP:
            self.witnesses.setdefault(normalize(problem))


def exhaustive_cn(n: int, engine: Engine | None = None) -> SearchResult:
    """Certified maximum over all classes of n-3 quads, n <= EXHAUSTIVE_CERTIFIED.

    Level j+1 extends each class representative of level j by every quad,
    drops children that `find_violation` finds label-deficient (repeated
    quads included), keeps one child per canonical key.  Extensions inherit
    deficiency, so the last level is exactly the nonvanishing classes,
    which `evaluations` counts.  n = 9 takes about 85 s.
    """
    _check_args(n, "exhaustive")
    eng = engine or Engine()
    t0 = time.perf_counter()
    all_quads = [sum(1 << b for b in c) for c in combinations(range(n), 4)]
    level = [()]
    for _ in range(n - 3):
        children = {}
        for child in (tuple(sorted(rep + (q,))) for rep in level for q in all_quads):
            if find_violation(n, child) is None:
                children.setdefault(canonical_key(n, child), child)
        level = list(children.values())
    tracker = _Tracker()
    for masks in level:
        problem = CrossRatioProblem.from_masks(n, masks)
        tracker.record(problem, eng.degree(problem))
    return SearchResult(
        n=n, mode="exhaustive", best_degree=tracker.best,
        witnesses=tuple(tracker.witnesses), evaluations=len(level),
        elapsed=time.perf_counter() - t0, seed=None, budget=None,
        certified=True,
    )


def _mutate(state: list, all_quads, rng: random.Random) -> list:
    # swap one quad; prefer replacements overlapping the rest in <= 2 labels
    k = len(state)
    i = rng.randrange(k)
    rest = state[:i] + state[i + 1:]
    best_q, best_score = None, 5
    for _ in range(12):
        q = all_quads[rng.randrange(len(all_quads))]
        if q == state[i] or q in rest:
            continue
        score = max((len(q & s) for s in rest), default=0)
        if score <= 2:
            best_q = q
            break
        if score < best_score:
            best_q, best_score = q, score
    if best_q is None:
        return state[:]
    out = state[:]
    out[i] = best_q
    return out


def heuristic_cn(n: int, budget: int = 200_000, seed: int = 1729,
                 engine: Engine | None = None) -> SearchResult:
    """Budgeted multi-restart hill climbing; result is a lower bound.

    Restart points alternate between triangulation-induced configurations
    (the inscribed construction first, so the triangulation lower bound
    2**(floor(n/2) - 2) always holds for n >= 6) and random quad sets.
    A move replaces one quad; equal-degree moves are accepted up to
    SIDEWAYS_CAP in a row, and a climb restarts after STALL_CAP rejected
    moves.  The budget counts engine evaluations.
    """
    _check_args(n, "heuristic", budget)
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    eng = engine or Engine()
    t0 = time.perf_counter()
    k = n - 3
    all_quads = [frozenset(c) for c in combinations(range(1, n + 1), 4)]
    tracker = _Tracker()
    evals = 0

    def evaluate(quads) -> int:
        nonlocal evals
        evals += 1
        problem = CrossRatioProblem(n, tuple(quads))
        d = eng.degree(problem)
        tracker.record(problem, d)
        return d

    def next_start(first: bool):
        if first:
            return list(triangulation_to_problem(inscribed_polygon_triangulation(n)).quads)
        if rng.random() < 0.4:
            t = random_triangulation(n, rng.randrange(2**32))
            return list(triangulation_to_problem(t).quads)
        return rng.sample(all_quads, k)

    first = True
    while evals < budget:
        state = next_start(first)
        first = False
        d = evaluate(state)
        sideways = stalls = 0
        while evals < budget and stalls < STALL_CAP:
            cand = _mutate(state, all_quads, rng)
            if cand == state:
                stalls += 1
                continue
            d2 = evaluate(cand)
            if d2 > d:
                state, d = cand, d2
                sideways = stalls = 0
            elif d2 == d and d2 > 0 and sideways < SIDEWAYS_CAP:
                state, d = cand, d2
                sideways += 1
            else:
                stalls += 1

    return SearchResult(
        n=n, mode="heuristic", best_degree=tracker.best,
        witnesses=tuple(tracker.witnesses), evaluations=evals,
        elapsed=time.perf_counter() - t0, seed=seed, budget=budget,
        certified=False,
    )


class ResultsFileError(ValueError):
    """A results file cannot be read, is not UTF-8, holds a record that is
    neither valid nor a torn tail, or holds a resumed record the search
    could not have written."""


def append_result(path: str, result: SearchResult) -> None:
    """Append one record as a whole line.

    A last line without its newline is left by an interrupted append: it
    is completed when it parses and cut off when it does not, so the new
    record always starts on a fresh line.  An exclusive lock on the file
    serializes concurrent appenders, so none truncates at an offset read
    before another's record was written.
    """
    record = (json.dumps(result.to_json()) + "\n").encode()
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
        fh.seek(0)
        data = fh.read()
        if data and not data.endswith(b"\n"):
            start = data.rfind(b"\n") + 1
            try:
                json.loads(data[start:])
                record = b"\n" + record
            except ValueError:
                fh.truncate(start)
        fh.write(record)


def _records(path: str):
    """(line number, record) for each record of a results file; a missing
    file has none.

    An unparseable last line is the torn tail of an interrupted append and
    is skipped.  Any other bad line, bytes that are not UTF-8, or a path
    that cannot be read (a directory, say) raise ResultsFileError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        return
    except (OSError, UnicodeDecodeError) as exc:
        raise ResultsFileError(f"{path}: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            if i == len(lines) - 1:
                break
            raise ResultsFileError(f"{path}: line {i + 1}: {exc}") from exc
        try:
            yield i + 1, SearchResult.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultsFileError(f"{path}: line {i + 1}: bad record: {exc}") from exc


def load_results(path: str) -> list[SearchResult]:
    """Records of a results file, read as `_records` reads them."""
    return [r for _, r in _records(path)]


def resume_result(path: str, n: int, mode: str, budget: int = 1) -> SearchResult | None:
    """The first record of a results file for n and mode, or None.

    The whole file is read first, so a bad file raises ResultsFileError
    even where the search refuses n, mode or budget, which then raises
    ValueError.  The record must be one the search could have written:
    certified exactly in exhaustive mode, best_degree within
    bound_report(n), and a first witness whose degree is best_degree;
    otherwise ResultsFileError names its line.
    """
    records = list(_records(path))
    _check_args(n, mode, budget)
    for line, r in records:
        if (r.n, r.mode) != (n, mode):
            continue
        b = bound_report(n)
        if not (r.certified == (mode == "exhaustive")
                and b.lower <= r.best_degree <= b.upper
                and r.witnesses
                and Engine().degree(r.witnesses[0]) == r.best_degree):
            raise ResultsFileError(
                f"{path}: line {line}: not a result of this search: "
                f"best_degree={r.best_degree}, certified={r.certified}, "
                f"{len(r.witnesses)} witnesses")
        return r
    return None
