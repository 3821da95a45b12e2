import fcntl
import json
import multiprocessing
import time

import pytest

from oracles import brute_maximum, reference_key, split_degree
from test_trees import check_tree_structure
from xratio import (
    CrossRatioProblem,
    Engine,
    bound_report,
    closed_formula_degree,
    contributing_trees,
    degree,
    exhaustive_cn,
    heuristic_cn,
    inscribed_polygon_triangulation,
    matching_bound,
    normalize,
    numeric_degree,
)
from xratio import oracle, search
from xratio.oracle import TRIALS
from xratio.search import (
    EXHAUSTIVE_CERTIFIED,
    RECORDS,
    ResultsFileError,
    SearchResult,
    append_result,
    load_results,
)


def test_bound_report_table():
    lowers = {3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 4, 10: 8,
              11: 8, 12: 16, 13: 16, 14: 32}
    uppers = {5: 1, 6: 2, 7: 4, 8: 8, 9: 16, 10: 32, 11: 64,
              12: 128, 13: 256, 14: 512}
    for n in range(3, 15):
        rep = bound_report(n)
        assert rep.lower == lowers[n]
        if n >= 5:
            assert rep.upper == uppers[n]
        assert rep.lower <= rep.upper
        if rep.record is not None:
            assert rep.lower <= rep.record <= rep.upper, n
        assert rep.exact == (n <= EXHAUSTIVE_CERTIFIED)


def test_bound_report_rejects_tiny_n():
    with pytest.raises(ValueError):
        bound_report(2)


def test_lower_bound_is_constructive():
    for n in range(6, 15):
        t = inscribed_polygon_triangulation(n)
        assert closed_formula_degree(t) == bound_report(n).lower


def test_records_match_exhaustive_range(exhaustive_results):
    for n in range(3, 9):
        assert RECORDS[n] == exhaustive_results[n].best_degree, n


# one witness per n, found by heuristic_cn(n, budget=1500, seed=1729)
RECORD_WITNESSES = {
    11: [[1, 2, 3, 6], [1, 2, 4, 5], [2, 3, 7, 8], [3, 8, 9, 10], [4, 5, 7, 9],
         [4, 5, 10, 11], [6, 7, 8, 11], [6, 9, 10, 11]],
    12: [[1, 2, 3, 12], [1, 4, 5, 12], [2, 3, 4, 8], [2, 3, 6, 9], [4, 6, 7, 11],
         [5, 7, 9, 10], [5, 9, 11, 12], [6, 7, 8, 10], [8, 10, 11, 12]],
    13: [[1, 2, 4, 6], [1, 2, 7, 10], [1, 3, 4, 5], [2, 3, 8, 11], [3, 7, 9, 12],
         [4, 7, 10, 13], [5, 6, 8, 9], [5, 8, 11, 13], [6, 11, 12, 13],
         [9, 10, 12, 13]],
    14: [[1, 2, 3, 4], [1, 2, 5, 8], [1, 3, 6, 7], [2, 5, 9, 13], [3, 7, 12, 13],
         [4, 5, 6, 14], [4, 9, 10, 11], [6, 7, 10, 14], [8, 9, 12, 14],
         [8, 11, 12, 13], [10, 11, 13, 14]],
}

# found by heuristic_cn(15, budget=300, seed=1729): degree 74, a lower
# bound for n=15 but not yet a record
WITNESS_15 = [[1, 2, 3, 4], [1, 2, 5, 12], [2, 3, 8, 15], [3, 4, 9, 13],
              [4, 11, 13, 15], [5, 6, 7, 12], [5, 12, 14, 15], [6, 7, 10, 14],
              [6, 7, 11, 13], [8, 9, 10, 14], [8, 9, 12, 15], [10, 11, 13, 14]]


def test_records_have_certified_witnesses():
    bare = Engine(shortcuts=False)
    for n, quads in RECORD_WITNESSES.items():
        assert split_degree(range(1, n + 1), quads) == RECORDS[n], n
        p = CrossRatioProblem(n, tuple(frozenset(q) for q in quads))
        assert bare.degree(p) == RECORDS[n], n
        assert bound_report(n).record == RECORDS[n], n


def test_record_witness_matching_bounds():
    # the least permanent over charts is the oracle's path count per trial
    for n, bound in {11: 16, 12: 24, 13: 36, 14: 60}.items():
        p = CrossRatioProblem(n, tuple(frozenset(q) for q in RECORD_WITNESSES[n]))
        assert matching_bound(p)[0] == bound, n


def test_record_witness_tree_counts():
    # a third method for the records: the contributing-tree expansion
    for n in range(11, 15):
        p = CrossRatioProblem(n, tuple(frozenset(q) for q in RECORD_WITNESSES[n]))
        trees = contributing_trees(p)
        assert len(trees) == RECORDS[n], n
        for t in trees:
            check_tree_structure(t, p)


def test_record_witnesses_numeric(monkeypatch):
    # a second method for the records; bound > degree, so in every trial
    # exactly bound - degree paths must be judged diverged, and the path
    # counts are a tally of the statuses the tracker returned
    calls = []
    solve = oracle.solve_total_degree

    def spy(systems, seeds):
        calls.append(solve(systems, seeds))
        return calls[-1]

    monkeypatch.setattr(oracle, "solve_total_degree", spy)
    for n, bound in {11: 16, 12: 24, 13: 36}.items():
        p = CrossRatioProblem(n, tuple(frozenset(q) for q in RECORD_WITNESSES[n]))
        fc = numeric_degree(p, unknown_limit=10)
        assert not fc.inconclusive, (n, fc.reasons)
        assert fc.count == RECORDS[n], n
        assert fc.bound == bound and fc.paths_tracked == TRIALS * bound, n
        assert fc.paths_diverged == TRIALS * (bound - RECORDS[n]), n
        statuses = [r.status for r in calls.pop()]
        assert (statuses.count("converged"), statuses.count("diverged"),
                statuses.count("failed"), len(statuses)) \
            == (fc.paths_converged, fc.paths_diverged, fc.paths_failed,
                fc.paths_tracked), n


def test_n15_witness_two_methods():
    # the engine, with and without shortcuts, and the numeric count agree
    p = CrossRatioProblem(15, tuple(frozenset(q) for q in WITNESS_15))
    assert Engine().degree(p) == 74
    assert Engine(shortcuts=False).degree(p) == 74
    assert matching_bound(p)[0] == 86
    fc = numeric_degree(p)
    assert not fc.inconclusive, fc.reasons
    assert fc.count == 74


def test_exhaustive_small():
    for n, best in [(3, 1), (4, 1), (5, 1), (6, 2)]:
        res = exhaustive_cn(n)
        assert res.best_degree == best
        assert res.certified
        assert res.mode == "exhaustive"
        assert res.witnesses
        for w in res.witnesses:
            assert degree(w) == best
            assert normalize(w) == w  # stored in canonical form


def test_exhaustive_cap():
    with pytest.raises(ValueError):
        exhaustive_cn(10)


def test_exhaustive_cap_is_the_certified_range(exhaustive_results, monkeypatch):
    for n, res in exhaustive_results.items():
        assert res.certified == bound_report(n).exact, n

    def refuse(*args):
        raise AssertionError("enumerated above the cap")

    monkeypatch.setattr(search, "find_violation", refuse)
    monkeypatch.setattr(search, "canonical_key", refuse)
    with pytest.raises(ValueError, match="exhaustive search covers"):
        exhaustive_cn(EXHAUSTIVE_CERTIFIED + 1)


def test_exhaustive_matches_brute_reference(exhaustive_results):
    for n in range(3, 7):
        classes, best, best_keys = brute_maximum(n)
        res = exhaustive_results[n]
        assert res.evaluations == classes, n
        assert res.best_degree == best, n
        assert {reference_key(n, w.quads) for w in res.witnesses} == best_keys, n


def test_exhaustive_golden_n7_n8(exhaustive_results):
    for n, classes, witnesses in [(7, 26, 5), (8, 405, 4)]:
        res = exhaustive_results[n]
        assert res.evaluations == classes, n
        assert res.best_degree == RECORDS[n], n
        assert len(res.witnesses) == witnesses, n
        assert len({reference_key(n, w.quads) for w in res.witnesses}) == witnesses
        for w in res.witnesses:
            assert split_degree(range(1, n + 1), w.quads) == RECORDS[n], n


def test_heuristic_deterministic():
    r1 = heuristic_cn(7, budget=300, seed=5)
    r2 = heuristic_cn(7, budget=300, seed=5)
    assert r1.best_degree == r2.best_degree
    assert r1.evaluations == r2.evaluations
    assert r1.witnesses == r2.witnesses


def test_heuristic_hard_floor():
    # the inscribed start alone guarantees the triangulation lower bound
    for n in (6, 7, 8, 9):
        res = heuristic_cn(n, budget=40, seed=1)
        assert res.best_degree >= bound_report(n).lower, n
        assert not res.certified
        for w in res.witnesses:
            assert degree(w) == res.best_degree


def test_heuristic_result_metadata():
    res = heuristic_cn(7, budget=250, seed=9)
    assert res.n == 7
    assert res.mode == "heuristic"
    assert res.seed == 9
    assert res.budget == 250
    assert res.evaluations <= 250
    assert res.elapsed >= 0


def test_heuristic_rejects_small_n():
    with pytest.raises(ValueError):
        heuristic_cn(5, budget=100, seed=1)


def test_non_integer_n_rejected():
    # the check the polygon constructors use: a float or bool n is a
    # ValueError, not a TypeError from deep inside, nor float bounds
    for call in (lambda: heuristic_cn(7.0, budget=10, seed=1),
                 lambda: exhaustive_cn(6.0),
                 lambda: bound_report(6.0),
                 lambda: bound_report(True)):
        with pytest.raises(ValueError, match="need an integer n >= 3"):
            call()
    # so is a budget or seed the results file would refuse to load
    for key, value in (("budget", 20.5), ("budget", True), ("seed", 1.5),
                       ("seed", False), ("seed", None)):
        with pytest.raises(ValueError, match=f"{key} must be"):
            heuristic_cn(7, **{"budget": 20, "seed": 1, key: value})


def test_results_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    assert load_results(path) == []
    a = exhaustive_cn(6)
    b = heuristic_cn(7, budget=200, seed=3)
    append_result(path, a)
    append_result(path, b)
    loaded = load_results(path)
    assert len(loaded) == 2
    for orig, back in zip((a, b), loaded):
        assert isinstance(back, SearchResult)
        assert back.n == orig.n
        assert back.mode == orig.mode
        assert back.best_degree == orig.best_degree
        assert back.witnesses == orig.witnesses
        assert back.seed == orig.seed
        assert back.budget == orig.budget
        assert back.certified == orig.certified


def test_results_file_torn_tail(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    a = exhaustive_cn(6)
    append_result(path, a)
    whole = open(path).read()
    with open(path, "a") as fh:
        fh.write(whole[:40])  # an append cut off mid-line
    assert [r.n for r in load_results(path)] == [6]
    append_result(path, a)  # the torn tail is cut off, not glued onto
    assert open(path).read() == whole + whole
    with open(path, "w") as fh:
        fh.write(whole.rstrip("\n"))  # a whole last record, unterminated
    append_result(path, a)
    assert open(path).read() == whole + whole


def test_append_waits_for_the_file_lock(tmp_path):
    # a torn tail is repaired under the lock, so an appender that read the
    # file before another's record landed cannot cut that record off
    path = tmp_path / "runs.jsonl"
    a = exhaustive_cn(6)
    append_result(str(path), a)
    whole = path.read_bytes()
    path.write_bytes(whole + whole[:40])  # an append cut off mid-line
    child = None
    with open(path, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        try:
            child = multiprocessing.get_context("spawn").Process(
                target=append_result, args=(str(path), a))
            child.start()
            time.sleep(0.5)
            assert path.read_bytes() == whole + whole[:40]
        finally:
            fcntl.flock(held, fcntl.LOCK_UN)
            if child is not None:
                child.join(timeout=30)
    assert not child.is_alive() and child.exitcode == 0
    assert [r.n for r in load_results(str(path))] == [6, 6]
    assert path.read_bytes() == whole + whole


def test_results_file_corrupt_middle_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_result(str(path), exhaustive_cn(6))
    whole = path.read_text()
    path.write_text(whole[:40] + "\n" + whole)
    with pytest.raises(ResultsFileError, match="line 1"):
        load_results(str(path))
    path.write_text(whole + '{"n": 6}\n')
    with pytest.raises(ResultsFileError, match="line 2"):
        load_results(str(path))
    # a field of the wrong type is an error, never coerced to a valid one
    good = json.loads(whole)
    for key, value in (("n", 6.9), ("n", True), ("best_degree", "7"),
                       ("evaluations", 2.0), ("certified", "false"),
                       ("certified", 1), ("seed", 1.5), ("budget", True),
                       ("elapsed", "1.5"), ("elapsed", True), ("mode", "random")):
        path.write_text(whole + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(ResultsFileError, match=f"line 2: bad record: .*{key}="):
            load_results(str(path))
