import json
import random
from collections import Counter

import pytest

from oracles import random_problem
from xratio import CrossRatioProblem, contributing_trees, degree
from xratio.engine.trees import TREE_LABEL_CAP

SNOWFLAKE = CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}, {1, 4, 5, 6}))


def check_tree_structure(tree, problem):
    """Structural invariants of one contributing tree."""
    n = problem.n
    v = len(tree.leaves)
    assert v == n - 2
    assert len(tree.edges) == n - 3
    # every vertex is trivalent: leaf labels plus incident edge ends
    incident = Counter()
    for e in tree.edges:
        a, b = e.ends
        assert 0 <= a < v and 0 <= b < v and a != b
        incident[a] += 1
        incident[b] += 1
    for vertex in range(v):
        assert len(tree.leaves[vertex]) + incident[vertex] == 3, tree
    # original labels appear exactly once as leaves
    flat = [x for ls in tree.leaves for x in ls]
    assert sorted(flat) == sorted(range(1, n + 1))
    # each quad is split exactly once; marks renumbered 1.. in edge order
    assert sorted(e.quad_index for e in tree.edges) == list(range(n - 3))
    assert [e.marks for e in tree.edges] == [
        (f"*{k}", f"+{k}") for k in range(1, n - 2)
    ]
    for e in tree.edges:
        assert tuple(sorted(e.quad)) == tuple(sorted(problem.quads[e.quad_index]))
    # edges form a connected tree
    seen = {0}
    frontier = [0]
    adj = {i: [] for i in range(v)}
    for e in tree.edges:
        adj[e.ends[0]].append(e.ends[1])
        adj[e.ends[1]].append(e.ends[0])
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == set(range(v))


def test_snowflake_has_two_trees():
    trees = contributing_trees(SNOWFLAKE)
    assert len(trees) == 2
    for t in trees:
        check_tree_structure(t, SNOWFLAKE)
    # the two trees differ in which pair of the split quad goes left
    keys = {tuple(sorted(map(tuple, t.leaves))) for t in trees}
    assert len(keys) == 2
    # both trees pinned as literals: leaves, and each edge's ends, quad
    # index and marks
    assert [(t.leaves, [(e.ends, e.quad_index, e.marks) for e in t.edges])
            for t in trees] == [
        (((1, 4), (2, 5), (), (3, 6)),
         [((1, 2), 2, ("*1", "+1")), ((0, 2), 1, ("*2", "+2")),
          ((2, 3), 0, ("*3", "+3"))]),
        (((1, 2), (3, 4), (5, 6), ()),
         [((2, 3), 1, ("*1", "+1")), ((1, 3), 2, ("*2", "+2")),
          ((0, 3), 0, ("*3", "+3"))]),
    ]
    assert [e.quad for e in trees[0].edges] == [(2, 3, 4, 5), (1, 4, 5, 6), (1, 2, 3, 6)]


def test_tree_count_equals_degree():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(5, 9)
        p = random_problem(n, rng)
        trees = contributing_trees(p)
        assert len(trees) == degree(p), p.quads
        for t in trees:
            check_tree_structure(t, p)


def test_vanishing_instance_has_no_trees():
    p = CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 4, 5}))
    assert contributing_trees(p) == ()


def test_expansion_cap():
    assert TREE_LABEL_CAP == 14
    rng = random.Random(3)
    with pytest.raises(ValueError, match="cap 14"):
        contributing_trees(random_problem(15, rng))
    p = random_problem(14, rng)
    assert len(contributing_trees(p)) == degree(p)


def test_tree_json_serializable():
    trees = contributing_trees(SNOWFLAKE)
    for t in trees:
        obj = json.loads(json.dumps(t.to_json()))
        assert obj["vertices"] == [0, 1, 2, 3]
        assert len(obj["edges"]) == 3
        assert all(len(e["quad"]) == 4 for e in obj["edges"])


def test_fan_single_tree():
    # degree one instances expand to exactly one caterpillar tree
    p = CrossRatioProblem(7, ({7, 1, 2, 3}, {7, 1, 3, 4}, {7, 1, 4, 5}, {7, 1, 5, 6}))
    trees = contributing_trees(p)
    assert len(trees) == 1
    check_tree_structure(trees[0], p)
