"""Vanishing test: a sub-collection with too few labels kills the degree.

If some nonempty sub-multiset U' of the quads touches fewer than |U'| + 3
labels, the configuration map cannot be dominant and the degree is 0.

Testing all 2^k sub-multisets is avoided by a matching reformulation:
a violating U' exists iff for some 3-set R of labels the bipartite graph
(quads vs labels outside R) has no matching saturating the quads.

  - If U' violates, pick R as any 3 labels of one quad S in U'.  Then U'
    has at most |U'| + 2 - 3 < |U'| neighbors outside R, so Hall fails.
    This also shows R may be restricted to 3-subsets of single quads.
  - If Hall fails for some R, the labels reachable from an unsaturated
    quad by alternating paths certify a set U' with at most |U'| - 1
    neighbors outside R, hence at most |U'| + 2 labels in total.

`quad_charts` lists those R and `hall_failure` is the package's one Hall
test; `oracle.matching_bound` scans the same charts (R pinned at inf, 0,
1) with it.

This is a certificate API, not part of the degree path: the splitting
recursion in `core` already returns 0 on every such input, and
`find_violation(*inst.compact())` names the sub-collection, by quad
indices, that explains the zero.  `search.exhaustive_cn` calls it to
prune its generation.
"""

from __future__ import annotations

from itertools import combinations

from .instance import bits_of

__all__ = ["find_violation", "hall_failure", "quad_charts"]


def quad_charts(masks) -> list[tuple[int, int, int]]:
    """The distinct 3-subsets of single quads, as bit triples in
    lexicographic order; with no quads, the one chart (0, 1, 2)."""
    if not masks:
        return [(0, 1, 2)]
    return sorted({r for q in masks for r in combinations(bits_of(q), 3)})


def hall_failure(m: int, masks, chart: tuple[int, int, int]) -> tuple[int, ...] | None:
    """Match each quad to a distinct one of its m labels outside chart.

    Returns None if every quad is matched; otherwise the indices of an
    unsaturatable quad set (the alternating-path closure of the failure).
    """
    pinned = sum(1 << b for b in chart)
    owner = [-1] * m  # label bit -> quad index

    def augment(j: int, visited: list[bool]) -> bool:
        for b in bits_of(masks[j] & ~pinned):
            if visited[b]:
                continue
            visited[b] = True
            if owner[b] < 0 or augment(owner[b], visited):
                owner[b] = j
                return True
        return False

    for j in range(len(masks)):
        visited = [False] * m
        if not augment(j, visited):
            bad = {j}
            for b in range(m):
                if visited[b]:
                    bad.add(owner[b])
            return tuple(sorted(bad))
    return None


def find_violation(m: int, masks: tuple[int, ...]) -> tuple[int, ...] | None:
    """Indices of a vanishing certificate U', or None if the test passes."""
    failures = (hall_failure(m, masks, chart) for chart in quad_charts(masks))
    return next((bad for bad in failures if bad is not None), None)
