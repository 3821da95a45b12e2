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

This is a certificate API, not part of the degree path: the splitting
recursion in `core` already returns 0 on every such input, and
`surplus_violated` names the sub-collection that explains the zero.
"""

from __future__ import annotations

from itertools import combinations

from .instance import as_instance, bits_of, compact_aligned

__all__ = ["find_violation", "surplus_violated"]


def _kuhn(adj: list[int], m: int) -> tuple[int, ...] | None:
    """Match each quad to a distinct label bit from its adjacency mask.

    Returns None if every quad is matched; otherwise the indices of an
    unsaturatable quad set (the alternating-path closure of the failure).
    """
    owner = [-1] * m  # label bit -> quad index

    def augment(j: int, visited: list[bool]) -> bool:
        for b in bits_of(adj[j]):
            if visited[b]:
                continue
            visited[b] = True
            if owner[b] < 0 or augment(owner[b], visited):
                owner[b] = j
                return True
        return False

    for j in range(len(adj)):
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
    k = len(masks)
    if k == 0:
        return None

    # cheap pre-scans: duplicate quads, and triples spanning <= 5 labels
    for i in range(k - 1):
        if masks[i] == masks[i + 1]:
            return (i, i + 1)
    for i, j, l in combinations(range(k), 3):
        if (masks[i] | masks[j] | masks[l]).bit_count() <= 5:
            return (i, j, l)

    seen = set()
    for j in range(k):
        for r3 in combinations(bits_of(masks[j]), 3):
            r_mask = sum(1 << b for b in r3)
            if r_mask in seen:
                continue
            seen.add(r_mask)
            adj = [q & ~r_mask for q in masks]
            bad = _kuhn(adj, m)
            if bad is not None:
                return bad
    return None


def surplus_violated(inst) -> tuple[int, ...] | None:
    """Indices (into inst.quads) of a vanishing certificate, or None."""
    m, masks, _ = compact_aligned(as_instance(inst))
    return find_violation(m, masks)
