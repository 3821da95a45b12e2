"""Trees underlying the splitting recursion.

Expanding the boundary recursion all the way down writes the degree as a
sum over trivalent marked trees: each internal edge of such a tree records
the quad split there together with the synthetic label pair created by
the split, each vertex carries the labels that survived to its 3-label
base instance, and every admissible split contributes the trees of its
two sides joined along the fresh edge.  Every tree contributes exactly 1,
so the number of trees equals the degree.

The expansion runs on the bits of `compact()` and calls the engine's
partition enumerator on them directly: each split mints the next two
unused bits as its synthetic pair, so bit order stays label order, and
leaves become labels (bit + 1) only in the emitted `MarkedTree`.
`TreeEdge.marks` renumbers the pairs ("*t", "+t") in edge order within
each tree.

The expansion is exponential in the label count, so it stops at
`TREE_LABEL_CAP` labels, where the record witness (51 trees) takes 0.04 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _partitions
from .instance import bits_of

__all__ = ["MarkedTree", "TreeEdge", "contributing_trees", "TREE_LABEL_CAP"]

TREE_LABEL_CAP = 14


@dataclass(frozen=True)
class TreeEdge:
    ends: tuple[int, int]
    quad_index: int            # position in the instance's quad tuple
    quad: tuple                # the original quad's labels
    marks: tuple[str, str]     # synthetic pair, first mark on ends[0]


@dataclass(frozen=True)
class MarkedTree:
    """A trivalent tree: per-vertex leaf labels plus marked internal edges."""

    leaves: tuple[tuple, ...]          # vertex -> labels still attached there
    edges: tuple[TreeEdge, ...]

    def to_json(self) -> dict:
        return {
            "vertices": list(range(len(self.leaves))),
            "leaves": {str(v): list(ls) for v, ls in enumerate(self.leaves)},
            "edges": [
                {
                    "ends": list(e.ends),
                    "quad_index": e.quad_index,
                    "quad": list(e.quad),
                    "marks": list(e.marks),
                }
                for e in self.edges
            ],
        }


def _side_quads(quads, s1, a, star):
    out = []
    for t, (idx, q) in enumerate(quads):
        if t == s1:
            continue
        inter = q & a
        c = inter.bit_count()
        if c >= 3:
            out.append((idx, inter if c == 4 else inter | star))
    return tuple(out)


def _expand(labels: int, quads, counter):
    # labels: label mask; quads: tuple of (original index, quad mask);
    # counter[0] is the highest bit minted so far
    if labels.bit_count() == 3:
        return [(1, {0: bits_of(labels)}, [])]
    s1 = min(range(len(quads)), key=lambda t: bits_of(quads[t][1]))
    s1_idx = quads[s1][0]
    out = []
    for a1, a2 in _partitions(labels, [q for _, q in quads], s1):
        star, dag = counter[0] + 1, counter[0] + 2
        counter[0] = dag
        sub1 = _expand(a1 | 1 << star, _side_quads(quads, s1, a1, 1 << star), counter)
        if not sub1:
            continue
        sub2 = _expand(a2 | 1 << dag, _side_quads(quads, s1, a2, 1 << dag), counter)
        for n1, leaves1, edges1 in sub1:
            for n2, leaves2, edges2 in sub2:
                leaves = {v: list(ls) for v, ls in leaves1.items()}
                for v, ls in leaves2.items():
                    leaves[v + n1] = list(ls)
                edges = list(edges1)
                edges += [(a + n1, b + n1, i) for a, b, i in edges2]
                va = next(v for v, ls in leaves.items() if star in ls)
                vb = next(v for v, ls in leaves.items() if dag in ls)
                leaves[va] = [x for x in leaves[va] if x != star]
                leaves[vb] = [x for x in leaves[vb] if x != dag]
                edges.append((va, vb, s1_idx))
                out.append((n1 + n2, leaves, edges))
    return out


def contributing_trees(inst) -> tuple[MarkedTree, ...]:
    """All marked trees of the fully expanded recursion; len() is the degree.

    Raises ValueError above TREE_LABEL_CAP labels.
    """
    n, masks = inst.compact()
    if n > TREE_LABEL_CAP:
        raise ValueError(f"{n} labels exceed the tree expansion cap {TREE_LABEL_CAP}")
    trees = []
    for _, leaves, edges in _expand((1 << n) - 1, tuple(enumerate(masks)), [n - 1]):
        # marks are unique per expansion step; renumber 1.. within each tree
        tedges = tuple(
            TreeEdge((a, b), i, tuple(sorted(inst.quads[i])),
                     (f"*{t + 1}", f"+{t + 1}"))
            for t, (a, b, i) in enumerate(edges)
        )
        tleaves = tuple(tuple(b + 1 for b in leaves[v]) for v in sorted(leaves))
        trees.append(MarkedTree(tleaves, tedges))
    return tuple(trees)
