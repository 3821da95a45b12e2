"""Trees underlying the splitting recursion.

Expanding the boundary recursion all the way down writes the degree as a
sum over trivalent marked trees: each internal edge of such a tree records
the quad split there together with the synthetic label pair created by
the split, each vertex carries the labels that survived to its 3-label
base instance, and every admissible split contributes the trees of its
two sides joined along the fresh edge.  Every tree contributes exactly 1,
so the number of trees equals the degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _partitions
from .instance import CrossRatioProblem, DegreeInstance, bits_of, label_key

__all__ = ["MarkedTree", "TreeEdge", "contributing_trees"]


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

    @property
    def vertex_count(self) -> int:
        return len(self.leaves)

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


def _splits_of(labels: frozenset, quads, s1):
    """Admissible (A1, A2) label splits at quad position s1."""
    order = sorted(labels, key=label_key)
    pos = {lab: i for i, lab in enumerate(order)}
    masks = [sum(1 << pos[x] for x in q) for _, q in quads]
    for a1, a2 in _partitions(len(order), masks, s1):
        yield (frozenset(order[i] for i in bits_of(a1)),
               frozenset(order[i] for i in bits_of(a2)))


def _side_quads(quads, s1, a, star):
    out = []
    for t, (idx, q) in enumerate(quads):
        if t == s1:
            continue
        inter = q & a
        if len(inter) < 3:
            continue
        out.append((idx, inter if len(inter) == 4 else inter | {star}))
    return tuple(out)


def _expand(labels: frozenset, quads, counter):
    # quads: tuple of (original index, current label set)
    if len(labels) == 3:
        return [(1, {0: sorted(labels, key=label_key)}, [])]
    s1 = min(range(len(quads)), key=lambda t: sorted(map(label_key, quads[t][1])))
    s1_idx = quads[s1][0]
    out = []
    for a1, a2 in _splits_of(labels, quads, s1):
        counter[0] += 1
        star, dag = f"*{counter[0]}", f"+{counter[0]}"
        sub1 = _expand(a1 | {star}, _side_quads(quads, s1, a1, star), counter)
        if not sub1:
            continue
        sub2 = _expand(a2 | {dag}, _side_quads(quads, s1, a2, dag), counter)
        for n1, leaves1, edges1 in sub1:
            for n2, leaves2, edges2 in sub2:
                leaves = {v: list(ls) for v, ls in leaves1.items()}
                for v, ls in leaves2.items():
                    leaves[v + n1] = list(ls)
                edges = list(edges1)
                edges += [(a + n1, b + n1, i, ma, mb) for a, b, i, ma, mb in edges2]
                va = next(v for v, ls in leaves.items() if star in ls)
                vb = next(v for v, ls in leaves.items() if dag in ls)
                leaves[va] = [x for x in leaves[va] if x != star]
                leaves[vb] = [x for x in leaves[vb] if x != dag]
                edges.append((va, vb, s1_idx, star, dag))
                out.append((n1 + n2, leaves, edges))
    return out


def contributing_trees(inst, max_labels: int = 9) -> tuple[MarkedTree, ...]:
    """All marked trees of the fully expanded recursion; len() is the degree.

    The expansion is exponential in the label count, hence the cap.
    """
    if isinstance(inst, CrossRatioProblem):
        inst = inst.instance()
    assert isinstance(inst, DegreeInstance)
    if len(inst.labels) > max_labels:
        raise ValueError(
            f"{len(inst.labels)} labels exceed the tree expansion cap {max_labels}"
        )
    quads = tuple((i, q) for i, q in enumerate(inst.quads))
    counter = [0]
    trees = []
    for _, leaves, edges in _expand(frozenset(inst.labels), quads, counter):
        # marks are unique per expansion step; renumber 1.. within each tree
        tedges = tuple(
            TreeEdge((a, b), i, tuple(sorted(inst.quads[i], key=label_key)),
                     (f"*{t + 1}", f"+{t + 1}"))
            for t, (a, b, i, _ma, _mb) in enumerate(edges)
        )
        tleaves = tuple(tuple(leaves[v]) for v in sorted(leaves))
        trees.append(MarkedTree(tleaves, tedges))
    return tuple(trees)
