"""Canonical form of a configuration up to relabeling.

Two configurations have the same degree whenever some bijection of their
label sets carries one multiset of quads to the other, so the memo cache
and the search dedup both key on a canonical form: the lexicographically
least leaf encoding of an individualization-refinement search tree.

A node of the tree is a coloring of the labels by dense ranks, refined
in rounds to a fixed point: a round ranks labels by color, then by the
sorted signatures of their quads, -sum(5 ** (m - 1 - c)) over each quad's
label colors c.  A quad holds at most 4 labels of a color, so that sum is
its color multiset in base 5 and the signatures order quads exactly as
their sorted color tuples.  As color ranks first, a round re-ranks only
classes of 2 or more labels, and refinement stops at a discrete coloring.
If a class is still shared, each member of the first such class is
individualized in turn, giving one child each.  A leaf is a coloring
with all classes singletons, i.e. a relabeling, encoded as the sorted
relabeled quad masks.  Every step commutes with relabeling, so the least
leaf encoding is a complete isomorphism invariant.

On symmetric inputs the tree is exponential, but most of it repeats:
an automorphism of the configuration that fixes a node's individualized
labels maps the subtree of one child onto the subtree of another, with
the same leaf encodings.  The search finds such automorphisms and uses
them (McKay & Piperno, "Practical graph isomorphism II", 2014):

- Automorphism detection.  When a leaf's encoding equals that of the
  first leaf found below one of its ancestors, the label map between
  the two leaves is an automorphism.  It fixes every label
  individualized on the common part of their two paths, because an
  individualized label takes the same position in every leaf below it.
- Backjumping.  That automorphism carries the subtree on the first
  leaf's side of the node where the two paths part onto the subtree
  being explored, so the search returns straight to that node.
- Orbit pruning.  At every node, a child whose label lies in the orbit
  of an explored child's label, under the automorphisms found so far
  that fix the node's individualized labels, roots an image of that
  child's subtree and is skipped.
- Twin seeding.  Labels in exactly the same quads (twins) can never be
  split by refinement, and swapping two of them maps every quad to
  itself.  The search starts with one such transposition for each twin
  after the first of its class, so orbit pruning skips twin branches
  without finding those automorphisms at leaves.

A skipped subtree is the image of one explored before it, so it adds no
leaf encoding that has not been seen already.  The least encoding, and
the first leaf that realizes it, are therefore exactly those of the
exhaustive search: keys and relabelings are bit-identical to it.
"""

from __future__ import annotations

from .instance import bits_of

__all__ = ["canonical_key", "canonical_relabeling"]


def _encode(colors: list[int], quad_bits: list[list[int]]) -> tuple[int, ...]:
    # colors form a bijection label -> position once all classes are singletons
    return tuple(sorted(sum(1 << colors[b] for b in qb) for qb in quad_bits))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _Search:
    """One walk of the individualization-refinement tree of a configuration."""

    def __init__(self, m: int, masks: tuple[int, ...]):
        self.m = m
        self.quad_bits = [bits_of(q) for q in masks]
        self.quads_of: list[list[int]] = [[] for _ in range(m)]
        for j, qb in enumerate(self.quad_bits):
            for b in qb:
                self.quads_of[b].append(j)
        self.gens: list[list[int]] = []  # automorphisms found, as label maps
        first_twin: dict[tuple[int, ...], int] = {}
        for l, js in enumerate(self.quads_of):
            t = first_twin.setdefault(tuple(js), l)
            if t != l:
                swap = list(range(m))
                swap[t], swap[l] = l, t
                self.gens.append(swap)
        self.weight = [-5 ** (m - 1 - c) for c in range(m)]  # quad signature terms
        self.firsts: list = []  # per node on the current path: first leaf below it
        self.best: tuple | None = None  # least encoding so far, its leaf coloring

    def refine(self, colors: list[int]) -> tuple[list[int], list[int] | None]:
        """Refined dense coloring and its first tied class (None if discrete)."""
        m, w, quads_of = self.m, self.weight, self.quads_of
        classes: list[list[int]] = [[] for _ in range(max(colors, default=0) + 1)]
        for l, c in enumerate(colors):
            classes[c].append(l)
        while len(classes) < m:
            qsig = [w[colors[a]] + w[colors[b]] + w[colors[c]] + w[colors[d]]
                    for a, b, c, d in self.quad_bits]
            split: list[list[int]] = []
            for cls in classes:
                if len(cls) == 1:
                    split.append(cls)
                    continue
                parts: dict[tuple[int, ...], list[int]] = {}
                for l in cls:
                    sig = tuple(sorted([qsig[j] for j in quads_of[l]]))
                    parts.setdefault(sig, []).append(l)
                split += [parts[s] for s in sorted(parts)]
            if len(split) == len(classes):
                break
            classes, colors = split, [0] * m
            for c, cls in enumerate(classes):
                for l in cls:
                    colors[l] = c
        return colors, next((cls for cls in classes if len(cls) > 1), None)

    def node(self, colors: list[int], path: list[int]) -> int | None:
        """Search below a node; returns the depth to backjump to, or None."""
        m = self.m
        colors, tie = self.refine(colors)
        firsts = self.firsts
        if tie is None:
            enc = _encode(colors, self.quad_bits)
            if self.best is None or enc < self.best[0]:
                self.best = enc, colors
            for d, f in enumerate(firsts):
                if f is None:  # this is the first leaf below depth d
                    firsts[d:] = [(path, colors, enc)] * (len(firsts) - d)
                    break
                if f[2] == enc:
                    # an automorphism: the label at each position of leaf f
                    # maps to the label at that position here
                    at = [0] * m
                    for l, c in enumerate(colors):
                        at[c] = l
                    self.gens.append([at[c] for c in f[1]])
                    k = d
                    while path[k] == f[0][k]:
                        k += 1
                    return k
            return None
        depth, tc = len(path), colors[tie[0]]
        firsts.append(None)
        orbits = list(range(m))  # union-find under the gens fixing path
        used = 0
        explored: list[int] = []
        jump = None
        for l in tie:
            if explored:
                for g in self.gens[used:]:
                    if all(g[p] == p for p in path):
                        for x in range(m):
                            a, b = _find(orbits, x), _find(orbits, g[x])
                            if a != b:
                                orbits[max(a, b)] = min(a, b)
                used = len(self.gens)
                root = _find(orbits, l)
                if any(_find(orbits, e) == root for e in explored):
                    continue
            explored.append(l)
            # individualize l: give it a color just below the rest of its class
            jump = self.node([c + (c > tc or (c == tc and x != l))
                              for x, c in enumerate(colors)], path + [l])
            if jump is not None and jump < depth:
                break
            jump = None
        firsts.pop()
        return jump


def _canon(m: int, masks: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Least leaf encoding and the first leaf coloring that realizes it."""
    search = _Search(m, masks)
    search.node([0] * m, [])
    return search.best


def canonical_key(m: int, masks: tuple[int, ...]) -> tuple:
    """Relabeling-invariant key for a compact instance."""
    return (m, _canon(m, masks)[0])


def canonical_relabeling(m: int, masks: tuple[int, ...]) -> list[int]:
    """One relabeling (old index -> new index) realizing the canonical key."""
    return _canon(m, masks)[1]
