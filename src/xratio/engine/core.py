"""Exact degree computation by boundary splitting.

The degree of a configuration counts the points of a general fiber of the
product of cross-ratio maps.  It satisfies a recursion obtained by
degenerating the curve into two components: pick a quad S_1, put two of
its labels on one side (A_1) and two on the other (A_2), and sum over all
splits of the remaining labels for which no other quad straddles the cut
two-to-two.  Each admissible split contributes the product of the degrees
of the two side configurations, where a quad with three labels on a side
keeps those three plus a synthetic label marking the attachment point,
and a side is counted only when its quads exactly fill its label budget
(|U_1| = |A_1| - 2); all other splits contribute nothing.  The recursion
bottoms out at 3 or 4 labels, where the degree is 1, and its value does
not depend on the choice of S_1 or of the two-two split.

Three shortcuts prune the recursion, each a factorization identity.
Each finder returns None or (factor, sides), a side being a pair (quad
indices, label mask); the degree is then factor times the product of
the side degrees, and factor 0 marks a side that mismatches its budget.
Leaf stripping: a label in exactly one quad (a leaf) is cut off by the
quad's other three labels, a side of degree 1, so `_strip_leaves` drops
every leaf with its quad, repeatedly, and the other finders run only
on leafless configurations (a quad with two leaves leaves its second
leaf in no quad, a remainder of degree 0).
Double cut: three quads pairwise sharing two labels and covering six,
factor 2; an internal triangle of a triangulation is one.  Three-cut:
three labels C that separate the quads into groups on C|X and C|Y; its
C(m,3) triple scan runs last, so only configurations with no leaf and
no double cut (chains of glued blocks) pay for it.  A node uses the
first that fires, in that order, then the bare recursion;
`Engine(shortcuts=False)`, the bare recursion alone, is the reference
the tests check every identity against.

Only the bare recursion, a sum over splits, meets the same subproblem
many times, so the canonical key and the cache serve it and the root.
The root of each `Engine.degree` call and each side of a bare split are
keyed before the shortcuts; a side of a shortcut runs the finders
unkeyed and is keyed only when none fires, just before it branches.
A triangulation, which leaf stripping and the double cut reduce with
no branching, takes one key, at its root.

The recursion runs on `inst.compact()`; every side configuration, of a
split or of a shortcut, is built by `side_form`.

Zeros need no separate test: the recursion already returns 0 on every
configuration with a label-deficient sub-collection.
`find_violation(*inst.compact())` (in `surplus`) names such a
sub-collection; the degree path never calls it.  A cut is reported
only as its finder's (factor, sides); a side becomes a configuration by
`CrossRatioProblem.from_masks(*side_form(...))`.
"""

from __future__ import annotations

from itertools import combinations

from .canon import canonical_key
from .instance import CrossRatioProblem, bits_of, side_form

__all__ = [
    "Engine",
    "degree",
    "normalize",
    "default_engine",
]

DEGREE_LIMIT = 1 << 64  # degrees of supported instance sizes fit in uint64


def _checked(val):
    if val >= DEGREE_LIMIT:
        raise OverflowError(f"degree {val} exceeds the uint64 contract")
    return val


def _partitions(full, masks, s1):
    """Admissible splits for the recursion at quad s1 on the label mask full.

    Quad s1's two lowest labels seed side 1 and its two highest side 2.
    Yields (a1, a2) bitmask pairs.  A split is admissible when no other
    quad meets both sides in 2 or more labels and the quads with >= 3
    labels in a1 number exactly |a1| - 2 (then the same holds on side 2).
    Each node first propagates until nothing changes: a quad meeting both
    sides in 2 or more labels ends the branch, and a quad with 2 labels on
    one side, 1 on the other and one free label sends that label to the
    side holding 2.  It then branches on the lowest free label, side 1
    first, so the splits come in lexicographic order of the free labels'
    sides, lowest label first and side 1 before side 2.
    """
    b = bits_of(masks[s1])
    p1 = (1 << b[0]) | (1 << b[1])
    p2 = (1 << b[2]) | (1 << b[3])
    others = [q for j, q in enumerate(masks) if j != s1]

    def rec(a1, a2, free):
        forced = True
        while forced:
            forced = False
            for q in others:
                n1 = (q & a1).bit_count()
                n2 = (q & a2).bit_count()
                if n1 >= 2 and n2 >= 2:
                    return
                if n1 + n2 == 3 and n1 and n2 and q & free:
                    if n1 == 2:
                        a1 |= q & free
                    else:
                        a2 |= q & free
                    free &= ~q
                    forced = True
        if not free:
            if sum((q & a1).bit_count() >= 3 for q in others) == a1.bit_count() - 2:
                yield a1, a2
            return
        low = free & -free
        yield from rec(a1 | low, a2, free ^ low)
        yield from rec(a1, a2 | low, free ^ low)

    yield from rec(p1, p2, full & ~(p1 | p2))


def _side(m, masks, a):
    """Compact side a of a split at quad 0: the quads meeting a in 3 or
    more labels, a quad with 3 carrying the synthetic mark on bit m."""
    star = 1 << m
    out = []
    for q in masks[1:]:
        inter = q & a
        c = inter.bit_count()
        if c >= 3:
            out.append(inter if c == 4 else inter | star)
    return side_form(out, a | star)


def _strip_leaves(m, masks):
    """(1, ((kept quad indices, kept label mask),)), or None when no
    label lies in exactly one quad.

    Each pass drops, for every quad holding a label no other quad holds,
    the lowest such label and the quad, until no leaf is left or 4
    labels remain.  Every drop is a three-cut with a degree-1 side, so
    the remainder, which keeps quads = labels - 3, has the same degree.
    """
    keep = (1 << m) - 1
    idx = range(len(masks))
    while keep.bit_count() > 4:
        once = twice = 0
        for q in masks:
            twice |= once & q
            once |= q
        leaves = once & ~twice
        if not leaves:
            break
        rest_idx = []
        rest = []
        for j, q in zip(idx, masks):
            leaf = q & leaves
            if leaf and keep.bit_count() > 4:
                keep &= ~(leaf & -leaf)
            else:
                rest_idx.append(j)
                rest.append(q)
        idx, masks = rest_idx, rest
    if keep.bit_count() == m:
        return None
    return 1, ((idx, keep),)


def _find_three_cut(m, masks):
    """First 3-set of labels whose removal disconnects the quad supports.

    Returns (factor, ((x_idx, C|X), (y_idx, C|Y))) or None.  X is the
    component of the smallest remaining label, flood-filled over near[b],
    the labels sharing a quad with label b; the factor is 1, or 0 when
    the quad counts mismatch the side label budgets.
    """
    full = (1 << m) - 1
    near = [0] * m
    for q in masks:
        for b in bits_of(q):
            near[b] |= q
    for cbits in combinations(range(m), 3):
        c_mask = (1 << cbits[0]) | (1 << cbits[1]) | (1 << cbits[2])
        rem = full & ~c_mask
        x_mask = todo = rem & -rem
        while todo:
            low = todo & -todo
            todo ^= low
            new = near[low.bit_length() - 1] & rem & ~x_mask
            x_mask |= new
            todo |= new
        if x_mask == rem:
            continue
        y_mask = rem & ~x_mask
        x_idx = tuple(j for j, q in enumerate(masks) if q & rem & ~x_mask == 0)
        y_idx = tuple(j for j, q in enumerate(masks) if q & rem & x_mask == 0)
        fits = len(x_idx) == x_mask.bit_count() and len(y_idx) == y_mask.bit_count()
        return (1 if fits else 0), ((x_idx, c_mask | x_mask), (y_idx, c_mask | y_mask))
    return None


def _find_double_cut(m, masks):
    """First triple of quads covering 6 labels with pairwise overlap 2.

    The remaining labels split into groups, each group assignable to the
    side of one of the three quads; every other quad must land entirely on
    one side.  Allowed sides are 3-bit masks: a quad allows side s when it
    lies within tri[s]'s labels and the remaining labels, and a group the
    sides every quad meeting it allows.  A group goes to its lowest
    allowed side, and a quad to the lowest allowed side that holds its
    remaining labels.  Returns (factor, sides) or None: side s holds quad
    tri[s] first, then its assigned quads, on tri[s]'s labels and its
    groups; the factor is 2, or 0 on a side-budget mismatch.
    """
    full = (1 << m) - 1
    k = len(masks)
    for tri in combinations(range(k), 3):
        covers = [masks[t] for t in tri]
        qa, qb, qc = covers
        if (qa | qb | qc).bit_count() != 6:
            continue
        if ((qa & qb).bit_count() != 2 or (qb & qc).bit_count() != 2
                or (qa & qc).bit_count() != 2):
            continue
        rem = full & ~(qa | qb | qc)
        entries = [
            (j, masks[j] & rem,
             sum(1 << s for s in range(3) if masks[j] & ~(rem | covers[s]) == 0))
            for j in range(k) if j not in tri
        ]
        if not all(cs for _, _, cs in entries):
            continue
        groups = [(1 << b, 7) for b in bits_of(rem)]
        for _, part, cs in entries:
            if not part:
                continue
            merged, allowed = part, cs
            keep = []
            for gm, ga in groups:
                if gm & merged:
                    merged |= gm
                    allowed &= ga
                else:
                    keep.append((gm, ga))
            keep.append((merged, allowed))
            groups = keep
        if not all(ga for _, ga in groups):
            continue
        side_mask = [0, 0, 0]
        for gm, ga in groups:
            side_mask[(ga & -ga).bit_length() - 1] |= gm
        side_idx: list[list[int]] = [[], [], []]
        for j, part, cs in entries:
            s = next(s for s in range(3) if cs >> s & 1 and part & ~side_mask[s] == 0)
            side_idx[s].append(j)
        fits = all(len(side_idx[s]) == side_mask[s].bit_count() for s in range(3))
        return (2 if fits else 0), tuple(
            ((tri[s], *side_idx[s]), side_mask[s] | covers[s]) for s in range(3)
        )
    return None


class Engine:
    """Degree computations with a relabeling-aware memo cache.

    A node uses the first shortcut that fires (leaf stripping, the double
    cut, the three-cut), else the bare recursion, split at the first quad
    with its first pairing (the value does not depend on that choice).
    With shortcuts=False every node runs the bare recursion.  The cache
    is keyed by canonical key on the keyed nodes with 6 or more labels:
    the root of each `degree` call and each side of a bare split, looked
    up first, and a shortcut side that no shortcut reduces, looked up
    just before it branches.  `nodes` counts every node with 5 or more
    labels; `cache_hits` and `cache_misses` count the keyed nodes, so
    their sum is the number of keys taken.  The cache keeps each keyed
    value for the engine's lifetime.
    """

    def __init__(self, shortcuts: bool = True):
        # read at construction, so a finder patched on the module is seen
        self._shortcuts = (
            (_strip_leaves, _find_double_cut, _find_three_cut) if shortcuts else ()
        )
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.nodes = 0

    def degree(self, inst) -> int:
        m, masks = inst.compact()
        return self._degree(m, tuple(sorted(masks)))

    def _degree(self, m, masks) -> int:
        # keyed before the shortcuts: the root, so a repeated or relabeled
        # input is one lookup, and each side of a bare split
        if m <= 4:
            return 1
        self.nodes += 1
        return self._keyed(m, masks, self._compute)

    def _side_degree(self, m, masks) -> int:
        # a shortcut side: its own shortcuts are cheaper than a key, so it
        # is keyed only when none fires and it is about to branch
        if m <= 4:
            return 1
        self.nodes += 1
        val = self._shortcut(m, masks)
        return self._keyed(m, masks, self._bare) if val is None else val

    def _keyed(self, m, masks, compute) -> int:
        if m < 6:
            return compute(m, masks)
        key = canonical_key(m, masks)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        val = compute(m, masks)
        self.cache_misses += 1
        self._cache[key] = val
        return val

    def _compute(self, m, masks) -> int:
        val = self._shortcut(m, masks)
        return self._bare(m, masks) if val is None else val

    def _shortcut(self, m, masks):
        """Factor times the side degrees of the first shortcut that fires,
        or None when none fires."""
        for find in self._shortcuts:
            hit = find(m, masks)
            if hit is not None:
                total, sides = hit
                for idx, labels in sides:
                    if total == 0:
                        break
                    total *= self._side_degree(*side_form([masks[j] for j in idx], labels))
                return _checked(total)
        return None

    def _bare(self, m, masks) -> int:
        total = 0
        for a1, a2 in _partitions((1 << m) - 1, masks, 0):
            d1 = self._degree(*_side(m, masks, a1))
            if d1 == 0:
                continue
            total += d1 * self._degree(*_side(m, masks, a2))
        return _checked(total)


def normalize(inst) -> CrossRatioProblem:
    """Canonical representative on labels 1..m; equal iff relabel-isomorphic.

    The canonical key's encoding is the relabeled quad set, so it is
    decoded directly.
    """
    m, masks = inst.compact()
    return CrossRatioProblem.from_masks(*canonical_key(m, masks))


default_engine = Engine()


def degree(inst) -> int:
    """Degree of a configuration, via the shared default engine."""
    return default_engine.degree(inst)
