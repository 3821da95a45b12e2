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

Two shortcuts prune the recursion.  If three labels C separate the quads
into groups supported on C|X and C|Y, the degree factors as the product
of the side degrees (or vanishes when a side's quad count mismatches its
label budget).  If three quads pairwise share exactly two labels and
jointly cover six, the degree is twice the product of the three side
degrees.  Both are optional so that their identities can be tested
against the bare recursion.

Zeros need no separate test: the recursion already returns 0 on every
configuration with a label-deficient sub-collection.  `surplus_violated`
(in `surplus`) is the certificate API that names such a sub-collection;
the degree path never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_key, canonical_relabeling
from .instance import (
    CrossRatioProblem,
    DegreeInstance,
    as_instance,
    bits_of,
    compact_aligned,
)

__all__ = [
    "Engine",
    "ThreeCut",
    "DoubleCut",
    "degree",
    "three_cut",
    "double_cut",
    "normalize",
    "default_engine",
]

DEGREE_LIMIT = 1 << 64  # degrees of supported instance sizes fit in uint64


def _partitions(m, masks, s1):
    """Admissible splits for the recursion at quad s1.

    Quad s1's two lowest labels seed side 1 and its two highest side 2.
    Yields (a1, a2) bitmask pairs.  A split is admissible when every other
    quad meets a1 in a count other than 2 and the quads with >= 3 labels
    in a1 number exactly |a1| - 2 (then the same holds on side 2).  The
    search assigns free labels one at a time, propagating quads that are
    down to their last unplaced label, and prunes branches whose side
    budgets are already unreachable.
    """
    b = bits_of(masks[s1])
    p1 = (1 << b[0]) | (1 << b[1])
    p2 = (1 << b[2]) | (1 << b[3])
    others = [masks[j] for j in range(len(masks)) if j != s1]
    k = len(others)
    full = (1 << m) - 1
    free0 = full & ~(p1 | p2)
    c1_0 = [(q & p1).bit_count() for q in others]
    c2_0 = [(q & p2).bit_count() for q in others]
    if any(c1_0[j] == 2 and c2_0[j] == 2 for j in range(k)):
        return  # a duplicate of the split quad straddles every cut

    def feasible(a1, a2, free, c1, c2):
        n1 = a1.bit_count()
        n2 = a2.bit_count()
        rem = free.bit_count()
        lo1 = hi1 = lo2 = hi2 = 0
        for j in range(k):
            u = 4 - c1[j] - c2[j]
            if c1[j] >= 3:
                lo1 += 1
            if c2[j] <= 1 and c1[j] + u >= 3:
                hi1 += 1
            if c2[j] >= 3:
                lo2 += 1
            if c1[j] <= 1 and c2[j] + u >= 3:
                hi2 += 1
        if hi1 < n1 - 2 or lo1 > n1 + rem - 2:
            return False
        if hi2 < n2 - 2 or lo2 > n2 + rem - 2:
            return False
        return True

    def place(b, side, a1, a2, free, c1, c2):
        # assign bit b, then chase unit forcings; None on contradiction
        c1 = c1[:]
        c2 = c2[:]
        stack = [(b, side)]
        while stack:
            bb, s = stack.pop()
            bit = 1 << bb
            if not (free & bit):
                if bool(a1 & bit) != (s == 1):
                    return None
                continue
            free &= ~bit
            if s == 1:
                a1 |= bit
            else:
                a2 |= bit
            for j in range(k):
                q = others[j]
                if not (q & bit):
                    continue
                if s == 1:
                    c1[j] += 1
                else:
                    c2[j] += 1
                if c1[j] == 2 and c2[j] == 2:
                    return None
                if c1[j] + c2[j] == 3:
                    last = q & free
                    if last:
                        if c1[j] == 2:
                            stack.append((last.bit_length() - 1, 1))
                        elif c2[j] == 2:
                            stack.append((last.bit_length() - 1, 2))
        return a1, a2, free, c1, c2

    def rec(a1, a2, free, c1, c2):
        if not feasible(a1, a2, free, c1, c2):
            return
        if not free:
            u1 = sum(1 for j in range(k) if c1[j] >= 3)
            if u1 == a1.bit_count() - 2:
                yield a1, a2
            return
        b = (free & -free).bit_length() - 1
        for s in (1, 2):
            st = place(b, s, a1, a2, free, c1, c2)
            if st is not None:
                yield from rec(*st)

    yield from rec(p1, p2, free0, c1_0, c2_0)


def _build_side(masks, s1, a_mask):
    """Compact side instance on the labels of a_mask plus a synthetic mark."""
    abits = bits_of(a_mask)
    pos = {b: i for i, b in enumerate(abits)}
    star = 1 << len(abits)
    out = []
    for j, q in enumerate(masks):
        if j == s1:
            continue
        inter = q & a_mask
        c = inter.bit_count()
        if c < 3:
            continue
        nm = sum(1 << pos[b] for b in bits_of(inter))
        if c == 3:
            nm |= star
        out.append(nm)
    return len(abits) + 1, tuple(sorted(out))


def _side_compact(masks, idxs, label_mask):
    lbits = bits_of(label_mask)
    pos = {b: i for i, b in enumerate(lbits)}
    qs = tuple(sorted(sum(1 << pos[b] for b in bits_of(masks[j])) for j in idxs))
    return len(lbits), qs


def _find_three_cut(m, masks):
    """First 3-set of labels whose removal disconnects the quad supports.

    Returns (c_mask, x_mask, y_mask, x_idx, y_idx, valid) or None.  X is
    the component of the smallest remaining label; valid is False when the
    quad counts mismatch the side label budgets (the degree is then 0).
    """
    full = (1 << m) - 1
    for cbits in combinations(range(m), 3):
        c_mask = (1 << cbits[0]) | (1 << cbits[1]) | (1 << cbits[2])
        rem = full & ~c_mask
        groups: list[int] = []
        for q in masks:
            merged = q & rem
            keep = []
            for g in groups:
                if g & merged:
                    merged |= g
                else:
                    keep.append(g)
            keep.append(merged)
            groups = keep
        covered = 0
        for g in groups:
            covered |= g
        for b in bits_of(rem & ~covered):
            groups.append(1 << b)  # labels in no quad: vanishing input
        if len(groups) < 2:
            continue
        x_mask = min(groups, key=lambda g: g & -g)
        y_mask = rem & ~x_mask
        x_idx = tuple(j for j, q in enumerate(masks) if q & rem & ~x_mask == 0)
        y_idx = tuple(j for j, q in enumerate(masks) if q & rem & x_mask == 0)
        valid = len(x_idx) == x_mask.bit_count() and len(y_idx) == y_mask.bit_count()
        return c_mask, x_mask, y_mask, x_idx, y_idx, valid
    return None


def _find_double_cut(m, masks):
    """First triple of quads covering 6 labels with pairwise overlap 2.

    The remaining labels split into groups, each group assignable to the
    side of one of the three quads; every other quad must land entirely on
    one side.  Returns (triple, side_masks, side_idx, valid) or None;
    valid is False on a side-budget mismatch (degree 0).
    """
    full = (1 << m) - 1
    k = len(masks)
    for tri in combinations(range(k), 3):
        qa, qb, qc = (masks[t] for t in tri)
        if (qa | qb | qc).bit_count() != 6:
            continue
        if ((qa & qb).bit_count() != 2 or (qb & qc).bit_count() != 2
                or (qa & qc).bit_count() != 2):
            continue
        rem = full & ~(qa | qb | qc)
        entries = []
        ok = True
        for j in range(k):
            if j in tri:
                continue
            q = masks[j]
            cs = tuple(
                s for s, qs in enumerate((qa, qb, qc)) if q & ~(rem | qs) == 0
            )
            if not cs:
                ok = False
                break
            entries.append((j, q & rem, cs))
        if not ok:
            continue
        groups: list[tuple[int, set]] = []
        for _, part, cs in entries:
            if not part:
                continue
            merged, allowed = part, set(cs)
            keep = []
            for gm, ga in groups:
                if gm & merged:
                    merged |= gm
                    allowed &= ga
                else:
                    keep.append((gm, ga))
            keep.append((merged, allowed))
            groups = keep
        if any(not ga for _, ga in groups):
            continue
        covered = 0
        for gm, _ in groups:
            covered |= gm
        for b in bits_of(rem & ~covered):
            groups.append((1 << b, {0, 1, 2}))
        side_mask = [0, 0, 0]
        for gm, ga in groups:
            side_mask[min(ga)] |= gm
        side_idx: list[list[int]] = [[], [], []]
        for j, part, cs in entries:
            if part:
                s = next(s for s in cs if part & side_mask[s] == part)
            else:
                s = cs[0]  # a quad inside two of the three covers > 4 labels
            side_idx[s].append(j)
        valid = all(
            len(side_idx[s]) == side_mask[s].bit_count() for s in range(3)
        )
        return tri, tuple(side_mask), tuple(map(tuple, side_idx)), valid
    return None


class Engine:
    """Degree computations with a relabeling-aware memo cache.

    A cache miss runs the bare recursion, split at the first quad with
    its first pairing (the value does not depend on that choice), after
    the two factorization shortcuts.  The shortcuts can be switched off
    to test their identities against the bare recursion; separate
    configurations keep separate caches.
    """

    def __init__(self, use_three_cut: bool = True, use_double_cut: bool = True,
                 cache_cap: int | None = None):
        self.use_three_cut = use_three_cut
        self.use_double_cut = use_double_cut
        self.cache_cap = cache_cap
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.nodes = 0

    def degree(self, inst) -> int:
        if isinstance(inst, CrossRatioProblem):
            inst = inst.instance()
        m, masks, _ = inst.compact()
        return self._degree(m, masks)

    def _degree(self, m, masks) -> int:
        if m <= 4:
            return 1
        self.nodes += 1
        if m < 6:
            return self._compute(m, masks)
        key = canonical_key(m, masks)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        val = self._compute(m, masks)
        if val >= DEGREE_LIMIT:  # m < 6 above gives 0 or 1
            raise OverflowError(f"degree {val} exceeds the uint64 contract")
        self.cache_misses += 1
        if self.cache_cap is None or len(self._cache) < self.cache_cap:
            self._cache[key] = val
        return val

    def _compute(self, m, masks) -> int:
        if self.use_three_cut:
            tc = _find_three_cut(m, masks)
            if tc is not None:
                c_mask, x_mask, y_mask, x_idx, y_idx, valid = tc
                if not valid:
                    return 0
                dx = self._degree(*_side_compact(masks, x_idx, c_mask | x_mask))
                if dx == 0:
                    return 0
                return dx * self._degree(*_side_compact(masks, y_idx, c_mask | y_mask))
        if self.use_double_cut:
            dc = _find_double_cut(m, masks)
            if dc is not None:
                tri, side_mask, side_idx, valid = dc
                if not valid:
                    return 0
                total = 2
                for s in range(3):
                    idxs = (tri[s],) + side_idx[s]
                    total *= self._degree(
                        *_side_compact(masks, idxs, side_mask[s] | masks[tri[s]])
                    )
                    if total == 0:
                        return 0
                return total
        total = 0
        for a1, a2 in _partitions(m, masks, 0):
            d1 = self._degree(*_build_side(masks, 0, a1))
            if d1 == 0:
                continue
            total += d1 * self._degree(*_build_side(masks, 0, a2))
        return total


@dataclass(frozen=True)
class ThreeCut:
    """A separating label triple with its two side configurations."""

    cut: frozenset
    sides: tuple[frozenset, frozenset]
    side_instances: tuple[DegreeInstance, DegreeInstance] | None
    degree_zero: bool


@dataclass(frozen=True)
class DoubleCut:
    """Three quads covering six labels pairwise-two, with side data."""

    quad_indices: tuple[int, int, int]
    sides: tuple[frozenset, frozenset, frozenset]
    side_instances: tuple[DegreeInstance, DegreeInstance, DegreeInstance] | None
    degree_zero: bool


def three_cut(inst) -> ThreeCut | None:
    inst = as_instance(inst)
    m, masks, order = compact_aligned(inst)
    tc = _find_three_cut(m, masks)
    if tc is None:
        return None
    c_mask, x_mask, y_mask, x_idx, y_idx, valid = tc
    lab = lambda mask: frozenset(order[b] for b in bits_of(mask))
    cut, xs, ys = lab(c_mask), lab(x_mask), lab(y_mask)
    if not valid:
        return ThreeCut(cut, (xs, ys), None, True)
    sides = (
        DegreeInstance(cut | xs, tuple(inst.quads[j] for j in x_idx)),
        DegreeInstance(cut | ys, tuple(inst.quads[j] for j in y_idx)),
    )
    return ThreeCut(cut, (xs, ys), sides, False)


def double_cut(inst) -> DoubleCut | None:
    inst = as_instance(inst)
    m, masks, order = compact_aligned(inst)
    dc = _find_double_cut(m, masks)
    if dc is None:
        return None
    tri, side_mask, side_idx, valid = dc
    lab = lambda mask: frozenset(order[b] for b in bits_of(mask))
    sides = tuple(lab(sm) for sm in side_mask)
    if not valid:
        return DoubleCut(tri, sides, None, True)
    insts = tuple(
        DegreeInstance(
            sides[s] | inst.quads[tri[s]],
            (inst.quads[tri[s]],) + tuple(inst.quads[j] for j in side_idx[s]),
        )
        for s in range(3)
    )
    return DoubleCut(tri, sides, insts, False)


def normalize(inst) -> CrossRatioProblem:
    """Canonical representative on labels 1..m; equal iff relabel-isomorphic."""
    inst = as_instance(inst)
    m, masks, _ = inst.compact()
    perm = canonical_relabeling(m, masks)
    quads = tuple(
        frozenset(perm[b] + 1 for b in bits_of(q)) for q in masks
    )
    return CrossRatioProblem(m, quads)


default_engine = Engine()


def degree(inst) -> int:
    """Degree of a configuration, via the shared default engine."""
    return default_engine.degree(inst)
