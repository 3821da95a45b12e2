"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
package internals: crossing tests are done with coordinate geometry,
triangulations by filtering all diagonal subsets, the vanishing test by
enumerating every sub-multiset, canonical labeling by walking the
whole individualization-refinement tree without automorphism pruning,
and cross-ratios one quad at a time from the chart's point positions.
"""

import cmath
import math
from itertools import combinations, combinations_with_replacement, permutations


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def circle_point(n: int, v: int):
    ang = 2 * math.pi * (v - 1) / n
    return (math.cos(ang), math.sin(ang))


def _ccw(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def segments_cross(p1, p2, p3, p4) -> bool:
    """Proper interior intersection of segments p1p2 and p3p4."""
    d1 = _ccw(p3, p4, p1)
    d2 = _ccw(p3, p4, p2)
    d3 = _ccw(p1, p2, p3)
    d4 = _ccw(p1, p2, p4)
    return d1 * d2 < 0 and d3 * d4 < 0


def geometric_cross(n: int, d1, d2) -> bool:
    pts = [circle_point(n, v) for v in (*d1, *d2)]
    if set(d1) & set(d2):
        return False
    return segments_cross(*pts)


def all_diagonals(n: int):
    out = []
    for u, v in combinations(range(1, n + 1), 2):
        if v - u == 1 or (u == 1 and v == n):
            continue
        out.append((u, v))
    return out


def brute_triangulations(n: int) -> set:
    """All maximal non-crossing diagonal sets, by filtering subsets."""
    diags = all_diagonals(n)
    out = set()
    for sub in combinations(diags, n - 3):
        if all(not geometric_cross(n, a, b) for a, b in combinations(sub, 2)):
            out.add(frozenset(sub))
    return out


def brute_vanishes(quads) -> bool:
    """True when some nonempty sub-multiset spans fewer than size+3 labels."""
    k = len(quads)
    for r in range(1, k + 1):
        for sub in combinations(range(k), r):
            union = set()
            for i in sub:
                union |= set(quads[i])
            if len(union) < r + 3:
                return True
    return False


def near_degenerate(z, tol: float) -> bool:
    """Is the point z within tol of a non-configuration: a coordinate at 0
    or 1, or two coordinates colliding, relative to the larger of the two?
    One point at a time, every pair by itself."""
    return (any(abs(v) < tol or abs(v - 1) < tol for v in z)
            or any(abs(v - w) < tol * max(1.0, abs(v), abs(w))
                   for v, w in combinations(z, 2)))


INFINITY = complex(math.inf, 0.0)


def cross_ratio(pa, pb, pc, pd) -> complex:
    """((pa-pc)(pb-pd)) / ((pa-pd)(pb-pc)), with the limit when one
    argument is infinite.  Normalized so cross_ratio(inf, 0, 1, x) == x.
    One quad at a time, against which the oracle's product-form factors
    are checked."""
    pts = [complex(p) for p in (pa, pb, pc, pd)]
    inf_at = [i for i, p in enumerate(pts) if cmath.isinf(p)]
    if len(inf_at) > 1:
        raise ValueError("at most one point may be infinite")
    a, b, c, d = pts
    if not inf_at:
        return ((a - c) * (b - d)) / ((a - d) * (b - c))
    i = inf_at[0]
    if i == 0:
        return (b - d) / (b - c)
    if i == 1:
        return (a - c) / (a - d)
    if i == 2:
        return (b - d) / (a - d)
    return (a - c) / (b - c)


def chart_points(n: int, chart, z) -> dict:
    """Label -> position of the chart point z: the labels of the chart
    (inf, zero, one) at INFINITY, 0 and 1, the others, in ascending order,
    at the coordinates of z."""
    inf, zero, one = chart
    unknowns = [lab for lab in range(1, n + 1) if lab not in chart]
    points = {inf: INFINITY, zero: 0j, one: 1 + 0j}
    points.update((lab, complex(v)) for lab, v in zip(unknowns, z, strict=True))
    return points


def random_problem(n: int, rng):
    from xratio import CrossRatioProblem

    quads = tuple(frozenset(rng.sample(range(1, n + 1), 4)) for _ in range(n - 3))
    return CrossRatioProblem(n, quads)


def split_degree(labels, quads, _counter=None):
    """Degree by the boundary splitting recursion, sets only.

    Independent of the package: splits are enumerated by brute force over
    all 2^(m-4) label assignments, the split quad is always the first one
    listed and its pairing is fixed, so agreement with the engine also
    exercises the claim that the answer is choice independent.
    """
    if _counter is None:
        _counter = [0]
    labels = frozenset(labels)
    m = len(labels)
    if m <= 4:
        return 1
    quads = [frozenset(q) for q in quads]
    s1 = quads[0]
    rest = quads[1:]
    a, b, c, d = sorted(s1, key=repr)
    p1 = frozenset({a, b})
    p2 = frozenset({c, d})
    free = sorted(labels - s1, key=repr)
    total = 0
    for bits in range(1 << len(free)):
        a1 = set(p1)
        a2 = set(p2)
        for i, lab in enumerate(free):
            (a1 if bits >> i & 1 else a2).add(lab)
        if any(len(q & a1) == 2 for q in rest):
            continue
        side1 = [q for q in rest if len(q & a1) >= 3]
        side2 = [q for q in rest if len(q & a2) >= 3]
        if len(side1) != len(a1) - 2 or len(side2) != len(a2) - 2:
            continue
        _counter[0] += 1
        star1 = ("node", _counter[0], 1)
        star2 = ("node", _counter[0], 2)
        q1 = [q & a1 if len(q & a1) == 4 else (q & a1) | {star1} for q in side1]
        q2 = [q & a2 if len(q & a2) == 4 else (q & a2) | {star2} for q in side2]
        total += (split_degree(a1 | {star1}, q1, _counter)
                  * split_degree(a2 | {star2}, q2, _counter))
    return total


def brute_isomorphic(m, quads1, quads2) -> bool:
    """Relabel-equivalence of two quad multisets on 1..m, by permutations."""
    from itertools import permutations

    target = sorted(tuple(sorted(q)) for q in quads2)
    for perm in permutations(range(1, m + 1)):
        relab = sorted(
            tuple(sorted(perm[x - 1] for x in q)) for q in quads1
        )
        if relab == target:
            return True
    return False


def split_degree_at(labels, quads, s1_index, pairing_index):
    """split_degree with the top-level quad and pairing forced.

    pairing_index picks one of the three ways to break the chosen quad
    into two pairs; recursion below the top level reverts to the fixed
    first-quad rule, so equality across all choices is exactly the
    choice independence of the recursion.
    """
    labels = frozenset(labels)
    if len(labels) <= 4:
        return 1
    quads = [frozenset(q) for q in quads]
    s1 = quads[s1_index]
    rest = quads[:s1_index] + quads[s1_index + 1:]
    a, b, c, d = sorted(s1, key=repr)
    pairs = [({a, b}, {c, d}), ({a, c}, {b, d}), ({a, d}, {b, c})]
    p1, p2 = map(frozenset, pairs[pairing_index])
    free = sorted(labels - s1, key=repr)
    counter = [0]
    total = 0
    for bits in range(1 << len(free)):
        a1 = set(p1)
        a2 = set(p2)
        for i, lab in enumerate(free):
            (a1 if bits >> i & 1 else a2).add(lab)
        if any(len(q & a1) == 2 for q in rest):
            continue
        side1 = [q for q in rest if len(q & a1) >= 3]
        side2 = [q for q in rest if len(q & a2) >= 3]
        if len(side1) != len(a1) - 2 or len(side2) != len(a2) - 2:
            continue
        counter[0] += 1
        star1 = ("top", counter[0], 1)
        star2 = ("top", counter[0], 2)
        q1 = [q & a1 if len(q & a1) == 4 else (q & a1) | {star1} for q in side1]
        q2 = [q & a2 if len(q & a2) == 4 else (q & a2) | {star2} for q in side2]
        total += (split_degree(a1 | {star1}, q1)
                  * split_degree(a2 | {star2}, q2))
    return total


def _reference_refine(colors, quad_bits, quads_of):
    m = len(colors)
    ncol = len(set(colors))
    while True:
        qsig = [tuple(sorted(colors[b] for b in qb)) for qb in quad_bits]
        sig = [
            (colors[l], tuple(sorted(qsig[j] for j in quads_of[l])))
            for l in range(m)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if len(rank) == ncol:
            return new
        colors, ncol = new, len(rank)


def reference_encode(colors, masks):
    """Sorted quad masks under the relabeling label -> colors[label]."""
    return tuple(sorted(
        sum(1 << colors[b] for b in range(len(colors)) if q >> b & 1)
        for q in masks
    ))


def _reference_search(colors, masks, quad_bits, quads_of):
    colors = _reference_refine(colors, quad_bits, quads_of)
    m = len(colors)
    classes = {}
    for l, c in enumerate(colors):
        classes.setdefault(c, []).append(l)
    tie = None
    for c in sorted(classes):
        if len(classes[c]) > 1:
            tie = classes[c]
            break
    if tie is None:
        return reference_encode(colors, masks), colors
    best = None
    best_colors = None
    for l in tie:
        seeded = [(colors[x], 0 if x != l else -1) for x in range(m)]
        rank = {s: i for i, s in enumerate(sorted(set(seeded)))}
        enc, full = _reference_search(
            [rank[s] for s in seeded], masks, quad_bits, quads_of)
        if best is None or enc < best:
            best, best_colors = enc, full
    return best, best_colors


def reference_canon(m, masks):
    """(least leaf encoding, first leaf coloring realizing it) by the
    unpruned individualization-refinement search: every member of every
    first tied class is individualized, so the whole tree is explored.
    Exponential on symmetric inputs; the package's canonical labeling
    must agree with it bit for bit.
    """
    quad_bits = [[b for b in range(m) if q >> b & 1] for q in masks]
    quads_of = [[] for _ in range(m)]
    for j, qb in enumerate(quad_bits):
        for b in qb:
            quads_of[b].append(j)
    return _reference_search([0] * m, masks, quad_bits, quads_of)


def brute_maximum(n: int):
    """(nonvanishing classes, best degree, reference keys of the best classes).

    Every multiset of n-3 quads on 1..n is filtered by brute_vanishes,
    deduplicated by the reference_canon encoding and scored by
    split_degree.  About 0.2 s at n = 6 and 10 s at n = 7.
    """
    quads = [frozenset(c) for c in combinations(range(1, n + 1), 4)]
    classes = {}
    for combo in combinations_with_replacement(quads, n - 3):
        if not brute_vanishes(combo):
            classes.setdefault(reference_key(n, combo), combo)
    degrees = {k: split_degree(range(1, n + 1), c) for k, c in classes.items()}
    best = max(degrees.values())
    return len(classes), best, {k for k, d in degrees.items() if d == best}


def reference_key(n: int, quads):
    """reference_canon encoding of quads on the labels 1..n."""
    return reference_canon(n, tuple(sum(1 << (x - 1) for x in q) for q in quads))[0]


def _permanent(n: int, quads, pinned) -> int:
    """Perfect matchings of quads to the labels outside pinned, over all
    permutations of those labels."""
    unknowns = [lab for lab in range(1, n + 1) if lab not in pinned]
    return sum(all(unknowns[i] in q for q, i in zip(quads, order))
               for order in permutations(range(len(unknowns))))


def _least_chart(n: int, quads, charts):
    """(least permanent, (inf, zero, one)) over charts, the first chart
    in the given order winning ties, the pinned label in the most quads
    (the smaller on a tie) at infinity and the other two in ascending
    order."""
    best = triple = None
    for cand in charts:
        perm = _permanent(n, quads, cand)
        if best is None or perm < best:
            best, triple = perm, cand
    in_quads = {lab: sum(lab in q for q in quads) for lab in triple}
    inf = max(triple, key=lambda lab: (in_quads[lab], -lab))
    zero, one = sorted(lab for lab in triple if lab != inf)
    return best, (inf, zero, one)


def brute_matching_bound(n: int, quads):
    """(bound, (inf, zero, one)) of `matching_bound`, from its documented
    rules: the least permanent of "quad j holds unknown i" over the
    distinct 3-subsets of single quads pinned, in lexicographic order
    (labels 1, 2, 3 when there are no quads)."""
    charts = sorted({c for q in quads for c in combinations(sorted(q), 3)}) or [(1, 2, 3)]
    return _least_chart(n, quads, charts)


def brute_all_triples_bound(n: int, quads):
    """The same least permanent over all C(n,3) pinned triples: a lower
    bound on `brute_matching_bound`, which scans a subset of them."""
    return _least_chart(n, quads, combinations(range(1, n + 1), 3))
