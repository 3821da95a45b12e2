import random
import time
from itertools import combinations, product

import pytest

from oracles import (
    brute_isomorphic,
    brute_vanishes,
    random_problem,
    reference_canon,
    reference_encode,
    split_degree,
)
from xratio import (
    CrossRatioProblem,
    Engine,
    Triangulation,
    closed_formula_degree,
    degree,
    enumerate_triangulations,
    inscribed_polygon_triangulation,
    normalize,
    random_triangulation,
    triangulation_to_problem,
)
from xratio.engine import canon, core
from xratio.engine.canon import canonical_key, canonical_relabeling
from xratio.engine.instance import bits_of, side_form
from xratio.engine.surplus import find_violation

SNOWFLAKE = CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}, {1, 4, 5, 6}))
VANISHING = CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 4, 5}))
GON13_DIAGONALS = ((1, 3), (1, 4), (1, 10), (1, 12), (4, 6), (4, 9),
                     (4, 10), (6, 8), (6, 9), (10, 12))


def gon13_problem():
    return triangulation_to_problem(Triangulation(13, GON13_DIAGONALS))


def all_engines():
    return [Engine(shortcuts=s) for s in (False, True)]


def test_problem_validation():
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}))  # wrong count
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3}, {2, 3, 4, 5}, {1, 4, 5, 6}))  # size
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3, 7}, {2, 3, 4, 5}, {1, 4, 5, 6}))  # range
    with pytest.raises(ValueError, match="out of range"):
        CrossRatioProblem.from_json({"n": 5, "quads": [[True, 2, 3, 4], [2, 3, 4, 5]]})
    for n in (5.0, 5.9, "5", True):
        with pytest.raises(ValueError, match="integer n"):
            CrossRatioProblem(n, ({1, 2, 3, 4}, {2, 3, 4, 5}))
    with pytest.raises(ValueError, match="integer n"):
        CrossRatioProblem.from_json({"n": 5.9, "quads": [[1, 2, 3, 4], [2, 3, 4, 5]]})


def test_problem_json_roundtrip():
    p = gon13_problem()
    assert CrossRatioProblem.from_json(p.to_json()) == p
    assert p.to_json()["n"] == 13


def test_degenerate_bases():
    assert degree(CrossRatioProblem(3, ())) == 1
    assert degree(CrossRatioProblem(4, ({1, 2, 3, 4},))) == 1


def test_golden_degrees_all_configs():
    fig = gon13_problem()
    for eng in all_engines():
        assert eng.degree(SNOWFLAKE) == 2
        assert eng.degree(VANISHING) == 0
        assert eng.degree(fig) == 8


def test_fan_triangulations_degree_one():
    for n in range(4, 13):
        t = Triangulation(n, tuple((1, k) for k in range(3, n)))
        assert degree(triangulation_to_problem(t)) == 1


def test_triangulation_degrees_match_closed_formula():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randrange(5, 12)
        t = random_triangulation(n, rng.randrange(2**32))
        assert degree(triangulation_to_problem(t)) == closed_formula_degree(t)


def test_engine_matches_split_oracle():
    engines = all_engines()
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randrange(5, 9)
        p = random_problem(n, rng)
        want = split_degree(range(1, p.n + 1), [set(q) for q in p.quads])
        for eng in engines:
            assert eng.degree(p) == want, (p.quads, want)


def test_duplicate_quad_vanishes():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randrange(6, 10)
        p = random_problem(n, rng)
        quads = list(p.quads)
        quads[-1] = quads[0]
        dup = CrossRatioProblem(n, tuple(quads))
        assert degree(dup) == 0


def test_surplus_matches_brute_force():
    rng = random.Random(101)
    for _ in range(250):
        n = rng.randrange(5, 10)
        p = random_problem(n, rng)
        cert = find_violation(*p.compact())
        assert (cert is not None) == brute_vanishes(p.quads), p.quads
        if cert is not None:
            union = set()
            for i in cert:
                union |= set(p.quads[i])
            assert len(set(cert)) == len(cert)
            assert len(union) < len(cert) + 3


def test_surplus_skewed_instances():
    # concentrate labels to force violations more often
    rng = random.Random(202)
    for _ in range(150):
        n = rng.randrange(6, 9)
        pool = list(range(1, n + 1)) + [1, 2, 3] * 2
        quads = []
        while len(quads) < n - 3:
            q = frozenset(rng.sample(pool, 4))
            if len(q) == 4:
                quads.append(q)
        cert = find_violation(n, tuple(
            sum(1 << (x - 1) for x in q) for q in quads
        ))
        assert (cert is not None) == brute_vanishes(quads)


def test_vanishing_fixture_certificate():
    cert = find_violation(*VANISHING.compact())
    assert cert == (0, 1)
    assert degree(VANISHING) == 0


def test_no_violation_implies_positive_degree():
    # the engine finds zeros by the recursion alone, so check every
    # configuration against the certificate and the brute-force test
    rng = random.Random(44)
    inputs = [random_problem(rng.randrange(5, 14), rng) for _ in range(160)]
    for _ in range(40):
        n = rng.randrange(10, 15)
        # a violation hidden in the last quads: 6 of them on 8 labels
        top = range(n - 7, n + 1)
        quads = [rng.sample(range(1, n + 1), 4) for _ in range(n - 9)]
        quads += [rng.sample(top, 4) for _ in range(6)]
        inputs.append(CrossRatioProblem(n, tuple(map(frozenset, quads))))
        # duplicate quads far from the first one
        quads = list(random_problem(n, rng).quads)
        quads[-1] = quads[len(quads) // 2]
        inputs.append(CrossRatioProblem(n, tuple(quads)))
    engines = all_engines()
    for p in inputs:
        vanishes = brute_vanishes(p.quads)
        assert (find_violation(*p.compact()) is not None) == vanishes, p.quads
        for eng in engines:
            assert (eng.degree(p) == 0) == vanishes, p.quads


def test_relabel_invariance():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(5, 10)
        p = random_problem(n, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relab = CrossRatioProblem(
            n, tuple(frozenset(perm[x - 1] for x in q) for q in p.quads)
        )
        assert degree(relab) == degree(p)


def test_normalize_properties():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(5, 9)
        p = random_problem(n, rng)
        assert CrossRatioProblem.from_masks(*p.compact()) == p
        m, masks = p.compact()
        assert m == n
        assert [bits_of(q) for q in masks] == [[x - 1 for x in sorted(q)] for q in p.quads]
        norm = normalize(p)
        assert norm.n == n
        assert normalize(norm) == norm
        assert degree(norm) == degree(p)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relab = CrossRatioProblem(
            n, tuple(frozenset(perm[x - 1] for x in q) for q in p.quads)
        )
        assert normalize(relab) == norm


def test_partitions_on_sparse_label_mask():
    # the configuration spread over non-contiguous bits splits exactly as
    # its side_form renumbering does, bit for bit after renumbering back
    rng = random.Random(2026)
    for _ in range(80):
        n = rng.randrange(5, 11)
        m, masks = random_problem(n, rng).compact()
        pos = sorted(rng.sample(range(2 * n), n))
        full = sum(1 << b for b in pos)
        sparse = sorted(sum(1 << pos[b] for b in bits_of(q)) for q in masks)
        dense = tuple(sorted(masks))
        assert side_form(sparse, full) == (m, dense)
        for s1 in range(len(sparse)):
            got = [(side_form([a1], full)[1][0], side_form([a2], full)[1][0])
                   for a1, a2 in core._partitions(full, sparse, s1)]
            assert got == list(core._partitions((1 << m) - 1, dense, s1))


def test_partitions_order_matches_brute_force():
    # every side assignment of the free labels, lowest label first and
    # side 1 before side 2, kept when admissible: the order in which
    # contributing_trees mints its marks
    def brute(full, masks, s1):
        b = bits_of(masks[s1])
        p1 = (1 << b[0]) | (1 << b[1])
        p2 = (1 << b[2]) | (1 << b[3])
        free = bits_of(full & ~(p1 | p2))
        others = [q for j, q in enumerate(masks) if j != s1]
        out = []
        for sides in product((1, 2), repeat=len(free)):
            a1 = p1 | sum(1 << x for x, s in zip(free, sides) if s == 1)
            a2 = full & ~a1
            if any((q & a1).bit_count() >= 2 and (q & a2).bit_count() >= 2
                   for q in others):
                continue
            if sum((q & a1).bit_count() >= 3 for q in others) == a1.bit_count() - 2:
                out.append((a1, a2))
        return out

    rng = random.Random(17)
    splits = 0
    for i in range(140):
        n = 5 + i % 7
        m, masks = random_problem(n, rng).compact()
        full = (1 << m) - 1
        if i % 3 == 0:  # spread over non-contiguous bits
            pos = sorted(rng.sample(range(2 * n), n))
            full = sum(1 << b for b in pos)
            masks = tuple(sum(1 << pos[b] for b in bits_of(q)) for q in masks)
        for s1 in range(len(masks)):
            want = brute(full, masks, s1)
            assert list(core._partitions(full, masks, s1)) == want
            splits += len(want)
    assert splits > 500


def test_normalize_separates_nonisomorphic():
    rng = random.Random(67)
    pairs = 0
    while pairs < 25:
        p1 = random_problem(6, rng)
        p2 = random_problem(6, rng)
        iso = brute_isomorphic(6, p1.quads, p2.quads)
        assert (normalize(p1) == normalize(p2)) == iso
        pairs += 1


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(71)
    for _ in range(30):
        p1 = random_problem(6, rng)
        p2 = random_problem(6, rng)
        k1 = canonical_key(*p1.compact())
        k2 = canonical_key(*p2.compact())
        assert (k1 == k2) == brute_isomorphic(6, p1.quads, p2.quads)


def relabeled(p, rng):
    perm = list(range(1, p.n + 1))
    rng.shuffle(perm)
    return CrossRatioProblem(
        p.n, tuple(frozenset(perm[x - 1] for x in q) for q in p.quads)
    )


def band_masks(lengths, offsets, path_len, rng):
    """Quads {i + o : o in offsets} around cycles of the given lengths,
    plus a path of consecutive quads on path_len labels, on shuffled
    labels.  Every cycle label sees the same quad pattern, so refinement
    cannot tell the cycles apart: only individualization can.
    """
    m = path_len + sum(lengths)
    labels = list(range(m))
    rng.shuffle(labels)
    quads = [labels[i:i + 4] for i in range(path_len - 3)]
    start = path_len
    for n in lengths:
        cyc = labels[start:start + n]
        quads += [[cyc[(i + o) % n] for o in offsets] for i in range(n)]
        start += n
    return m, tuple(sorted(sum(1 << b for b in q) for q in quads))


def test_canonical_labeling_matches_unpruned_reference():
    # symmetric inputs reach the automorphism pruning; random ones rarely do
    cases = [triangulation_to_problem(t).compact()
             for n in range(3, 11) for t in enumerate_triangulations(n)]
    cases += [triangulation_to_problem(inscribed_polygon_triangulation(n))
              .compact() for n in range(6, 19)]
    rng = random.Random(73)
    cases += [random_problem(rng.randrange(5, 13), rng).compact()
              for _ in range(300)]
    cases += [band_masks((12, 6), (0, 1, 2, 3), path_len, rng)
              for path_len in (0, 6)]
    for m, masks in cases:
        enc, colors = reference_canon(m, masks)
        assert canonical_key(m, masks) == (m, enc), masks
        relab = canonical_relabeling(m, masks)
        assert relab == colors, masks
        assert reference_encode(relab, masks) == enc


def planted_twins(n, rng):
    """Compact configuration on n labels with one or two planted twin
    classes (labels in exactly the same quads) of 2 or 3 labels each:
    every quad holds all or none of each class."""
    labels = list(range(n))
    rng.shuffle(labels)
    cut = rng.choice((2, 3))
    groups = [labels[:cut]]
    if n >= 9 and rng.random() < 0.5:
        groups.append(labels[cut:cut + 2])
    others = labels[sum(map(len, groups)):]
    quads = []
    for _ in range(n - 3):
        q = list(rng.choice(groups)) if rng.random() < 0.7 or n < 7 else []
        quads.append(q + rng.sample(others, 4 - len(q)))
    return n, tuple(sorted(sum(1 << b for b in q) for q in quads))


def test_canonical_labeling_with_planted_twins():
    # twin transpositions seed the search; keys and relabelings must stay
    # those of the unpruned search
    rng = random.Random(89)
    for n in range(6, 13):
        for _ in range(25):
            m, masks = planted_twins(n, rng)
            enc, colors = reference_canon(m, masks)
            assert canonical_key(m, masks) == (m, enc), masks
            assert canonical_relabeling(m, masks) == colors, masks


def test_canonical_search_nodes_on_inscribed(monkeypatch):
    # twin seeding: the labels of an inscribed triangulation pair up into
    # twins (8 pairs at n = 16) that refinement never splits; without
    # seeding n = 16 took 53 nodes
    calls = [0]
    node = canon._Search.node

    def counted(self, colors, path):
        calls[0] += 1
        return node(self, colors, path)

    monkeypatch.setattr(canon._Search, "node", counted)
    for n in range(16, 33):
        p = triangulation_to_problem(inscribed_polygon_triangulation(n))
        calls[0] = 0
        canonical_key(*p.compact())
        assert calls[0] <= n + 1, (n, calls[0])


def test_canonical_key_on_inseparable_cycles_in_bounded_time():
    # refinement leaves all cycle labels in one class, and the subtrees of
    # a cycle other than the first leaf's hold no image of that leaf:
    # only automorphisms found below them keep them small
    rng = random.Random(77)
    t0 = time.perf_counter()
    keys = {canonical_key(*band_masks((10, 5, 5), (0, 1, 2, 4), 6, rng))
            for _ in range(3)}
    assert len(keys) == 1
    assert time.perf_counter() - t0 < 5


def test_normalize_invariant_on_large_triangulations():
    rng = random.Random(79)
    for n in range(16, 33):
        for t in (inscribed_polygon_triangulation(n),
                  random_triangulation(n, rng.randrange(2**32))):
            p = triangulation_to_problem(t)
            norm = normalize(p)
            assert normalize(relabeled(p, rng)) == norm
            assert normalize(relabeled(p, rng)) == norm


def test_inscribed_32_degree_in_bounded_time():
    p = triangulation_to_problem(inscribed_polygon_triangulation(32))
    t0 = time.perf_counter()
    assert Engine().degree(p) == 2**14
    assert time.perf_counter() - t0 < 10


def zigzag_problem(n):
    """Triangulation with diagonals (2,n),(3,n),(3,n-1),(4,n-1),...: every
    triangle has a polygon side, so the degree is 1."""
    diags = []
    lo, hi = 2, n
    while len(diags) < n - 3:
        diags.append((lo, hi))
        if len(diags) % 2:
            lo += 1
        else:
            hi -= 1
    return triangulation_to_problem(Triangulation(n, tuple(diags)))


CHAIN_BLOCK = ((1, 2, 4, 7), (1, 3, 5, 8), (2, 3, 6, 8), (4, 5, 6, 7), (1, 6, 7, 8))


def chain_problem(copies):
    """Copies of the degree-2 block CHAIN_BLOCK on 8 labels, each copy's
    labels 1, 2, 3 glued to the previous copy's 6, 7, 8."""
    quads = tuple(frozenset(x + 5 * c for x in q)
                  for c in range(copies) for q in CHAIN_BLOCK)
    return CrossRatioProblem(5 * copies + 3, quads)


def test_zigzag_40_degree_in_bounded_time():
    # the three-cut splits the zigzag label by label; the bare recursion
    # grows about 2.3x per 2 labels and takes 10 s already at n=34
    p = zigzag_problem(40)
    t0 = time.perf_counter()
    assert Engine().degree(p) == 1
    assert time.perf_counter() - t0 < 10


def test_chain_of_six_blocks_degree_in_bounded_time():
    # the three-cut factors the chain at every glued triple; without it
    # five copies take seconds and each further copy about 10x more
    assert Engine(shortcuts=False).degree(chain_problem(1)) == 2
    p = chain_problem(6)
    t0 = time.perf_counter()
    assert Engine().degree(p) == 64
    assert time.perf_counter() - t0 < 10


def labels_of(mask):
    return frozenset(b + 1 for b in bits_of(mask))


def side_problems(masks, sides):
    """A finder's sides (quad indices, label mask) as configurations."""
    return [CrossRatioProblem.from_masks(*side_form([masks[j] for j in idx], labels))
            for idx, labels in sides]


def test_three_cut_on_pentagon():
    p = CrossRatioProblem(5, ({5, 1, 2, 3}, {2, 3, 4, 5}))
    hit = core._find_three_cut(*p.compact())
    assert hit is not None
    factor, ((_, xs), (_, ys)) = hit
    assert factor == 1
    assert labels_of(xs & ys) == frozenset({2, 3, 5})
    assert {labels_of(xs & ~ys), labels_of(ys & ~xs)} == {frozenset({1}), frozenset({4})}


def planted_leaves(n, rng, shared):
    """Random configuration on 1..n with label n in one quad only, or,
    when shared, labels n-1 and n together in one quad and nowhere else
    (then the degree is 0); labels shuffled."""
    if shared:
        quads = [frozenset(rng.sample(range(1, n - 1), 4)) for _ in range(n - 4)]
        quads.append(frozenset({n - 1, n, *rng.sample(range(1, n - 1), 2)}))
    else:
        quads = list(random_problem(n - 1, rng).quads)
        quads.append(frozenset({n, *rng.sample(range(1, n), 3)}))
    return relabeled(CrossRatioProblem(n, tuple(quads)), rng)


def test_leaf_stripping_matches_bare_engine():
    bare = Engine(shortcuts=False)
    rng = random.Random(97)
    for n in range(5, 15):
        for shared in (False, True) if n >= 6 else (False,):
            for _ in range(8):
                p = planted_leaves(n, rng, shared)
                m, masks = p.compact()
                assert core._strip_leaves(m, tuple(sorted(masks))) is not None
                d = Engine().degree(p)
                assert d == bare.degree(p), p.quads
                if shared:
                    assert d == 0
                    if n <= 9:
                        assert brute_vanishes(p.quads)


def test_three_cut_scan_sees_no_leaves(monkeypatch):
    scanned = []
    scan = core._find_three_cut

    def spy(m, masks):
        scanned.append(any(sum(q >> b & 1 for q in masks) == 1 for b in range(m)))
        return scan(m, masks)

    monkeypatch.setattr(core, "_find_three_cut", spy)
    # the benchmark's large cold inputs: every leafless miss has an internal
    # triangle, a double cut, so the C(m,3) triple scan never runs
    rng = random.Random(1729)
    tris = [inscribed_polygon_triangulation(n) for n in range(16, 25)]
    tris += [random_triangulation(n, rng.randrange(2**32)) for n in range(20, 41)]
    for t in tris:
        assert Engine().degree(triangulation_to_problem(t)) == closed_formula_degree(t)
    assert scanned == []
    # where it still runs (glued blocks, random inputs), every one-quad
    # label is stripped before it
    assert Engine().degree(chain_problem(6)) == 64
    for n in range(12, 21):
        Engine().degree(random_problem(n, rng))
    assert scanned and not any(scanned)


def test_double_cut_on_snowflake():
    m, masks = SNOWFLAKE.compact()
    hit = core._find_double_cut(m, masks)
    assert hit is not None
    factor, sides = hit
    assert factor == 2
    assert tuple(idx[0] for idx, _ in sides) == (0, 1, 2)
    # each side's labels outside its own quad
    assert tuple(labels_of(s & ~masks[idx[0]]) for idx, s in sides) == (frozenset(),) * 3
    assert degree(SNOWFLAKE) == 2


def test_double_cut_on_13gon():
    p = gon13_problem()
    m, masks = p.compact()
    hit = core._find_double_cut(m, masks)
    assert hit is not None
    factor, sides = hit
    assert factor == 2
    cut_quads = {frozenset(p.quads[idx[0]]) for idx, _ in sides}
    assert cut_quads == {
        frozenset({1, 3, 4, 13}),
        frozenset({1, 9, 10, 13}),
        frozenset({3, 4, 9, 10}),
    }
    assert {labels_of(s & ~masks[idx[0]]) for idx, s in sides} == {
        frozenset({2}),
        frozenset({11, 12}),
        frozenset({5, 6, 7, 8}),
    }
    d = [degree(s) for s in side_problems(masks, sides)]
    assert factor * d[0] * d[1] * d[2] == 8


def planted_triple_problem(n, rng):
    # snowflake pattern on six labels guarantees a pairwise-two triple
    six = rng.sample(range(1, n + 1), 6)
    a, b, c, d, e, f = six
    quads = [frozenset({a, b, c, d}), frozenset({c, d, e, f}),
             frozenset({a, b, e, f})]
    while len(quads) < n - 3:
        quads.append(frozenset(rng.sample(range(1, n + 1), 4)))
    rng.shuffle(quads)
    return CrossRatioProblem(n, tuple(quads))


def protocol_cases():
    """Random configurations, planted pairwise-two triples, random
    triangulations and planted leaves: inputs on which every shortcut
    fires often, with factor 0 as well as nonzero."""
    rng = random.Random(83)
    cases = [random_problem(rng.randrange(6, 10), rng) for _ in range(200)]
    rng = random.Random(89)
    cases += [planted_triple_problem(rng.randrange(6, 10), rng) for _ in range(40)]
    for _ in range(40):
        t = random_triangulation(rng.randrange(6, 11), rng.randrange(2**32))
        cases.append(triangulation_to_problem(t))
    rng = random.Random(97)
    cases += [planted_leaves(n, rng, shared)
              for n in range(6, 12) for shared in (False, True) for _ in range(4)]
    return cases


@pytest.mark.parametrize("finder", [
    "_strip_leaves", "_find_three_cut", "_find_double_cut",
], ids=["strip_leaves", "three_cut", "double_cut"])
def test_shortcut_protocol_identity(finder):
    # every hit (factor, sides) must give factor * (product of the bare
    # side degrees) = the bare degree, with well-posed sides unless the
    # factor is 0; every hit, factor 0 too, has its cut's side shape
    bare = Engine(shortcuts=False)
    find = getattr(core, finder)
    hits = 0
    for p in protocol_cases():
        m, masks = p.compact()
        hit = find(m, masks)
        if hit is None:
            continue
        hits += 1
        factor, sides = hit
        want = bare.degree(p)
        full = (1 << m) - 1
        if finder == "_find_three_cut":
            # two sides sharing exactly the 3 cut labels, covering all m
            (_, xs), (_, ys) = sides
            assert (xs & ys).bit_count() == 3 and xs | ys == full, p.quads
        if finder == "_find_double_cut":
            # side s holds quad idx[0]; outside the triple's six labels the
            # sides partition the remaining labels
            tri = [idx[0] for idx, _ in sides]
            assert len(set(tri)) == 3, p.quads
            six = masks[tri[0]] | masks[tri[1]] | masks[tri[2]]
            outs = [s & ~six for _, s in sides]
            assert all(masks[idx[0]] & ~s == 0 for idx, s in sides), p.quads
            assert outs[0] | outs[1] | outs[2] == full & ~six, p.quads
            assert sum(o.bit_count() for o in outs) == (full & ~six).bit_count(), p.quads
        if factor == 0:
            assert want == 0, p.quads
            continue
        got = factor
        forms = [side_form([masks[j] for j in idx], labels) for idx, labels in sides]
        for sm, smasks in forms:
            assert len(smasks) == sm - 3, p.quads
            got *= bare._degree(sm, smasks)
        assert got == want, p.quads
    assert hits >= 40


def test_shortcut_configs_agree():
    engines = all_engines()
    rng = random.Random(97)
    for _ in range(120):
        n = rng.randrange(5, 10)
        p = random_problem(n, rng)
        vals = {eng.degree(p) for eng in engines}
        assert len(vals) == 1, (p.quads, vals)


def test_cache_hits_on_repeat_and_relabel():
    eng = Engine()
    p = gon13_problem()
    assert eng.degree(p) == 8
    misses = eng.cache_misses
    hits = eng.cache_hits
    assert eng.degree(p) == 8
    assert eng.cache_hits > hits
    assert eng.cache_misses == misses
    perm = list(range(2, 14)) + [1]
    relab = CrossRatioProblem(
        13, tuple(frozenset(perm[x - 1] for x in q) for q in p.quads)
    )
    hits = eng.cache_hits
    assert eng.degree(relab) == 8
    assert eng.cache_hits > hits
    assert eng.cache_misses == misses


def spy_keys(monkeypatch):
    """List that records the (m, masks) of every canonical key the engine takes."""
    keys = []
    real = core.canonical_key

    def spy(m, masks):
        keys.append((m, masks))
        return real(m, masks)

    monkeypatch.setattr(core, "canonical_key", spy)
    return keys


def test_triangulation_keys_only_its_root(monkeypatch):
    # leaf stripping and the double cut reach every triangulation's degree
    # without branching, so the shortcut sides take no key
    keys = spy_keys(monkeypatch)
    rng = random.Random(1729)
    tris = [inscribed_polygon_triangulation(n) for n in (16, 24, 32)]
    tris += [random_triangulation(n, rng.randrange(2**32)) for n in range(20, 41)]
    for t in tris:
        p = triangulation_to_problem(t)
        keys.clear()
        eng = Engine()
        assert eng.degree(p) == closed_formula_degree(t)
        assert len(keys) == 1 and keys[0][0] == p.n
        assert (eng.cache_hits, eng.cache_misses) == (0, 1)


def test_bare_recursion_nodes_stay_keyed(monkeypatch):
    # the chain is a three-cut at every glued triple; each block then
    # branches.  Keyed: the root, the first block and the two sides of its
    # bare split, so 4 misses at any length; every further block is one
    # hit, and the three-cut sides between them take no key
    keys = spy_keys(monkeypatch)
    for copies in range(2, 7):
        eng = Engine()
        p = chain_problem(copies)
        keys.clear()
        assert eng.degree(p) == 2**copies
        assert (eng.cache_hits, eng.cache_misses) == (copies - 1, 4)
        assert len(keys) == eng.cache_hits + eng.cache_misses
        rng = random.Random(copies)
        keys.clear()
        assert eng.degree(relabeled(p, rng)) == 2**copies
        assert (eng.cache_hits, eng.cache_misses) == (copies, 4)
        assert len(keys) == 1


def test_degree_limit_applies_to_cut_products(monkeypatch):
    t = Triangulation(10, ((1, 3), (1, 9), (3, 5), (3, 8), (3, 9), (5, 8), (6, 8)))
    p = triangulation_to_problem(t)
    m, masks = p.compact()
    hit = core._find_three_cut(m, masks)
    assert hit is not None and hit[0] == 1
    assert [degree(s) for s in side_problems(masks, hit[1])] == [2, 2]
    monkeypatch.setattr(core, "DEGREE_LIMIT", 5)
    assert Engine().degree(p) == 4
    # every side stays under the limit; only the three-cut product reaches it
    monkeypatch.setattr(core, "DEGREE_LIMIT", 4)
    with pytest.raises(OverflowError):
        Engine().degree(p)


def test_cache_cap_zero_still_correct():
    eng = Engine(cache_cap=0)
    p = gon13_problem()
    assert eng.degree(p) == 8
    assert eng.degree(p) == 8
    assert eng.cache_hits == 0


def test_cache_cap_negative_rejected():
    with pytest.raises(ValueError, match="negative cache cap"):
        Engine(cache_cap=-1)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=f"cache_cap={bad!r}$"):
            Engine(cache_cap=bad)


def test_default_engine_shared():
    before = degree(SNOWFLAKE)
    after = degree(SNOWFLAKE)
    assert before == after == 2


def test_exhaustive_small_agreement():
    # every triangulation of the hexagon and heptagon, both formulas
    for n in (6, 7):
        for t in enumerate_triangulations(n):
            p = triangulation_to_problem(t)
            assert degree(p) == closed_formula_degree(t)
