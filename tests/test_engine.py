import random
import time
from itertools import combinations

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
    DegreeInstance,
    Engine,
    Triangulation,
    closed_formula_degree,
    degree,
    double_cut,
    enumerate_triangulations,
    inscribed_polygon_triangulation,
    normalize,
    random_triangulation,
    surplus_violated,
    three_cut,
    triangulation_to_problem,
)
from xratio.engine import core
from xratio.engine.canon import canonical_key, canonical_relabeling
from xratio.engine.surplus import find_violation

SNOWFLAKE = CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}, {1, 4, 5, 6}))
VANISHING = CrossRatioProblem(6, ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 4, 5}))
GON13_DIAGONALS = ((1, 3), (1, 4), (1, 10), (1, 12), (4, 6), (4, 9),
                     (4, 10), (6, 8), (6, 9), (10, 12))


def gon13_problem():
    return triangulation_to_problem(Triangulation(13, GON13_DIAGONALS))


def all_engines():
    return [
        Engine(use_three_cut=tc, use_double_cut=dc)
        for tc in (False, True)
        for dc in (False, True)
    ]


def test_problem_validation():
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3, 6}, {2, 3, 4, 5}))  # wrong count
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3}, {2, 3, 4, 5}, {1, 4, 5, 6}))  # size
    with pytest.raises(ValueError):
        CrossRatioProblem(6, ({1, 2, 3, 7}, {2, 3, 4, 5}, {1, 4, 5, 6}))  # range


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
        cert = surplus_violated(p)
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
    cert = surplus_violated(VANISHING)
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
        assert (surplus_violated(p) is not None) == vanishes, p.quads
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


def test_string_labels_supported():
    names = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}
    quads = tuple(frozenset(names[x] for x in q) for q in SNOWFLAKE.quads)
    inst = DegreeInstance(frozenset(names.values()), quads)
    assert Engine().degree(inst) == 2


def test_mixed_label_instance():
    quads = tuple(
        frozenset(("L", x) if x % 2 else x for x in q) for q in SNOWFLAKE.quads
    )
    labels = frozenset().union(*quads)
    assert Engine().degree(DegreeInstance(labels, quads)) == 2


def test_normalize_properties():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(5, 9)
        p = random_problem(n, rng)
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
        k1 = canonical_key(*p1.instance().compact()[:2])
        k2 = canonical_key(*p2.instance().compact()[:2])
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
    cases = [triangulation_to_problem(t).instance().compact()[:2]
             for n in range(3, 11) for t in enumerate_triangulations(n)]
    cases += [triangulation_to_problem(inscribed_polygon_triangulation(n))
              .instance().compact()[:2] for n in range(6, 19)]
    rng = random.Random(73)
    cases += [random_problem(rng.randrange(5, 13), rng).instance().compact()[:2]
              for _ in range(300)]
    cases += [band_masks((12, 6), (0, 1, 2, 3), path_len, rng)
              for path_len in (0, 6)]
    for m, masks in cases:
        enc, colors = reference_canon(m, masks)
        assert canonical_key(m, masks) == (m, enc), masks
        relab = canonical_relabeling(m, masks)
        assert relab == colors, masks
        assert reference_encode(relab, masks) == enc


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


def test_three_cut_on_pentagon():
    p = CrossRatioProblem(5, ({5, 1, 2, 3}, {2, 3, 4, 5}))
    tc = three_cut(p)
    assert tc is not None
    assert not tc.degree_zero
    assert tc.cut == frozenset({2, 3, 5})
    assert set(tc.sides) == {frozenset({1}), frozenset({4})}


def test_three_cut_product_identity():
    bare = Engine(use_three_cut=False, use_double_cut=False)
    rng = random.Random(83)
    found = 0
    for _ in range(200):
        n = rng.randrange(6, 10)
        p = random_problem(n, rng)
        tc = three_cut(p)
        if tc is None:
            continue
        found += 1
        if tc.degree_zero:
            assert bare.degree(p) == 0
            continue
        s1, s2 = tc.side_instances
        assert bare.degree(p) == bare.degree(s1) * bare.degree(s2)
    assert found >= 20


def test_double_cut_on_snowflake():
    dc = double_cut(SNOWFLAKE)
    assert dc is not None
    assert not dc.degree_zero
    assert dc.quad_indices == (0, 1, 2)
    assert dc.sides == (frozenset(), frozenset(), frozenset())
    assert degree(SNOWFLAKE) == 2


def test_double_cut_on_13gon():
    p = gon13_problem()
    dc = double_cut(p)
    assert dc is not None
    assert not dc.degree_zero
    cut_quads = {frozenset(p.quads[i]) for i in dc.quad_indices}
    assert cut_quads == {
        frozenset({1, 3, 4, 13}),
        frozenset({1, 9, 10, 13}),
        frozenset({3, 4, 9, 10}),
    }
    assert set(dc.sides) == {
        frozenset({2}),
        frozenset({11, 12}),
        frozenset({5, 6, 7, 8}),
    }
    d = [degree(s) for s in dc.side_instances]
    assert 2 * d[0] * d[1] * d[2] == 8


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


def test_double_cut_factor_identity():
    bare = Engine(use_three_cut=False, use_double_cut=False)
    rng = random.Random(89)
    cases = [planted_triple_problem(rng.randrange(6, 10), rng) for _ in range(40)]
    for _ in range(40):
        t = random_triangulation(rng.randrange(6, 11), rng.randrange(2**32))
        cases.append(triangulation_to_problem(t))
    found = 0
    for p in cases:
        dc = double_cut(p)
        if dc is None:
            continue
        found += 1
        if dc.degree_zero:
            assert bare.degree(p) == 0
            continue
        prod = 2
        for s in dc.side_instances:
            prod *= bare.degree(s)
        assert bare.degree(p) == prod, p.quads
    assert found >= 40


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


def test_degree_limit_applies_to_cut_products(monkeypatch):
    t = Triangulation(10, ((1, 3), (1, 9), (3, 5), (3, 8), (3, 9), (5, 8), (6, 8)))
    p = triangulation_to_problem(t)
    tc = three_cut(p)
    assert tc is not None and not tc.degree_zero
    assert [degree(s) for s in tc.side_instances] == [2, 2]
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
