"""End-to-end acceptance suite.

Thirteen numbered criteria: exact golden values for the closed-form
exponents, the LP and cone machinery, exact corpus soundness sweeps, and
tolerance-checked asymptotic trends on the scaling families. Each test is
one criterion; the terminal summary prints one PASS/FAIL line per
criterion (see conftest.py).
"""
import itertools
import math
import random
from fractions import Fraction

from homdom.graphs import (
    SimpleGraph,
    blowup,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    k4_minus_e,
    path_graph,
    triangle_pendant,
)
from homdom.homcount import (
    hom_count,
    hom_density,
    tropical_tree_exponent,
)
from homdom.constructions import (
    ScalingFamily,
    ap3_free_set,
    behrend_graph,
    behrend_triangle_hom_count,
    bipartite_power_target,
    estimate_ratio,
    exponent_vector_estimate,
    log_fraction,
    path_blowup_pattern,
    simple_family,
)
from homdom.formulas import (
    even_cycle_exponent,
    fractional_matching,
    has_path_cover,
    odd_cycle_bounds,
    path_exponent,
    union_exponent_lp,
)
from homdom.ratlp import kr_lp, solve_lp
from homdom.cones import (
    cone_equals_hull,
    constraint_matrix_determinant,
    even_cycle_cone,
    even_cycle_expected_slack_row,
    verify_rays,
)
from homdom.verifier import (
    Corpus,
    CorpusSpec,
    build_corpus,
    check_eq_main,
    check_inequality,
    search_problem6,
)


def frozen_path_exponent(k, ell):
    """Independent transcription of the four-case path characterization,
    kept verbatim as the oracle for criterion 1."""
    if k == ell:
        return Fraction(1)
    if k % 2 == 1 and ell % 2 == 0:
        return Fraction(k + 1, ell)
    if k > ell and (k % 2 == 0 or ell % 2 == 1):
        return Fraction(k, ell)
    if k < ell and k % 2 == 0:
        return Fraction(k + 1, ell + 1)
    a = ell // (k + 1)
    r = ell - a * (k + 1)
    return Fraction(k + ell - r, (a + 1) * ell)


def test_criterion_01_path_exponent_grid_and_examples():
    for k in range(1, 16):
        for ell in range(1, 16):
            assert path_exponent(k, ell) == frozen_path_exponent(k, ell), (k, ell)
    assert path_exponent(5, 13) == Fraction(17, 39)
    # divisibility reduction: whenever the odd/odd case has remainder k,
    # the value collapses to (k+1)/(ell+1)
    hits = 0
    for k in range(1, 16, 2):
        for ell in range(k + 2, 40, 2):
            if ell % (k + 1) == k:
                assert path_exponent(k, ell) == Fraction(k + 1, ell + 1)
                hits += 1
    assert hits > 10


def test_criterion_02_even_cycle_exponent_goldens():
    assert even_cycle_exponent(2, 3) == Fraction(8, 5)
    assert even_cycle_exponent(3, 4) == Fraction(12, 7)
    assert even_cycle_exponent(3, 3) == Fraction(8, 3)
    for k in range(2, 7):
        assert even_cycle_exponent(k, 2) == 2 * k


def test_criterion_03_odd_cycle_bounds_sandwich_and_sharpness():
    assert odd_cycle_bounds(2, 1) == (Fraction(15, 7), Fraction(11, 5))
    for ell in range(1, 21):
        for k in range(ell + 1, 2 * ell + 22):
            lo, up = odd_cycle_bounds(k, ell)
            assert lo <= up, (k, ell)
    for ell in range(1, 6):
        lo, up = odd_cycle_bounds(10 * ell, ell)
        assert up / lo <= Fraction(12, 10), ell


def test_criterion_04_kr_lp_optimum():
    for i in (2, 3, 4, 5):
        sol = solve_lp(kr_lp(i))
        assert sol.status == "optimal"
        assert sol.optimum == 2 * i - 1, i


def test_criterion_05_even_cycle_cone_structure():
    cone3 = even_cycle_cone(3)
    assert cone3.rays == (
        (-1, -4, -6),
        (-2, -7, -12),
        (-1, -2, -3),
    )
    for k in range(2, 7):
        cone = even_cycle_cone(k)
        report = verify_rays(cone)
        assert report["all_member"]
        for idx, entry in enumerate(report["rays"]):
            assert entry["slack_rows"] == [even_cycle_expected_slack_row(idx, k)]
        assert constraint_matrix_determinant(cone) != 0
        assert cone_equals_hull(cone)


def test_criterion_06_union_lp_matches_formula():
    for a in range(1, 6):
        for b in range(1, 6):
            k = max(a, b, 2)
            assert union_exponent_lp([2 * a], [2 * b], k) == \
                even_cycle_exponent(a, 2 * b), (a, b)
    assert union_exponent_lp([4, 4], [2], 2) == 8


def test_criterion_07_strict_non_multiplicativity():
    for i, j, k in itertools.combinations(range(1, 6), 3):
        direct = even_cycle_exponent(k, 2 * i)
        composed = even_cycle_exponent(k, 2 * j) * even_cycle_exponent(j, 2 * i)
        assert direct < composed, (i, j, k)


def test_criterion_08_behrend_identity_and_trend():
    for n in (20, 40, 60):
        g = behrend_graph(n)
        count = behrend_triangle_hom_count(n)
        assert hom_count(complete_graph(3), g) == count
        assert hom_count(k4_minus_e(), g) == count
    # at N = 1000 use the verified closed form for the shared count
    n = 1000
    count = behrend_triangle_hom_count(n)
    t3 = Fraction(count, (6 * n) ** 3)
    t4 = Fraction(count, (6 * n) ** 4)
    ratio = log_fraction(t4) / log_fraction(t3)
    assert ratio > 1.5, ratio


def test_criterion_09_corpus_soundness_sweep():
    corpus = build_corpus(CorpusSpec(exhaustive_n=6, gnp_count=200))
    assert len(corpus) == 408

    fixed = [
        (cycle_graph(5), cycle_graph(3), Fraction(11, 5)),
        (cycle_graph(4), cycle_graph(3), Fraction(8, 5)),
        (k4_minus_e(), complete_graph(3), Fraction(2)),
        (triangle_pendant(), complete_graph(3), Fraction(3, 2)),
    ]
    for g, h, c in fixed:
        report = check_inequality(g, h, c, corpus)
        assert report.ok and not report.skipped, (g, h, c, report.violations)

    # edge rule: t(K_2,T)^(nu*(H)) >= t(H,T) for every H with <= 5 vertices
    small = [h for n in range(2, 6) for h in enumerate_graphs(n, dedup=True)
             if h.num_edges and h.n == n]
    k2 = complete_graph(2)
    p2 = path_graph(2)
    for h in small:
        c = 1 / fractional_matching(h)
        report = check_inequality(k2, h, c, corpus)
        assert report.ok and not report.skipped, (h, report.violations)

    # t(P_2,T)^(v(H)) >= t(H,T)^3 for every path-coverable H with <= 5 vertices
    coverable = 0
    for h in small:
        if not has_path_cover(h):
            continue
        coverable += 1
        report = check_inequality(p2, h, Fraction(3, h.n), corpus)
        assert report.ok and not report.skipped, (h, report.violations)
    assert coverable > 5

    # concavity instances (k,ell) = (2,3) and (3,4)
    for tag, target in corpus:
        t2 = hom_density(k2, target)
        t3 = hom_density(cycle_graph(3), target)
        t4 = hom_density(cycle_graph(4), target)
        t6 = hom_density(cycle_graph(6), target)
        assert t2 * t4 >= t3 ** 2, tag
        assert t2 * t6 >= t4 ** 2, tag

    # blow-up inequality t(H(a), T) >= t(H, T)^(prod a) on 50 seeded instances
    rng = random.Random(50)
    checked = 0
    while checked < 50:
        hn = rng.randint(2, 4)
        edges = frozenset(p for p in itertools.combinations(range(hn), 2)
                          if rng.random() < 0.6)
        h = SimpleGraph(hn, edges)
        mult = [rng.randint(1, 3) for _ in range(hn)]
        t = corpus.entries[rng.randrange(len(corpus))][1]
        if t.n > 8:
            continue
        prod = 1
        for a in mult:
            prod *= a
        b = blowup(h, mult)
        lhs = Fraction(hom_count(b, t), t.n ** b.n)
        assert lhs >= hom_density(h, t) ** prod
        checked += 1

    # the proved case (i,j) = (2,1) of the odd/even cycle inequality must
    # not produce a "counterexample"
    report = search_problem6(2, 1, corpus)
    assert report.ok and not report.skipped, report.violations


def test_criterion_10_chorded_cycle_identity():
    corpus = build_corpus(CorpusSpec(exhaustive_n=5))
    for tag, target in corpus:
        assert check_eq_main(2, 1, target), tag


def test_criterion_11_path_blowup_tropical_and_ratio():
    pattern = path_blowup_pattern(3, 2, 1)
    assert tropical_tree_exponent(path_graph(5), pattern) == 13
    assert tropical_tree_exponent(path_graph(13), pattern) == 31

    fam = ScalingFamily("path_blowup", {"k": 3, "l": 2, "m": 1})
    result = estimate_ratio(path_graph(5), path_graph(13), fam,
                            [10 ** 2, 10 ** 4, 10 ** 6])
    target = 17 / 39
    errs = [abs(r - target) for _, r in result["ratios"]]
    assert errs[0] >= errs[1] >= errs[2], errs
    assert errs[2] <= 0.02, errs


def test_criterion_12_projective_family_ratio():
    fam = ScalingFamily("projective", {"k": 2}, seed=1)
    vals = []
    for p in (31, 53, 101):
        target = fam.build(p)
        t4 = hom_density(cycle_graph(4), target)
        t3 = hom_density(cycle_graph(3), target)
        vals.append(log_fraction(t4) / log_fraction(t3))
        # exact invariant: the ratio never exceeds 8/5, i.e.
        # t(C_4)^5 >= t(C_3)^8 (both logs are negative)
        assert t4 ** 5 >= t3 ** 8, p
    assert vals[0] < vals[1] < vals[2], vals
    assert abs(vals[2] - 8 / 5) <= 0.2 * 8 / 5, vals


def test_criterion_13_bipartite_power_ray_realization():
    target = bipartite_power_target(1, 60, mode="random", seed=1)
    y = exponent_vector_estimate(target, [2, 4, 6], scale=60)
    normalized = [v / abs(y[0]) for v in y]
    reference = (-1, -4, -6)
    for got, want in zip(normalized, reference):
        assert abs(got - want) <= 0.5, (normalized, reference)

    # single-edge family: the exponent vector is exactly proportional to
    # s = (-1,-2,-3); at the power-of-two scale n = 32 every density is an
    # exact power of two and the proportionality is an integer identity
    n = 32
    edge = simple_family("single_edge", n)
    exps = []
    for j in (1, 2, 3):
        t = hom_density(cycle_graph(2 * j), edge)
        assert t == Fraction(2, n ** (2 * j))
        num = t.numerator if t.numerator != 1 else 1
        # t = 2^(1 - 10j): recover the exponent exactly
        e2 = t.numerator.bit_length() - 1 - (t.denominator.bit_length() - 1)
        assert Fraction(2) ** e2 == t
        exps.append(e2)
    # (e - 1)/10 = -j exactly, so the vector is -10 * s shifted by log 2
    assert [(e - 1) // 10 for e in exps] == [-1, -2, -3]
    assert all((e - 1) % 10 == 0 for e in exps)
