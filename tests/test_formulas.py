import gc
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from homdom import cones, formulas, ratlp
from homdom.graphs import (
    GraphError,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph,
    disjoint_union,
    enumerate_graphs,
    isomorphic,
    k4_minus_e,
    path_graph,
    star_graph,
    triangle_pendant,
)
from homdom.formulas import (
    _COMPOSITION_CATALOG,
    _embeds,
    _even_cycle_lengths,
    _exact_rule,
    _search_order,
    ExponentBound,
    crude_upper,
    dispatch_exponent,
    edge_exponent,
    even_cycle_exponent,
    exists_exponent,
    fractional_matching,
    has_path_cover,
    has_subgraph,
    is_hamiltonian,
    kk_exponent,
    odd_cycle_bounds,
    p2_exponent,
    path_exponent,
    simple_lower,
    subgraph_equal_nu,
    union_exponent_lp,
)
from homdom.cones import even_cycle_cone
from homdom.constructions import log_fraction, simple_family
from homdom.homcount import hom_count, hom_density, hom_exists
from homdom.verifier import harvest_lower


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with empty nu* and catalog-rule memos, so call
    counts are those of a fresh process."""
    formulas._nu_star.cache_clear()
    formulas._catalog_rule.cache_clear()


def bound_tuple(bound):
    return bound.lower, bound.upper, bound.exact, bound.provenance, bound.exists


def gnp(rng, n, p):
    return SimpleGraph(n, frozenset(
        e for e in itertools.combinations(range(n), 2) if rng.random() < p))


def embeds(host, pattern, vertices=None):
    """Brute force: some injective map pattern -> vertices keeps every edge."""
    vertices = range(host.n) if vertices is None else vertices
    return any(all(host.has_edge(img[a], img[b]) for a, b in pattern.edges)
               for img in itertools.permutations(vertices, pattern.n))


def embeds_within(host, pattern, within):
    """The subset search ``kk_exponent`` runs: a copy of the pattern on the
    host vertices of bitmask ``within``."""
    return _embeds(host.adjacency_masks(), *_search_order(pattern), within)


def path_cover_by_lists(h):
    """The path-cover search on adjacency lists and inner functions, kept
    as the oracle of the bitmask search."""
    adj = h.adjacency_lists()
    covered = [False] * h.n

    def search(remaining):
        if remaining == 0:
            return True
        v = covered.index(False)

        def grow(left, right, used, right_done):
            path = left[::-1] + [v] + right
            if len(path) >= 3:
                for u in path:
                    covered[u] = True
                if search(remaining - len(path)):
                    return True
                for u in path:
                    covered[u] = False
            if not right_done:
                tail = right[-1] if right else v
                for w in adj[tail]:
                    if not covered[w] and w not in used:
                        if grow(left, right + [w], used | {w}, False):
                            return True
            head = left[-1] if left else v
            for w in adj[head]:
                if not covered[w] and w not in used:
                    if grow(left + [w], right, used | {w}, True):
                        return True
            return False

        return grow([], [], {v}, False)

    return search(h.n)


class TestExistence:
    def test_basic(self):
        assert exists_exponent(complete_graph(2), complete_graph(3))
        assert not exists_exponent(complete_graph(3), complete_graph(2))
        assert not exists_exponent(cycle_graph(5), cycle_graph(4))
        assert exists_exponent(cycle_graph(4), complete_graph(2))
        assert not exists_exponent(cycle_graph(11), complete_bipartite(6, 6))

    def test_missing_clique_answers_quickly(self):
        # K13 -> K12 is too wide to eliminate; K12 lacks a K13, so no
        # search over the injective partial maps is needed
        start = time.perf_counter()
        assert not exists_exponent(complete_graph(13), complete_graph(12))
        assert time.perf_counter() - start < 1


class TestGenericBounds:
    def test_crude_upper(self):
        assert crude_upper(cycle_graph(6), complete_graph(3)) == 9
        assert crude_upper(complete_graph(2), complete_graph(2)) == 2
        with pytest.raises(GraphError):
            crude_upper(complete_graph(3), complete_graph(2))

    def test_simple_lower(self):
        assert simple_lower(cycle_graph(6), complete_graph(3)) == Fraction(5, 2)
        assert simple_lower(complete_graph(4), complete_graph(3)) == 2
        assert simple_lower(path_graph(4), path_graph(2)) == 2
        with pytest.raises(GraphError):
            simple_lower(disjoint_union(complete_graph(2), complete_graph(2)),
                         complete_graph(2))

    def test_simple_lower_never_exceeds_truth(self):
        # on pairs where the exact value is known, lower <= exact
        for k, ell in itertools.product(range(1, 8), repeat=2):
            exact = path_exponent(k, ell)
            assert simple_lower(path_graph(k), path_graph(ell)) <= exact


class TestPathExponent:
    def test_diagonal(self):
        for k in range(1, 10):
            assert path_exponent(k, k) == 1

    def test_golden(self):
        assert path_exponent(5, 13) == Fraction(17, 39)
        assert path_exponent(3, 2) == 2       # k odd, ell even
        assert path_exponent(4, 2) == 2       # k > ell, k even
        assert path_exponent(5, 3) == Fraction(5, 3)
        assert path_exponent(2, 5) == Fraction(1, 2)
        assert path_exponent(1, 3) == Fraction(1, 2)  # odd < odd via divmod

    def test_divisibility_identity(self):
        # when (k+1) | ell the odd/odd case collapses to (k+1)/(ell+1)
        for k in range(1, 8, 2):
            for mult in range(1, 4):
                ell = (k + 1) * mult + k  # ell % (k+1) == k, both odd
                if ell <= k or ell % 2 == 0:
                    continue
                assert path_exponent(k, ell) == Fraction(k + 1, ell + 1)

    def test_monotone_in_ell(self):
        for k in range(1, 7):
            vals = [path_exponent(k, ell) for ell in range(1, 15)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(GraphError):
            path_exponent(0, 1)


class TestEvenCycleExponent:
    def test_golden(self):
        assert even_cycle_exponent(2, 3) == Fraction(8, 5)
        assert even_cycle_exponent(3, 4) == Fraction(12, 7)
        assert even_cycle_exponent(3, 5) == Fraction(24, 19)
        assert even_cycle_exponent(1, 2) == 1
        assert even_cycle_exponent(3, 8) == Fraction(6, 8)  # 2k < ell

    def test_vs_edge(self):
        # ell = 2 reduces to C(C_2k, K_2) = 2k
        for k in range(2, 6):
            assert even_cycle_exponent(k, 2) == 2 * k

    def test_submultiplicative(self):
        # C(C_2i, C_2k) <= C(C_2i, C_2j) * C(C_2j, C_2k), with a strict
        # instance through the edge: C(C_6,K_2)=6 < C(C_6,C_4)*C(C_4,K_2)=48/7
        for i, j, k in itertools.combinations(range(1, 6), 3):
            lhs = even_cycle_exponent(i, 2 * k)
            rhs = even_cycle_exponent(i, 2 * j) * even_cycle_exponent(j, 2 * k)
            assert lhs <= rhs
        assert even_cycle_exponent(3, 2) < \
            even_cycle_exponent(3, 4) * even_cycle_exponent(2, 2)

    def test_invalid(self):
        with pytest.raises(GraphError):
            even_cycle_exponent(0, 4)
        with pytest.raises(GraphError):
            even_cycle_exponent(2, 1)


def cone_lp_union_exponent(g_cycles, h_cycles, k):
    """Reference: the cone LP itself, max -sum_{c in G} y_c over the rows of
    even_cycle_cone(k) with sum_{c in H} y_c = -1, by the Fraction simplex."""
    obj, norm = [0] * k, [0] * k
    for c in g_cycles:
        obj[c // 2 - 1] -= 1
    for c in h_cycles:
        norm[c // 2 - 1] += 1
    rows = [(row, ">=", 0) for row in even_cycle_cone(k).halfspaces] + [(norm, "=", -1)]
    sol = ratlp.solve_lp(ratlp.make_lp("max", obj, rows, nonneg=False))
    assert sol.status == "optimal"
    return sol.optimum


def no_lp(*args, **kwargs):
    raise AssertionError("the union exponent solved an LP")


class TestUnionExponentRays:
    def test_matches_cone_lp(self, monkeypatch):
        rng = random.Random(29)
        cases = []
        for _ in range(300):
            k = rng.randint(2, 30)
            g, h = ([2 * rng.randint(1, k) for _ in range(rng.randint(1, 4))] for _ in range(2))
            cases.append((g, h, k))
        expected = [cone_lp_union_exponent(*case) for case in cases]
        monkeypatch.setattr(cones, "solve_lp", no_lp)
        monkeypatch.setattr(ratlp, "solve_lp", no_lp)
        assert [union_exponent_lp(*case) for case in cases] == expected

    def test_builds_no_cone(self, monkeypatch):
        # the rays are read off their closed forms, so no Cone is built, even
        # at a k whose dense cone would hold 2 * 3000^2 entries
        def no_cone(self):
            raise AssertionError("the union exponent built a Cone")
        monkeypatch.setattr(cones.Cone, "__post_init__", no_cone)
        assert union_exponent_lp([6000, 4], [4], 3000) == Fraction(9001499, 4499)


class TestHamiltonian:
    def test_detector(self):
        assert is_hamiltonian(complete_graph(4))
        assert is_hamiltonian(cycle_graph(5))
        assert not is_hamiltonian(path_graph(3))
        assert not is_hamiltonian(star_graph(3))
        assert not is_hamiltonian(complete_graph(2))

    def test_target_rule(self):
        # C(C_2k, H) for a Hamiltonian H with v(H) <= 2k is the even-cycle
        # formula at ell = v(H), by the "hamiltonian-target" rule
        for g, h, value in ((cycle_graph(8), complete_graph(4), Fraction(12, 5)),
                            (cycle_graph(6), k4_minus_e(), Fraction(12, 7)),
                            (cycle_graph(4), complete_graph(4), Fraction(1))):
            bound = dispatch_exponent(g, h)
            assert (bound.lower, bound.upper, bound.exact) == (value, value, True)
            assert bound.provenance == ("hamiltonian-target",)
        # K_1,3 has no Hamiltonian cycle
        bound = dispatch_exponent(cycle_graph(8), star_graph(3))
        assert "hamiltonian-target" not in bound.provenance

    def test_matches_permutation_brute_force(self):
        rng = random.Random(41)
        graphs = [g for n in range(6) for g in enumerate_graphs(n, dedup=True)]
        graphs += [gnp(rng, n, p) for n in range(6, 9) for p in (0.4, 0.6, 0.8) for _ in range(4)]
        for g in graphs:
            want = g.n >= 3 and any(
                all(g.has_edge(a, b) for a, b in zip((0,) + rest, rest + (0,)))
                for rest in itertools.permutations(range(1, g.n)))
            assert is_hamiltonian(g) == want, g


class TestOddCycleBounds:
    def test_golden(self):
        assert odd_cycle_bounds(2, 1) == (Fraction(15, 7), Fraction(11, 5))
        assert odd_cycle_bounds(3, 1) == (Fraction(35, 11), Fraction(29, 9))

    def test_sandwich(self):
        for ell in range(1, 21):
            for k in range(ell + 1, 21):
                lo, up = odd_cycle_bounds(k, ell)
                assert 1 < lo <= up

    def test_sharpness_regime(self):
        # at k = 10 ell the gap is within 20 percent
        for ell in (1, 2, 3):
            lo, up = odd_cycle_bounds(10 * ell, ell)
            assert up / lo <= Fraction(12, 10)

    def test_invalid(self):
        with pytest.raises(GraphError):
            odd_cycle_bounds(1, 1)


class TestMatchingRules:
    def test_nu_star(self):
        assert fractional_matching(complete_graph(2)) == 1
        assert fractional_matching(cycle_graph(5)) == Fraction(5, 2)
        assert fractional_matching(cycle_graph(4)) == 2
        assert fractional_matching(star_graph(5)) == 1
        assert fractional_matching(complete_graph(4)) == 2

    def test_edge_exponent(self):
        assert edge_exponent(complete_graph(3)) == Fraction(2, 3)
        assert edge_exponent(cycle_graph(5)) == Fraction(2, 5)
        assert edge_exponent(star_graph(7)) == 1

    def test_kk(self):
        # every 3-subset of K_4 contains a triangle
        assert kk_exponent(complete_graph(3), complete_graph(4)) == Fraction(3, 4)
        assert kk_exponent(complete_graph(2), complete_graph(5)) == Fraction(2, 5)
        # C_4 has triangle-free 3-subsets
        assert kk_exponent(complete_graph(3), cycle_graph(4)) is None

    def test_path_cover(self):
        assert has_path_cover(cycle_graph(6))
        assert has_path_cover(path_graph(2))
        assert has_path_cover(complete_graph(3))
        assert not has_path_cover(complete_graph(2))
        assert not has_path_cover(star_graph(4))
        # P_3 covers itself with one 3-edge path; 4 vertices, one path
        assert has_path_cover(path_graph(3))
        # two disjoint triangles: two paths
        assert has_path_cover(disjoint_union(complete_graph(3), complete_graph(3)))

    def test_p2(self):
        assert p2_exponent(cycle_graph(6)) == Fraction(1, 2)
        assert p2_exponent(complete_graph(3)) == 1
        assert p2_exponent(star_graph(4)) is None

    def test_subgraph_equal_nu(self):
        # C_5 sits in K_5 and both have nu* = 5/2
        assert subgraph_equal_nu(cycle_graph(5), complete_graph(5)) == 1
        # K_2 in K_3: nu* differs (1 vs 3/2)
        assert subgraph_equal_nu(complete_graph(2), complete_graph(3)) is None

    def test_subgraph_equal_nu_matches_definition(self):
        # comparing nu* before searching gives the same answer as searching
        # first, on every ordered pair of graphs with at most 5 vertices
        graphs = [g for n in range(6) for g in enumerate_graphs(n, dedup=True)]
        fired = 0
        for g in graphs:
            for h in graphs:
                want = bool(g.edges and h.edges and has_subgraph(h, g)
                            and fractional_matching(g) == fractional_matching(h))
                assert subgraph_equal_nu(g, h) == (Fraction(1) if want else None), (g, h)
                fired += want
        assert 0 < fired < len(graphs) ** 2

    def test_has_subgraph(self):
        assert has_subgraph(complete_graph(4), cycle_graph(4))
        assert not has_subgraph(complete_bipartite(2, 3), complete_graph(3))


class TestSubgraphSearches:
    def test_has_subgraph_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(300):
            host = gnp(rng, rng.randint(0, 7), rng.choice((0.3, 0.5, 0.7)))
            pattern = gnp(rng, rng.randint(0, 5), rng.choice((0.3, 0.5, 0.8)))
            assert has_subgraph(host, pattern) == embeds(host, pattern), (host, pattern)
            subset = [v for v in range(host.n) if rng.random() < 0.7]
            within = sum(1 << v for v in subset)
            assert embeds_within(host, pattern, within) == embeds(host, pattern, subset), \
                (host, pattern, subset)

    def test_within_matches_materialised_subset(self):
        rng = random.Random(47)
        for _ in range(300):
            host = gnp(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
            pattern = gnp(rng, rng.randint(1, 5), 0.5)
            subset = rng.sample(range(host.n), rng.randint(0, host.n))
            assert embeds_within(host, pattern, sum(1 << v for v in subset)) == \
                has_subgraph(host.subgraph(subset), pattern), (host, pattern, subset)

    def test_path_cover_matches_list_search(self):
        rng = random.Random(53)
        graphs = [g for n in range(7) for g in enumerate_graphs(n, dedup=True)]
        graphs += [gnp(rng, n, p) for n in range(7, 11) for p in (0.2, 0.3, 0.5) for _ in range(8)]
        for g in graphs:
            assert has_path_cover(g) == path_cover_by_lists(g), g

    def test_kk_matches_materialised_subsets(self):
        rng = random.Random(59)
        pairs = [(g, h) for g in (complete_graph(2), path_graph(2), complete_graph(3),
                                  cycle_graph(4), star_graph(3))
                 for h in [gnp(rng, n, p) for n in range(3, 8) for p in (0.5, 0.8, 0.95)]]
        pairs += [(complete_graph(3), complete_graph(5)), (cycle_graph(4), complete_graph(6))]
        for _ in range(250):  # random patterns, edgeless and disconnected ones included
            h = gnp(rng, rng.randint(2, 7), rng.choice((0.5, 0.7, 0.9, 1.0)))
            pairs.append((gnp(rng, rng.randint(2, h.n), rng.choice((0.0, 0.5, 0.9))), h))
        fired = 0
        for g, h in pairs:
            want = None
            if g.n <= h.n and all(embeds(h.subgraph(list(s)), g)
                                  for s in itertools.combinations(range(h.n), g.n)):
                want = Fraction(g.n, h.n)
            assert kk_exponent(g, h) == want, (g, h)
            fired += want is not None
        assert 0 < fired < len(pairs)

    def test_even_cycle_lengths(self):
        k2, c4, c6 = complete_graph(2), cycle_graph(4), cycle_graph(6)
        assert _even_cycle_lengths(disjoint_union(k2, c4, c6, k2)) == [2, 4, 6, 2]
        assert _even_cycle_lengths(c4) == [4]
        for g in (disjoint_union(c4, SimpleGraph(1)), disjoint_union(k2, cycle_graph(3)),
                  disjoint_union(c6, cycle_graph(5)), disjoint_union(c4, path_graph(3)),
                  path_graph(2), path_graph(3), star_graph(3), SimpleGraph(2),
                  disjoint_union(cycle_graph(3), cycle_graph(3))):
            assert _even_cycle_lengths(g) is None, g


class TestDispatch:
    def test_diagonal_connected(self):
        for g in enumerate_graphs(6, dedup=True):
            if not g.is_connected() or g.num_edges == 0:
                continue
            bound = dispatch_exponent(g, g)
            assert bound.exact and bound.lower == 1

    def test_nonexistent(self):
        bound = dispatch_exponent(complete_graph(3), complete_graph(2))
        assert not bound.exists
        assert "nonexistent" in bound.provenance

    def test_exact_examples(self):
        cases = [
            (path_graph(5), path_graph(13), Fraction(17, 39)),
            (cycle_graph(4), cycle_graph(3), Fraction(8, 5)),
            (cycle_graph(6), cycle_graph(5), Fraction(24, 19)),
            (k4_minus_e(), complete_graph(3), Fraction(2)),
            (triangle_pendant(), complete_graph(3), Fraction(3, 2)),
            (complete_graph(2), cycle_graph(5), Fraction(2, 5)),
            (path_graph(2), cycle_graph(6), Fraction(1, 2)),
            (complete_graph(3), complete_graph(4), Fraction(3, 4)),
            (cycle_graph(4), complete_graph(4), even_cycle_exponent(2, 4)),
        ]
        for g, h, val in cases:
            bound = dispatch_exponent(g, h)
            assert bound.exact, (bound.provenance, g, h)
            assert bound.lower == val, (bound.lower, val, bound.provenance)

    def test_isolated_vertices_dropped(self):
        # t(K2 + K1, T) = t(K2, T), so C(K2 + K1, K3) = C(K2, K3) = 2/3
        cases = [
            (disjoint_union(complete_graph(2), SimpleGraph(1)), complete_graph(3), Fraction(2, 3)),
            (SimpleGraph(1), complete_graph(3), Fraction(0)),
            (cycle_graph(4), disjoint_union(complete_graph(3), SimpleGraph(1)), Fraction(8, 5)),
        ]
        for g, h, val in cases:
            bound = dispatch_exponent(g, h)
            assert bound.exact and bound.lower == val, (g, h, bound)
            assert bound.provenance[0] == "isolated-vertices-dropped"
        assert "isolated-vertices-dropped" not in dispatch_exponent(
            cycle_graph(4), complete_graph(3)).provenance

    def test_union_power_scaling(self):
        # C(C_4 + C_4, C_3) = 2 * C(C_4, C_3) = 16/5
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        bound = dispatch_exponent(g, complete_graph(3))
        assert bound.exact and bound.lower == Fraction(16, 5)
        assert "union-power" in bound.provenance

    def test_uniform_union_power(self):
        # C(C_6, C_4 + C_4) = C(C_6, C_4)/2 = 6/7 via component-power scaling
        g = cycle_graph(6)
        h = disjoint_union(cycle_graph(4), cycle_graph(4))
        bound = dispatch_exponent(g, h)
        assert bound.exact and bound.lower == Fraction(6, 7)
        assert "union-power" in bound.provenance

    def test_even_cycle_union_lp(self):
        # a non-uniform union forces the LP: C(C_4 + C_6, K_2) = 4 + 6
        g = disjoint_union(cycle_graph(4), cycle_graph(6))
        bound = dispatch_exponent(g, complete_graph(2))
        assert bound.exact and bound.lower == 10
        assert "even-cycle-union-lp" in bound.provenance

    def test_odd_pair_bounds(self):
        bound = dispatch_exponent(cycle_graph(5), cycle_graph(3))
        assert not bound.exact
        assert bound.lower == Fraction(15, 7) and bound.upper == Fraction(11, 5)
        assert "odd-cycle-bounds" in bound.provenance

    def test_bounds_bracket(self):
        # K_1,3 vs K_3 hits no exact rule: fallback bounds with provenance
        bound = dispatch_exponent(star_graph(3), complete_graph(3))
        assert not bound.exact
        assert 0 < bound.lower <= bound.upper
        assert "simple-lower" in bound.provenance
        assert "crude-upper" in bound.provenance

    def test_subgraph_upper(self):
        bound = dispatch_exponent(star_graph(3), complete_bipartite(3, 3))
        assert bound.upper <= 1
        assert "subgraph-upper" in bound.provenance

    def test_composition_tightens(self):
        # P_4 vs K_3 via P_2: C(P_4,P_2) * C(P_2,K_3) = 2 * 1 beats the
        # crude bound 25/4
        bound = dispatch_exponent(path_graph(4), complete_graph(3))
        assert bound.upper <= 2 < crude_upper(path_graph(4), complete_graph(3))
        assert any(p.startswith("composition(") for p in bound.provenance)

    def test_composition_asks_no_existence(self, monkeypatch):
        # K_1,3 vs K_3 reaches the crude bound and the composition step:
        # the query's own check is its only existence test
        exists, rules = [], []

        def counted_exists(g, h):
            exists.append((g, h))
            return hom_exists(g, h)

        def counted_rule(g, h, *rest):
            rules.append((g, h))
            return _exact_rule(g, h, *rest)

        monkeypatch.setattr(formulas, "hom_exists", counted_exists)
        monkeypatch.setattr(formulas, "_exact_rule", counted_rule)
        bound = dispatch_exponent(star_graph(3), complete_graph(3))
        assert not bound.exact
        assert {h for _, h in rules} >= set(_COMPOSITION_CATALOG)
        assert len(exists) == 1

    def test_catalog_graphs_pairwise_non_isomorphic(self):
        for g, h in itertools.combinations(_COMPOSITION_CATALOG, 2):
            assert not isomorphic(g, h), (g, h)

    def test_declined_chain_not_rerun(self, monkeypatch):
        # C5 vs K4 declines every exact rule; its catalog twin C5 gives the
        # left rule "identical", after which C(C5, K4) is not asked again
        rules = []

        def counted_rule(g, h):
            rules.append((g, h))
            return _exact_rule(g, h)

        monkeypatch.setattr(formulas, "_exact_rule", counted_rule)
        formulas._catalog_rule.cache_clear()
        g, h = cycle_graph(5), complete_graph(4)
        bound = dispatch_exponent(g, h)
        assert not bound.exact
        assert len(rules) == 1 + len(_COMPOSITION_CATALOG) == 13
        assert rules.count((g, h)) == 1

    def test_subgraph_searched_once(self, monkeypatch):
        # subgraph_equal_nu and the subgraph-upper step both ask whether
        # K_3,3 contains K_1,3; the query searches once, for the same bound
        calls = []

        def counted(host, pattern):
            calls.append((host, pattern))
            return has_subgraph(host, pattern)

        monkeypatch.setattr(formulas, "has_subgraph", counted)
        bound = dispatch_exponent(star_graph(3), complete_bipartite(3, 3))
        assert calls.count((complete_bipartite(3, 3), star_graph(3))) == 1
        assert (bound.lower, bound.upper, bound.exact) == (Fraction(2, 3), Fraction(1), False)
        assert bound.provenance == ("simple-lower", "crude-upper", "subgraph-upper")

        # K_4 - e and a triangle with two pendant edges at one corner both
        # have nu* = 2, and the second holds no K_4 - e: the declined rule
        # has searched, so the subgraph-upper step does not search again
        g = k4_minus_e()
        h = SimpleGraph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)}))
        assert fractional_matching(g) == fractional_matching(h)
        calls.clear()
        bound = dispatch_exponent(g, h)
        assert calls.count((h, g)) == 1
        assert (bound.lower, bound.upper, bound.exact) == (Fraction(1), Fraction(4), False)
        assert bound.provenance == ("simple-lower", "crude-upper")

    def test_warm_caches_change_no_bound(self):
        # the 900 ordered pairs of connected graphs on 2..5 vertices, each
        # from empty memos and then again with every memo filled
        graphs = [g for n in range(2, 6) for g in enumerate_graphs(n, dedup=True)
                  if g.is_connected()]
        cold = []
        for g in graphs:
            for h in graphs:
                formulas._nu_star.cache_clear()
                formulas._catalog_rule.cache_clear()
                cold.append(bound_tuple(dispatch_exponent(g, h)))
        assert len(cold) == 900
        for _ in range(2):  # the first pass fills the memos, the second finds them full
            assert [bound_tuple(dispatch_exponent(g, h)) for g in graphs for h in graphs] == cold
        assert formulas._catalog_rule.cache_info().hits > 0

    def test_catalog_rule_keys_hold_a_catalog_graph(self, monkeypatch):
        # the composition memo is keyed on (query graph, catalog graph) or
        # (catalog graph, query graph), never on a query pair
        keys = []
        memo_code = formulas._catalog_rule.__wrapped__.__code__

        def recorded(g, h):
            if sys._getframe(1).f_code is memo_code:
                keys.append((g, h))
            return _exact_rule(g, h)

        monkeypatch.setattr(formulas, "_exact_rule", recorded)
        graphs = [g for n in range(2, 5) for g in enumerate_graphs(n, dedup=True)
                  if g.is_connected()] + [star_graph(3), cycle_graph(5)]
        for g in graphs:
            for h in graphs:
                dispatch_exponent(g, h)
        assert len(keys) == formulas._catalog_rule.cache_info().misses > 0
        assert all(g in _COMPOSITION_CATALOG or h in _COMPOSITION_CATALOG for g, h in keys)

    def test_leaves_no_cyclic_garbage(self):
        # no search leaves a reference cycle behind, so each query frees its
        # graphs at once instead of at the next collection
        graphs = [g for n in range(2, 6) for g in enumerate_graphs(n, dedup=True)
                  if g.is_connected()]
        assert len(graphs) ** 2 == 900
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                for h in graphs:
                    dispatch_exponent(g, h)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_exact_rule_implies_homomorphism(self):
        # every rule's hypotheses give a map G -> H, which the composition
        # step relies on instead of testing existence
        graphs = [g for n in range(2, 6) for g in enumerate_graphs(n, dedup=True)
                  if g.is_connected()] + list(_COMPOSITION_CATALOG)
        fired = 0
        for g in graphs:
            for h in graphs:
                if _exact_rule(g, h) is not None:
                    fired += 1
                    assert hom_exists(g, h), (g, h)
        assert fired > len(graphs)

    def test_harvest_lower(self):
        plain = dispatch_exponent(cycle_graph(5), complete_graph(3))
        rich = dispatch_exponent(cycle_graph(5), complete_graph(3), harvest=True)
        assert rich.lower >= plain.lower
        assert rich.lower <= rich.upper

    def test_crossed_bounds_rejected(self):
        with pytest.raises(AssertionError, match="crossed bounds"):
            ExponentBound(Fraction(2), Fraction(1))
        with pytest.raises(GraphError, match="both ends"):
            ExponentBound(Fraction(1))

    def test_exact_when_bounds_meet(self):
        # the printed fields, over the 900 pairs of connected graphs on 2..5
        # vertices and P_1..P_12 against C_3..C_12 (but for the four pairs
        # of equal order above the canonical-form cap of 8 vertices):
        # "exact" says the bounds meet. C(P4, K3) in [2, 2] is one of them.
        graphs = [g for n in range(2, 6) for g in enumerate_graphs(n, dedup=True)
                  if g.is_connected()]
        grid = [dispatch_exponent(g, h).to_data() for g in graphs for h in graphs]
        paths = [dispatch_exponent(path_graph(k), cycle_graph(m)).to_data()
                 for k in range(1, 13) for m in range(3, 13) if k + 1 != m or m <= 8]
        for doc in grid + paths:
            assert doc["exact"] == (doc["lower"] == doc["upper"]), doc
        answered = [doc for doc in grid if doc["upper"] != "nonexistent"]
        assert (len(grid), len(answered)) == (900, 607)
        assert sum(doc["exact"] for doc in answered) == 302
        p4_k3 = dispatch_exponent(path_graph(4), complete_graph(3))
        assert (p4_k3.lower, p4_k3.upper, p4_k3.exact) == (2, 2, True)

    def test_unsound_upper_bound_raises(self, monkeypatch):
        # a rule giving an upper bound below the lower one is reported, not
        # clamped away: C5 vs K3 has lower bound 15/7
        monkeypatch.setattr(formulas, "_crude_bound", lambda g, h: Fraction(1, 100))
        with pytest.raises(AssertionError, match="crossed bounds"):
            dispatch_exponent(cycle_graph(5), complete_graph(3))

    def test_json(self):
        doc = dispatch_exponent(path_graph(5), path_graph(13)).to_data()
        assert doc["lower"] == "17/39" and doc["exact"] is True
        doc = dispatch_exponent(complete_graph(3), complete_graph(2)).to_data()
        assert doc == {"lower": "nonexistent", "upper": "nonexistent", "exact": True,
                       "provenance": ["nonexistent"]}


def fraction_power_harvest(g, h):
    """The former harvest, kept as an oracle: on each of the nine family
    targets, the float ratio's nearest p/q with q <= 60, stepped down by
    1/3600 until t(G,T)^q <= t(H,T)^p holds on Fractions; the best of
    these, or None."""
    best = None
    for kind, sizes in formulas._HARVEST_FAMILIES:
        for n in sizes:
            target = simple_family(kind, n)
            tg, th = hom_density(g, target), hom_density(h, target)
            if not (0 < tg < 1 and 0 < th < 1):
                continue
            r = Fraction(log_fraction(tg) / log_fraction(th)).limit_denominator(60)
            for _ in range(240):
                if r <= 0:
                    break
                if tg ** r.denominator <= th ** r.numerator:
                    best = r if best is None else max(best, r)
                    break
                r -= Fraction(1, 3600)
    return best


class TestHarvest:
    GRAPHS = [g for n in range(2, 6) for g in enumerate_graphs(n, dedup=True) if g.is_connected()]

    def test_sound_on_small_pairs(self):
        # every harvested bound is certified by its witness on integers and
        # stays below every stated upper bound and exact value: a cross-check
        # of the exact rules and upper bounds on the 900 pairs. The corpus's
        # count table counts each of the 30 patterns on it once.
        corpus = formulas._harvest_corpus()
        with_exponent = 0
        for g in self.GRAPHS:
            for h in self.GRAPHS:
                bound = dispatch_exponent(g, h)
                if not bound.exists:
                    continue
                with_exponent += 1
                found = harvest_lower(g, h, corpus)
                if found is None:
                    continue
                r, witness = found
                t = decode_graph(witness, "graph6")
                a, b = hom_count(g, t), hom_count(h, t)
                da, db = t.n ** g.n, t.n ** h.n
                assert a ** r.denominator * db ** r.numerator <= b ** r.numerator * da ** r.denominator
                assert r <= bound.upper, (g, h, r, bound)
        assert with_exponent == 607

    def test_not_below_fraction_power_oracle(self):
        rng = random.Random(11)
        pairs = [(g, h) for g in self.GRAPHS for h in self.GRAPHS
                 if (b := dispatch_exponent(g, h)).exists and not b.exact]
        assert len(pairs) == 305
        for g, h in rng.sample(pairs, 4):
            old = fraction_power_harvest(g, h)
            new = harvest_lower(g, h, formulas._harvest_corpus())
            assert old is None or new[0] >= old, (g, h, old, new)

    def test_provenance_names_the_witness(self):
        bound = dispatch_exponent(path_graph(3), star_graph(4), harvest=True)
        assert bound.lower == Fraction(1575, 1216)
        assert bound.provenance[-1] == "harvested(Esa?)"
        plain = dispatch_exponent(path_graph(3), star_graph(4))
        assert plain.lower == Fraction(4, 5) and plain.upper == bound.upper
        assert harvest_lower(path_graph(3), star_graph(4), formulas._harvest_corpus()) \
            == (bound.lower, "Esa?")
