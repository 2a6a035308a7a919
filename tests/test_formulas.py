import itertools
from fractions import Fraction

import pytest

from homdom import formulas
from homdom.graphs import (
    GraphError,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    k4_minus_e,
    path_graph,
    star_graph,
    triangle_pendant,
)
from homdom.formulas import (
    _COMPOSITION_CATALOG,
    _exact_rule,
    ExponentBound,
    crude_upper,
    dispatch_exponent,
    edge_exponent,
    even_cycle_exponent,
    exists_exponent,
    fractional_matching,
    hamiltonian_exponent,
    has_path_cover,
    has_subgraph,
    is_hamiltonian,
    kk_exponent,
    odd_cycle_bounds,
    p2_exponent,
    path_exponent,
    simple_lower,
    subgraph_equal_nu,
)
from homdom.homcount import hom_exists


class TestExistence:
    def test_basic(self):
        assert exists_exponent(complete_graph(2), complete_graph(3))
        assert not exists_exponent(complete_graph(3), complete_graph(2))
        assert not exists_exponent(cycle_graph(5), cycle_graph(4))
        assert exists_exponent(cycle_graph(4), complete_graph(2))
        assert not exists_exponent(cycle_graph(11), complete_bipartite(6, 6))


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


class TestHamiltonian:
    def test_detector(self):
        assert is_hamiltonian(complete_graph(4))
        assert is_hamiltonian(cycle_graph(5))
        assert not is_hamiltonian(path_graph(3))
        assert not is_hamiltonian(star_graph(3))
        assert not is_hamiltonian(complete_graph(2))

    def test_exponent(self):
        # C(C_8, K_4) = even_cycle_exponent(4, 4)
        assert hamiltonian_exponent(4, complete_graph(4)) == \
            even_cycle_exponent(4, 4)
        assert hamiltonian_exponent(2, complete_graph(3)) == Fraction(8, 5)
        with pytest.raises(GraphError):
            hamiltonian_exponent(1, complete_graph(4))  # 2k < v(H)
        with pytest.raises(GraphError):
            hamiltonian_exponent(3, path_graph(3))


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

    def test_has_subgraph(self):
        assert has_subgraph(complete_graph(4), cycle_graph(4))
        assert not has_subgraph(complete_bipartite(2, 3), complete_graph(3))


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
        # K_1,3 vs K_3 reaches the composition step: the query's own check
        # and crude_upper's guard are its only existence tests
        exists, rules = [], []

        def counted_exists(g, h):
            exists.append((g, h))
            return hom_exists(g, h)

        def counted_rule(g, h):
            rules.append((g, h))
            return _exact_rule(g, h)

        monkeypatch.setattr(formulas, "hom_exists", counted_exists)
        monkeypatch.setattr(formulas, "_exact_rule", counted_rule)
        bound = dispatch_exponent(star_graph(3), complete_graph(3))
        assert not bound.exact
        assert {h for _, h in rules} >= set(_COMPOSITION_CATALOG)
        assert len(exists) <= 2

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
        with pytest.raises(GraphError):
            ExponentBound(Fraction(2), Fraction(1))
        with pytest.raises(GraphError):
            ExponentBound(Fraction(1), Fraction(2), exact=True)

    def test_json(self):
        import json
        bound = dispatch_exponent(path_graph(5), path_graph(13))
        doc = json.loads(bound.to_json())
        assert doc["lower"] == "17/39" and doc["exact"] is True
        doc = json.loads(dispatch_exponent(complete_graph(3),
                                           complete_graph(2)).to_json())
        assert doc["lower"] == "nonexistent"
