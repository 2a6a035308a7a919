import itertools
import random
from fractions import Fraction

import pytest

from homdom import formulas
from homdom.formulas import fractional_matching
from homdom.graphs import GraphError, SimpleGraph, cycle_graph, enumerate_graphs, star_graph
from homdom.ratlp import (
    LPError,
    LPProblem,
    check_kr_certificate,
    kr_dual_certificate,
    kr_lp,
    lp_from_json,
    lp_to_json,
    make_lp,
    solution_to_json,
    solve_lp,
    frac_to_str,
)


class TestBasicSolves:
    def test_tiny_max(self):
        # max x + y, x + 2y <= 4, 3x + y <= 6, x, y >= 0
        lp = make_lp("max", [1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.optimum == Fraction(14, 5)
        assert sol.primal == (Fraction(8, 5), Fraction(6, 5))

    def test_tiny_min_with_equality(self):
        # min x + y, x + y = 3, x - y >= 1, nonneg
        lp = make_lp("min", [1, 1], [([1, 1], "=", 3), ([1, -1], ">=", 1)])
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.optimum == 3

    def test_free_variables(self):
        # min z, z >= x, z >= -x, x free: optimum 0
        lp = make_lp("min", [0, 1],
                     [([-1, 1], ">=", 0), ([1, 1], ">=", 0)],
                     nonneg=[False, False])
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.optimum == 0

    def test_infeasible(self):
        lp = make_lp("max", [1], [([1], "<=", 1), ([1], ">=", 2)])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = make_lp("max", [1], [([-1], "<=", 1)])
        assert solve_lp(lp).status == "unbounded"

    def test_negative_rhs(self):
        # min x, x >= -3 handled through the b < 0 path
        lp = make_lp("min", [1], [([1], ">=", -3)], nonneg=[False])
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.optimum == -3

    def test_dual_strong_duality(self):
        lp = make_lp("max", [3, 5],
                     [([1, 0], "<=", 4), ([0, 2], "<=", 12), ([3, 2], "<=", 18)])
        sol = solve_lp(lp)
        assert sol.optimum == 36
        yb = sum(y * rhs for y, (_, _, rhs) in zip(sol.dual, lp.rows))
        assert yb == sol.optimum

    def test_random_lps_verified(self):
        # the solver self-verifies by exact duality; these must not raise
        rng = random.Random(17)
        solved = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            rows = []
            for _ in range(m):
                coeffs = [rng.randint(-3, 3) for _ in range(n)]
                rows.append((coeffs, rng.choice(["<=", ">=", "="]),
                             rng.randint(-4, 4)))
            lp = make_lp(rng.choice(["max", "min"]),
                         [rng.randint(-3, 3) for _ in range(n)], rows,
                         nonneg=[rng.random() < 0.7 for _ in range(n)])
            sol = solve_lp(lp)
            assert sol.status in ("optimal", "infeasible", "unbounded")
            solved += sol.status == "optimal"
        assert solved > 5

    def test_dimension_cap(self):
        with pytest.raises(LPError):
            make_lp("max", [1] * 500, [])

    def test_bad_inputs(self):
        with pytest.raises(LPError):
            LPProblem("best", (Fraction(1),), (), (True,))
        with pytest.raises(LPError):
            make_lp("max", [1], [([1, 2], "<=", 1)])
        with pytest.raises(LPError):
            make_lp("max", [1], [([1], "<", 1)])


def lp_fractional_matching(h):
    """nu*(H) by the exact LP: max sum x_e, x >= 0, sum_{e at v} x_e <= 1."""
    edges = sorted(h.edges)
    rows = [([1 if v in e else 0 for e in edges], "<=", 1) for v in range(h.n)]
    sol = solve_lp(make_lp("max", [1] * len(edges), rows))
    assert sol.status == "optimal"
    return sol.optimum


class TestFractionalMatchingLP:
    """fractional_matching reads nu* off a matching of the double cover;
    the LP it replaced stays here as the oracle."""

    def test_matches_lp_oracle_small(self):
        for n in range(2, 7):
            for g in enumerate_graphs(n, dedup=True):
                if g.num_edges == 0:
                    continue
                nu = fractional_matching(g)
                assert nu == lp_fractional_matching(g), g
                assert (2 * nu).denominator == 1

    def test_matches_lp_oracle_random(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(7, 10)
            p = rng.choice([0.15, 0.3, 0.5])
            edges = frozenset(
                e for e in itertools.combinations(range(n), 2) if rng.random() < p
            ) or frozenset([(0, 1)])
            g = SimpleGraph(n, edges)
            assert fractional_matching(g) == lp_fractional_matching(g), g

    def test_odd_cycle_value(self):
        assert fractional_matching(cycle_graph(5)) == Fraction(5, 2)
        assert fractional_matching(cycle_graph(7)) == Fraction(7, 2)

    def test_no_edges(self):
        with pytest.raises(GraphError):
            fractional_matching(SimpleGraph(3))

    def test_certificate_rejects_a_smaller_matching(self, monkeypatch):
        real = formulas._double_cover_matching

        def drop_one(adj):
            mate = real(adj)
            mate[next(v for v, u in enumerate(mate) if u >= 0)] = -1
            return mate

        monkeypatch.setattr(formulas, "_double_cover_matching", drop_one)
        with pytest.raises(LPError, match="differ"):
            fractional_matching(cycle_graph(5))

    def test_certificate_rejects_an_overloaded_vertex(self, monkeypatch):
        # every leaf of the star K_{1,3} matched to the centre's copy
        monkeypatch.setattr(formulas, "_double_cover_matching", lambda adj: [1, 0, 0, 0])
        with pytest.raises(LPError, match="overloads"):
            fractional_matching(star_graph(3))


class TestKRFamily:
    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_optimum(self, i):
        lp = kr_lp(i)
        assert len(lp.rows) == 16
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.optimum == 2 * i - 1

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_certificate(self, i):
        assert check_kr_certificate(i)

    def test_certificate_structure(self):
        mult = kr_dual_certificate(3)
        assert mult[6] == -5
        assert mult[7] == mult[8] == Fraction(1, 2)
        assert all(m == 0 for k, m in enumerate(mult) if k not in (6, 7, 8))

    def test_bad_index(self):
        with pytest.raises(LPError):
            kr_lp(1)


class TestJSON:
    def test_fraction_strings(self):
        assert frac_to_str(Fraction(3, 2)) == "3/2"
        assert frac_to_str(Fraction(4)) == "4"

    def test_lp_roundtrip(self):
        lp = kr_lp(3)
        again = lp_from_json(lp_to_json(lp))
        assert again == lp
        assert solve_lp(again).optimum == 5

    def test_solution_json(self):
        import json
        sol = solve_lp(kr_lp(2))
        doc = json.loads(solution_to_json(sol))
        assert doc["status"] == "optimal" and doc["optimum"] == "3"
        doc = json.loads(solution_to_json(
            solve_lp(make_lp("max", [1], [([1], ">=", 2), ([1], "<=", 1)]))))
        assert doc == {"status": "infeasible"}
