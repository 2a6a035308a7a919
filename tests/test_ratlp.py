import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from homdom import formulas, ratlp
from homdom.formulas import fractional_matching
from homdom.graphs import (GraphError, HomdomError, SimpleGraph, cycle_graph, enumerate_graphs,
                           star_graph)
from homdom.ratlp import (
    LPError,
    LPProblem,
    check_kr_certificate,
    kr_dual_certificate,
    kr_lp,
    lp_from_json,
    lp_to_json,
    make_lp,
    solution_to_data,
    solve_lp,
    frac_to_str,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_simplex_oracle(c, arows, b):
    """The reference for ratlp._simplex_canonical: the same Bland two-phase
    simplex on a Fraction tableau, dividing the pivot row by its pivot.

    Returns (status, optimum, x, y) where y is the dual of the <= rows
    (y >= 0, y.A >= c on every column, c.x = y.b at optimality).
    """
    m = len(arows)
    n = len(c)
    # columns: 0..n-1 structural, n..n+m-1 slack, then artificials
    sign = [1] * m  # row multiplied by -1 when b < 0
    rows = []
    rhs = []
    for i in range(m):
        row = list(arows[i]) + [ZERO] * m
        row[n + i] = ONE
        bi = b[i]
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
            sign[i] = -1
        rows.append(row)
        rhs.append(bi)
    art = [i for i in range(m) if sign[i] < 0]
    total = n + m + len(art)
    for k, i in enumerate(art):
        for r in range(m):
            rows[r].append(ONE if r == i else ZERO)
    basis = []
    for i in range(m):
        basis.append(n + i if sign[i] > 0 else n + m + art.index(i))

    def pivot(r, col):
        inv = ONE / rows[r][col]
        prow = rows[r] = [v * inv if v else v for v in rows[r]]
        rhs[r] *= inv
        pb = rhs[r]
        # the other rows change only where the pivot row is nonzero
        support = [j for j, p in enumerate(prow) if p]
        for rr in range(m):
            if rr == r:
                continue
            row = rows[rr]
            f = row[col]
            if f:
                for j in support:
                    row[j] -= f * prow[j]
                rhs[rr] -= f * pb
        basis[r] = col

    def run_phase(cost, allowed):
        # maximize cost.x restricted to allowed columns; Bland's rule
        while True:
            # reduced costs: cost_j - cB . column_j, over the basic rows
            # whose cost is nonzero
            basic = set(basis)
            priced = [(cost[basis[r]], rows[r]) for r in range(m) if cost[basis[r]]]
            enter = -1
            for j in range(total):
                if not allowed[j] or j in basic:
                    continue
                rc = cost[j] - sum(cb * row[j] for cb, row in priced)
                if rc > 0:
                    enter = j
                    break  # Bland: first improving index
            if enter < 0:
                return "optimal"
            ratio = None
            leave = -1
            for r in range(m):
                a = rows[r][enter]
                if a > 0:
                    t = rhs[r] / a
                    if ratio is None or t < ratio or (t == ratio and basis[r] < basis[leave]):
                        ratio = t
                        leave = r
            if leave < 0:
                return "unbounded"
            pivot(leave, enter)

    if art:
        cost1 = [ZERO] * total
        for k in range(len(art)):
            cost1[n + m + k] = Fraction(-1)
        allowed = [True] * total
        status = run_phase(cost1, allowed)
        assert status == "optimal"  # phase 1 is always bounded
        val1 = sum(cost1[basis[r]] * rhs[r] for r in range(m))
        if val1 != 0:
            return "infeasible", None, None, None
        # drive remaining artificials out of the basis
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if rows[r][j] != 0:
                        pivot(r, j)
                        break
                # an all-zero row is redundant; its artificial stays basic
                # at value 0 and never re-enters (cost column disabled below)

    cost2 = list(c) + [ZERO] * (total - n)
    allowed = [True] * (n + m) + [False] * len(art)
    status = run_phase(cost2, allowed)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = rhs[r]
    opt = sum(ci * xi for ci, xi in zip(c, x))
    # dual of row i = multiplier read off its slack column; the build-time
    # row negation is already baked into that column, so no sign fixup
    y = []
    for i in range(m):
        zj = sum(cost2[basis[r]] * rows[r][n + i] for r in range(m))
        y.append(zj)
    return "optimal", opt, x, y


def fraction_canonicalize_oracle(p):
    """The reference for ratlp._canonicalize, on Fractions: rewrite an
    LPProblem as max c~.x~, A~ x~ <= b~, x~ >= 0.

    Free variables split into differences; = rows become two inequalities;
    >= rows are negated. Returns the canonical data plus the recovery maps.
    """
    n = p.num_vars
    colmap = []  # per original var: (pos_col, neg_col or None)
    ncols = 0
    for j in range(n):
        if p.nonneg[j]:
            colmap.append((ncols, None))
            ncols += 1
        else:
            colmap.append((ncols, ncols + 1))
            ncols += 2
    csign = 1 if p.sense == "max" else -1
    c = [ZERO] * ncols
    for j in range(n):
        pos, neg = colmap[j]
        c[pos] = csign * p.objective[j]
        if neg is not None:
            c[neg] = -csign * p.objective[j]
    arows = []
    b = []
    rowmap = []  # per original row: (canonical index, kind)
    for coeffs, rel, rhs in p.rows:
        def widen(vec, flip=False):
            row = [ZERO] * ncols
            for j in range(n):
                pos, neg = colmap[j]
                v = -vec[j] if flip else vec[j]
                row[pos] = v
                if neg is not None:
                    row[neg] = -v
            return row

        if rel == "<=":
            rowmap.append((len(arows), "le"))
            arows.append(widen(coeffs))
            b.append(rhs)
        elif rel == ">=":
            rowmap.append((len(arows), "ge"))
            arows.append(widen(coeffs, flip=True))
            b.append(-rhs)
        else:
            rowmap.append((len(arows), "eq"))
            arows.append(widen(coeffs))
            b.append(rhs)
            arows.append(widen(coeffs, flip=True))
            b.append(-rhs)
    return c, arows, b, colmap, rowmap, csign


def random_lp(rng):
    """A small LP with fractional data, free variables and = rows."""
    n = rng.randint(1, 5)

    def q():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))

    rows = [([q() for _ in range(n)], rng.choice(["<=", ">=", "="]), q())
            for _ in range(rng.randint(1, 6))]
    return make_lp(rng.choice(["max", "min"]), [q() for _ in range(n)], rows,
                   nonneg=[rng.random() < 0.6 for _ in range(n)])


def assert_matches_oracle(lp):
    """The integer simplex and the Fraction oracle agree exactly on the
    canonical form, and solve_lp's duality certificate accepts the result."""
    c, arows, b, *_ = ratlp._canonicalize(lp)
    got = ratlp._simplex_canonical(c, arows, b)
    assert got == fraction_simplex_oracle(c, arows, b), lp
    assert all(type(v) is Fraction for v in (got[2] or []) + (got[3] or []))
    return solve_lp(lp).status


def assert_integer_canonical_form(lp):
    """ratlp._canonicalize is the Fraction canonical form with each row
    scaled by its lam and the objective by mu, on ints."""
    c, arows, b, mu, lam, colmap, rowmap, csign = ratlp._canonicalize(lp)
    want_c, want_rows, want_b, *want_maps = fraction_canonicalize_oracle(lp)
    assert all(type(v) is int for v in c + b + [x for row in arows for x in row]), lp
    kinds = {"<=": "le", ">=": "ge", "=": "eq"}
    assert [colmap, [(i, kinds[rel]) for i, rel in rowmap], csign] == want_maps
    assert len(lam) == len(want_rows) == len(arows)
    for row, rhs, scale, want_row, want_rhs in zip(arows, b, lam, want_rows, want_b):
        assert row == [scale * v for v in want_row] and rhs == scale * want_rhs, lp
    assert c == [mu * v for v in want_c], lp


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

    def test_matches_fraction_oracle_random(self):
        rng = random.Random(2024)
        statuses = Counter(assert_matches_oracle(random_lp(rng)) for _ in range(1000))
        # about 200 optimal, 450 infeasible and 350 unbounded; most of the
        # optimal ones drive a degenerate artificial out on a negative pivot
        assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 150

    def test_integer_canonical_form(self):
        rng = random.Random(2024)  # the LPs of test_matches_fraction_oracle_random
        for _ in range(1000):
            assert_integer_canonical_form(random_lp(rng))
        for i in range(2, 31):
            assert_integer_canonical_form(kr_lp(i))

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
        with pytest.raises(AssertionError, match="differ"):
            fractional_matching(cycle_graph(5))

    def test_certificate_rejects_an_overloaded_vertex(self, monkeypatch):
        # every leaf of the star K_{1,3} matched to the centre's copy
        monkeypatch.setattr(formulas, "_double_cover_matching", lambda adj: [1, 0, 0, 0])
        with pytest.raises(AssertionError, match="overloads"):
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
        assert check_kr_certificate(i, kr_lp(i))

    def test_certificate_structure(self):
        mult = kr_dual_certificate(3)
        assert mult[6] == -5
        assert mult[7] == mult[8] == Fraction(1, 2)
        assert all(m == 0 for k, m in enumerate(mult) if k not in (6, 7, 8))

    def test_bad_index(self):
        with pytest.raises(LPError):
            kr_lp(1)

    def test_matches_fraction_oracle(self):
        for i in range(2, 31):
            assert assert_matches_oracle(kr_lp(i)) == "optimal"


class TestJSON:
    def test_fraction_strings(self):
        assert frac_to_str(Fraction(3, 2)) == "3/2"
        assert frac_to_str(Fraction(4)) == "4"

    def test_fraction_strings_digit_cap(self):
        # 4299 digits print, as Python's int to text does; 4300 are refused
        top = 10 ** 4299
        assert frac_to_str(Fraction(-(top - 1), top - 2)) == f"{-(top - 1)}/{top - 2}"
        for x in (Fraction(top), Fraction(-top, 3), Fraction(1, top)):
            with pytest.raises(HomdomError, match="4300 or more digits"):
                frac_to_str(x)

    def test_lp_roundtrip(self):
        lp = kr_lp(3)
        again = lp_from_json(lp_to_json(lp))
        assert again == lp
        assert solve_lp(again).optimum == 5

    def test_solution_json(self):
        doc = solution_to_data(solve_lp(kr_lp(2)))
        assert doc["status"] == "optimal" and doc["optimum"] == "3"
        doc = solution_to_data(solve_lp(make_lp("max", [1], [([1], ">=", 2), ([1], "<=", 1)])))
        assert doc == {"status": "infeasible"}
