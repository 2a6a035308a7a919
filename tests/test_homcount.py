import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from homdom.graphs import (
    GraphError,
    SimpleGraph,
    blowup,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    k4_minus_e,
    path_graph,
    tensor_product,
)
from homdom.homcount import (
    ResourceLimitError,
    WalkCounter,
    WeightedPattern,
    WeightedTarget,
    cycle_hom_count,
    hom_count,
    hom_density,
    tropical_tree_exponent,
    weighted_hom_density,
)
from homdom import homcount
from homdom.homcount import _backtrack, hom_counts, hom_exists
from homdom.constructions import ProjectivePlaneSpec, path_blowup_pattern, red_line_graph
from homdom.verifier import CorpusSpec, _corpus_densities, build_corpus


def hom_count_brute(h, t):
    """Independent oracle: enumerate all v(T)^v(H) maps."""
    adj = t.adjacency_lists()
    count = 0
    for phi in itertools.product(range(t.n), repeat=h.n):
        if all(phi[b] in adj[phi[a]] for a, b in h.edges):
            count += 1
    return count


def random_graph(rng, n, p=0.5):
    edges = frozenset(
        pair for pair in itertools.combinations(range(n), 2) if rng.random() < p
    )
    return SimpleGraph(n, edges)


class TestHomCount:
    def test_golden(self):
        k3 = complete_graph(3)
        assert hom_count(complete_graph(2), k3) == 6
        assert hom_count(cycle_graph(3), k3) == 6
        assert hom_count(cycle_graph(4), k3) == 18

    def test_empty_pattern(self):
        assert hom_count(SimpleGraph(0, frozenset()), complete_graph(3)) == 1
        assert hom_count(SimpleGraph(0, frozenset()), SimpleGraph(0, frozenset())) == 1

    def test_empty_target(self):
        assert hom_count(SimpleGraph(2, frozenset()), SimpleGraph(0, frozenset())) == 0
        assert hom_count(complete_graph(2), SimpleGraph(0, frozenset())) == 0

    def test_against_brute_force(self):
        rng = random.Random(2)
        for _ in range(60):
            h = random_graph(rng, rng.randint(1, 4))
            t = random_graph(rng, rng.randint(1, 5))
            assert hom_count(h, t) == hom_count_brute(h, t)

    def test_disconnected_patterns(self):
        rng = random.Random(9)
        for _ in range(20):
            h = disjoint_union(random_graph(rng, 3), random_graph(rng, 2))
            t = random_graph(rng, 4)
            assert hom_count(h, t) == hom_count_brute(h, t)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            hom_count(complete_graph(4), complete_graph(30), max_steps=10)


class TestDensity:
    def test_golden(self):
        assert hom_density(complete_graph(2), complete_graph(3)) == Fraction(2, 3)
        assert hom_density(cycle_graph(4), complete_graph(2)) == Fraction(1, 8)
        assert hom_density(cycle_graph(4), complete_graph(3)) == Fraction(2, 9)

    def test_empty_target(self):
        with pytest.raises(GraphError):
            hom_density(complete_graph(2), SimpleGraph(0, frozenset()))

    def test_tensor_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4))
            t1 = random_graph(rng, rng.randint(1, 4))
            t2 = random_graph(rng, rng.randint(1, 4))
            assert hom_density(g, tensor_product(t1, t2)) == \
                hom_density(g, t1) * hom_density(g, t2)

    def test_union_multiplicative(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, 3)
            h = random_graph(rng, 3)
            t = random_graph(rng, 4)
            if t.n == 0:
                continue
            assert hom_density(disjoint_union(g, h), t) == \
                hom_density(g, t) * hom_density(h, t)


class TestBlowupCounting:
    def test_blowup_inequality(self):
        # t(H'(a_1..a_k), T) >= t(H, T)^(a_1 a_2 ... a_k), 50 seeded instances
        rng = random.Random(50)
        checked = 0
        while checked < 50:
            h = random_graph(rng, rng.randint(2, 4), p=0.6)
            mult = [rng.randint(1, 3) for _ in range(h.n)]
            t = random_graph(rng, rng.randint(1, 5))
            if t.n == 0:
                continue
            prod = 1
            for a in mult:
                prod *= a
            b = blowup(h, mult)
            lhs = Fraction(hom_count(b, t), t.n ** b.n)
            rhs = hom_density(h, t) ** prod
            assert lhs >= rhs
            checked += 1


class TestWalkCounting:
    def test_path_and_cycle_golden(self):
        k3 = complete_graph(3)
        assert cycle_hom_count(3, k3) == 6
        assert cycle_hom_count(4, k3) == 18
        assert hom_count(path_graph(2), complete_graph(2)) == 2

    def test_cycle_matches_hom_count(self):
        rng = random.Random(12)
        for m in range(3, 7):
            for _ in range(8):
                t = random_graph(rng, rng.randint(1, 6))
                assert cycle_hom_count(m, t) == hom_count(cycle_graph(m), t)


class TestRootedCycles:
    """Homomorphisms of C_a sending one labelled edge to (u, v) number
    A^(a-1)[v, u], the entries that check_eq_main sums."""

    def test_k3(self):
        walks = WalkCounter(complete_graph(3).adjacency_matrix())
        assert walks.entries(2, [1], [0]) == [1]
        assert walks.entries(3, [1], [0]) == [3]

    def test_partition_identity(self):
        rng = random.Random(21)
        for a in (3, 4, 5):
            for _ in range(6):
                t = random_graph(rng, 5)
                walks = WalkCounter(t.adjacency_matrix())
                us, vs = zip(*t.edges) if t.edges else ((), ())
                total = sum(walks.entries(a - 1, vs, us)) + sum(walks.entries(a - 1, us, vs))
                assert total == hom_count(cycle_graph(a), t)


def int_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def int_matpow(a, k):
    """Oracle: A^k by square-and-multiply on Python ints."""
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    base = [list(r) for r in a]
    while k:
        if k & 1:
            result = int_matmul(result, base)
        base = int_matmul(base, base)
        k >>= 1
    return result


def int_adjacency(t):
    return [[int(t.has_edge(u, v)) for v in range(t.n)] for u in range(t.n)]


class TestWalkCounter:
    def test_matches_integer_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            t = random_graph(rng, rng.randint(0, 8), rng.random())
            walks = WalkCounter(t.adjacency_matrix())
            a = int_adjacency(t)
            rows, cols = zip(*itertools.product(range(t.n), repeat=2)) if t.n else ((), ())
            for m in range(1, 9):
                am = int_matpow(a, m)
                assert walks.closed(m) == sum(am[i][i] for i in range(t.n))
                assert walks.entries(m, rows, cols) == [am[i][j] for i, j in zip(rows, cols)]
                assert type(walks.closed(m)) is int

    @pytest.mark.parametrize("n, m, dtype", [
        (5, 8, np.float32),   # entries of A^4 <= 4^3
        (9, 18, np.float64),  # entries of A^9 <= 8^8 = 2^24
        (9, 38, object),      # entries of A^19 <= 8^18 = 2^54
    ])
    def test_complete_graph_tiers(self, n, m, dtype):
        walks = WalkCounter(complete_graph(n).adjacency_matrix())
        d = n - 1
        assert walks.closed(m) == d ** m + d * (-1) ** m
        assert walks.full.powers[m - m // 2].dtype == dtype
        off, diag = (d ** m - (-1) ** m) // n, (d ** m + d * (-1) ** m) // n
        assert walks.entries(m, [0, 0, n - 1], [1, 0, n - 1]) == [off, diag, diag]

    @pytest.mark.parametrize("a, b, m, dtype", [
        (3, 4, 8, np.float32),   # entries of M^2 = A^4 <= 4^3
        (7, 7, 20, np.float64),  # entries of M^5 = A^10 <= 7^9 > 2^24
        (7, 7, 38, object),      # entries of M^10 = A^20 <= 7^19 > 2^53
    ])
    def test_complete_bipartite_tiers(self, a, b, m, dtype):
        walks = WalkCounter(complete_bipartite(a, b).adjacency_matrix())
        assert walks.closed(m) == 2 * (a * b) ** (m // 2) and walks.closed(m + 1) == 0
        j = m // 2
        assert walks.half.powers[j - j // 2].dtype == dtype
        assert len(walks.half.powers[1]) == min(a, b)

    def test_bipartite_half_block(self):
        rng = random.Random(32)
        for _ in range(10):
            left, right = rng.randint(1, 6), rng.randint(1, 6)
            label = list(range(left + right))
            rng.shuffle(label)
            edges = [(label[u], label[left + v]) for u in range(left) for v in range(right)
                     if rng.random() < 0.5]
            t = SimpleGraph(left + right + 2, frozenset(edges))  # two isolated vertices
            walks = WalkCounter(t.adjacency_matrix())
            assert walks.half is not None
            a = int_adjacency(t)
            for m in range(1, 11):
                am = int_matpow(a, m)
                assert walks.closed(m) == sum(am[i][i] for i in range(t.n))
                if m % 2:
                    assert walks.closed(m) == 0
        assert WalkCounter(cycle_graph(5).adjacency_matrix()).half is None
        odd = disjoint_union(cycle_graph(4), complete_graph(3))
        assert WalkCounter(odd.adjacency_matrix()).half is None


class TestWeightedTargets:
    def test_single_class(self):
        w = WeightedTarget((Fraction(1),), ((Fraction(1, 2),),))
        assert weighted_hom_density(complete_graph(2), w) == Fraction(1, 2)

    def test_two_class_bipartite(self):
        w = WeightedTarget(
            (Fraction(1), Fraction(1)),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        assert weighted_hom_density(cycle_graph(4), w) == Fraction(1, 8)

    def test_oracle_equivalence(self):
        # from_simple_graph reproduces the simple density for all H, T <= 4
        targets = list(enumerate_graphs(4, dedup=True))
        patterns = list(enumerate_graphs(4, dedup=True))
        for t in targets:
            w = WeightedTarget.from_simple_graph(t)
            for h in patterns:
                assert weighted_hom_density(h, w) == hom_density(h, t)

    def test_matches_brute_force(self):
        # the engine against a q^v(H) sum over class assignments, on seeded
        # random step graphons and patterns with isolated vertices and
        # several components
        rng = random.Random(31)
        for _ in range(40):
            q = rng.randint(1, 4)
            weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(q))
            dens = [[Fraction(0)] * q for _ in range(q)]
            for i in range(q):
                for j in range(i, q):
                    dens[i][j] = dens[j][i] = Fraction(rng.randint(0, 6), 6)
            w = WeightedTarget(weights, tuple(map(tuple, dens)))
            h = random_graph(rng, rng.randint(0, 5), rng.random())
            assert weighted_hom_density(h, w) == weighted_density_brute(h, w)
        w = WeightedTarget((Fraction(1), Fraction(2), Fraction(3)),
                           ((0, Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 3), 0),
                            (1, 0, Fraction(1, 4))))
        for h in (path_graph(3), cycle_graph(4), cycle_graph(5), k4_minus_e(),
                  complete_graph(4), disjoint_union(cycle_graph(3), SimpleGraph(2))):
            assert weighted_hom_density(h, w) == weighted_density_brute(h, w)


def weighted_density_brute(h, w):
    """Oracle: t(H, W) as a sum over all q^v(H) class assignments."""
    q = w.num_classes
    u = [x / w.total_weight for x in w.weights]
    total = Fraction(0)
    for phi in itertools.product(range(q), repeat=h.n):
        term = Fraction(1)
        for v in range(h.n):
            term *= u[phi[v]]
        for a, b in h.edges:
            term *= w.density[phi[a]][phi[b]]
        total += term
    return total


class TestEliminationEngine:
    def test_matches_backtracker(self):
        rng = random.Random(41)
        for _ in range(150):
            h = random_graph(rng, rng.randint(1, 6), rng.random())
            if rng.random() < 0.3:
                h = disjoint_union(h, random_graph(rng, rng.randint(1, 3)))
            t = random_graph(rng, rng.randint(1, 9), rng.random())
            want = _backtrack(h, t.adjacency_matrix(), None)
            assert hom_count(h, t) == want
            assert hom_exists(h, t) == (want > 0)
            assert (_backtrack(h, t.adjacency_matrix(), None, first=True) > 0) == (want > 0)
            if h.n <= 4 and t.n <= 5:
                assert want == hom_count_brute(h, t)

    def test_batched_matches_single(self):
        rng = random.Random(42)
        for n in (1, 4, 7):
            targets = [random_graph(rng, n, rng.random()) for _ in range(12)]
            adjs = np.stack([t.adjacency_matrix() for t in targets])
            for _ in range(6):
                h = random_graph(rng, rng.randint(0, 5), 0.6)
                assert hom_counts(h, adjs) == [hom_count(h, t) for t in targets]

    def test_corpus_densities_match_single(self):
        corpus = build_corpus(CorpusSpec(exhaustive_n=4, gnp_count=10, gnp_n=7))
        for h in (cycle_graph(3), k4_minus_e(), disjoint_union(path_graph(2), SimpleGraph(1))):
            got = _corpus_densities(h, corpus, None)
            assert [Fraction(a, d) for a, d in got] == [hom_density(h, t) for _, t in corpus]

    def test_beyond_int64(self):
        # 9^22 >= 2**63 forces the Python-int pass; both counts exceed int64
        k9 = complete_graph(9)
        assert hom_count(path_graph(21), k9) == 9 * 8 ** 21 > 2 ** 63
        assert hom_count(cycle_graph(22), k9) == 8 ** 22 + 8 > 2 ** 63
        stack = np.stack([k9.adjacency_matrix()] * 3)
        assert hom_counts(path_graph(21), stack) == [9 * 8 ** 21] * 3

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _backtrack(*args)

        monkeypatch.setattr(homcount, "_backtrack", counted)
        return calls

    def test_max_steps_falls_back_to_backtracker(self, fallbacks):
        # the plan for C4 on 40 vertices costs about 2 * 40^3 multiply-adds;
        # the backtracker needs far fewer on a sparse target and finishes
        t = disjoint_union(cycle_graph(20), cycle_graph(20))
        assert hom_count(cycle_graph(4), t) == cycle_hom_count(4, t) and not fallbacks
        assert hom_count(cycle_graph(4), t, max_steps=10 ** 4) == cycle_hom_count(4, t)
        assert len(fallbacks) == 1
        with pytest.raises(ResourceLimitError):
            hom_count(cycle_graph(4), t, max_steps=50)
        with pytest.raises(ResourceLimitError):
            hom_counts(complete_graph(4), np.stack([complete_graph(30).adjacency_matrix()] * 2),
                       max_steps=10)

    def test_ceiling_keeps_every_target_of_the_stack(self, fallbacks):
        # the error of the target past the ceiling carries the other
        # targets' counts, so a caller need not count them again
        stack = np.stack([complete_graph(30).adjacency_matrix(),
                          disjoint_union(cycle_graph(4), SimpleGraph(26)).adjacency_matrix()])
        with pytest.raises(ResourceLimitError) as info:
            hom_counts(cycle_graph(4), stack, max_steps=200)
        first, second = info.value.counts
        assert isinstance(first, ResourceLimitError) and second == 32  # 2^4 + (-2)^4
        assert len(fallbacks) == 2

    def test_entry_cap_falls_back_to_backtracker(self, fallbacks):
        # K5 on 100 vertices needs a factor of 100^4 entries, past the cap
        t = disjoint_union(complete_graph(5), SimpleGraph(95))
        assert hom_count(complete_graph(5), t) == 120 and len(fallbacks) == 1


class TestCliqueGuard:
    """hom_exists refuses a pair whose pattern has a clique the target
    lacks before it would start the backtracker."""

    def test_has_clique_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            masks = g.adjacency_masks()
            for r in range(g.n + 2):
                want = any(all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))
                           for s in itertools.combinations(range(g.n), r))
                assert homcount._has_clique(masks, r) == want, (g, r)

    def test_guard_agrees_with_backtracker(self, monkeypatch):
        # with elimination switched off, every pair reaches the guard; each
        # pair it refuses has no map, and hom_exists agrees with the search
        monkeypatch.setattr(homcount, "_eliminate", lambda *args, **kwargs: None)
        rng = random.Random(29)
        refused = 0
        for _ in range(300):
            h = random_graph(rng, rng.randint(1, 6), rng.random())
            t = random_graph(rng, rng.randint(1, 7), rng.random())
            want = _backtrack(h, t.adjacency_matrix(), None, first=True) > 0
            r = homcount._clique_number(h.adjacency_masks())
            fits = homcount._has_clique(t.adjacency_masks(), r)
            refused += not fits
            assert fits or not want, (h, t)
            assert hom_exists(h, t) == want, (h, t)
        assert refused > 20


class TestWalkRouting:
    """hom_count sends cycles and K2 on targets of more than 64 vertices to
    the walk kernel and every other pair to elimination."""

    def test_matches_elimination_across_switch(self):
        rng = random.Random(61)
        patterns = [cycle_graph(m) for m in range(3, 7)] + [path_graph(m) for m in range(1, 6)]
        for n in (60, 64, 65, 70):
            t = random_graph(rng, n, rng.uniform(0.05, 0.3))
            adj = t.adjacency_matrix()[None]
            for h in patterns:
                assert hom_count(h, t) == hom_counts(h, adj)[0], (n, h)

    def test_long_paths_stay_on_elimination(self, monkeypatch):
        # a path with two or more edges needs no n x n matrix product: it is
        # counted by elimination, and no walk kernel is built for it
        def no_kernel(adj):
            raise AssertionError("walk kernel built for a path")

        t = random_graph(random.Random(62), 70, 0.2)
        adj = t.adjacency_matrix()[None]
        monkeypatch.setattr(homcount, "WalkCounter", no_kernel)
        for m in range(2, 14):
            h = path_graph(m)
            assert hom_count(h, t) == hom_counts(h, adj)[0], m

    def test_red_line_k4e_matches_backtracker(self):
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=1)
        assert t.n == 133
        h = k4_minus_e()
        assert hom_density(h, t) == Fraction(_backtrack(h, t.adjacency_matrix(), None), t.n ** 4)

    def test_one_shared_kernel_freed_with_target(self, monkeypatch):
        built, dtypes = [], []

        class Counted(WalkCounter):
            def __init__(self, adj):
                super().__init__(adj)
                built.append(weakref.ref(self))

        matrix = SimpleGraph.adjacency_matrix

        def adjacency_matrix(self, dtype=np.int64):
            dtypes.append(dtype)
            return matrix(self, dtype)

        monkeypatch.setattr(homcount, "WalkCounter", Counted)
        monkeypatch.setattr(SimpleGraph, "adjacency_matrix", adjacency_matrix)
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=1)
        c4 = hom_count(cycle_graph(4), t)
        c3 = hom_count(cycle_graph(3), t)
        a = matrix(t, np.int64)
        assert (c4, c3) == (int(np.trace(np.linalg.matrix_power(a, 4))),
                            int(np.trace(np.linalg.matrix_power(a, 3))))
        assert len(built) == 1 and dtypes == [np.float32]
        del t
        gc.collect()
        assert built[0]() is None

    def test_weighted_target(self):
        w = WeightedTarget((1, 2, 3), ((0, Fraction(1, 2), 1), (Fraction(1, 2), 1, 0), (1, 0, 0)))
        assert hom_density(k4_minus_e(), w) == weighted_hom_density(k4_minus_e(), w)
        with pytest.raises(ResourceLimitError):
            hom_density(k4_minus_e(), w, max_steps=10)


class TestClassicalInequalities:
    def setup_method(self):
        self.targets = [t for t in enumerate_graphs(6, dedup=True) if t.num_edges]

    def test_sidorenko_even_cycles(self):
        for t in self.targets:
            te = hom_density(complete_graph(2), t)
            for k in (1, 2, 3):
                assert hom_density(cycle_graph(2 * k), t) >= te ** (2 * k)

    def test_path_vs_edge(self):
        # t(P_k, T) >= t(K_2, T)^k for all paths
        for t in self.targets:
            te = hom_density(complete_graph(2), t)
            for k in range(1, 5):
                assert hom_density(path_graph(k), t) >= te ** k

    def test_log_convexity(self):
        # (k,l) = (2,3): t(C_2) t(C_4) >= t(C_3)^2
        # (k,l) = (3,4): t(C_2) t(C_6) >= t(C_4)^2
        for t in self.targets:
            t2 = hom_density(complete_graph(2), t)
            t3 = hom_density(cycle_graph(3), t)
            t4 = hom_density(cycle_graph(4), t)
            t6 = hom_density(cycle_graph(6), t)
            assert t2 * t4 >= t3 ** 2
            assert t2 * t6 >= t4 ** 2


class TestTropicalOracle:
    def test_golden_exponents(self):
        pat = path_blowup_pattern(3, 2, 1)
        assert tropical_tree_exponent(path_graph(5), pat) == 13
        assert tropical_tree_exponent(path_graph(13), pat) == 31
        assert tropical_tree_exponent(path_graph(1), pat) == 5

    def test_root_invariance(self):
        pat = path_blowup_pattern(2, 1, 1)
        for h in (path_graph(3), path_graph(5)):
            vals = {tropical_tree_exponent(h, pat, root=r) for r in range(h.n)}
            assert len(vals) == 1

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError):
            tropical_tree_exponent(cycle_graph(4), path_blowup_pattern(2, 1, 1))

    def test_numeric_cross_check(self):
        # exact densities at two scales bracket the predicted growth exponent
        from homdom.constructions import instantiate_weighted, log_fraction
        import math

        pat = path_blowup_pattern(3, 2, 1)
        for h, expo in ((path_graph(5), 13), (path_graph(13), 31)):
            errors = []
            for n in (10 ** 3, 10 ** 5, 10 ** 7):
                w = instantiate_weighted(pat, n)
                t = weighted_hom_density(h, w)
                # hom exponent = log_n t + b * v(H) with b = 5 class-size exponent cap
                hom_expo = log_fraction(t) / math.log(n) + 5 * h.n
                errors.append(abs(hom_expo - expo))
            assert errors[0] > errors[1] > errors[2]
            assert errors[-1] < 0.6
