import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from homdom.graphs import (
    Biadjacency,
    CliqueUnion,
    GraphError,
    SimpleGraph,
    blowup,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    from_shorthand,
    k4_minus_e,
    path_graph,
)
from homdom.homcount import (
    WALK_MIN_ORDER,
    GramCounter,
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
from homdom.homcount import _backtrack, _exact_sum, hom_counts, hom_exists
from homdom import graphs
from homdom.constructions import (ProjectivePlaneSpec, bipartite_power_target,
                                  exponent_vector_estimate, path_blowup_pattern, red_line_graph)
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


def tensor_product(g, h):
    """Categorical product: (u1,v1) ~ (u2,v2) iff u1~u2 in g and v1~v2 in h."""
    edges = set()
    for a, b in g.edges:
        for c, d in h.edges:
            edges.add((a * h.n + c, b * h.n + d))
            edges.add((a * h.n + d, b * h.n + c))
    return SimpleGraph(g.n * h.n, frozenset(edges))


@pytest.fixture
def narrowest_calls(monkeypatch):
    """(bound, dtype) of every array a kernel casts through ``_narrowest``."""
    calls = []
    narrowest = homcount._narrowest

    def recorded(x, bound):
        y = narrowest(x, bound)
        calls.append((bound, y.dtype))
        return y

    monkeypatch.setattr(homcount, "_narrowest", recorded)
    return calls


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
    A^(a-1)[v, u], the entries whose products edge_walks sums."""

    def test_k3(self):
        walks = WalkCounter(complete_graph(3).adjacency_matrix())
        assert walks[2][1, 0] == 1
        assert walks[3][1, 0] == 3

    def test_partition_identity(self):
        rng = random.Random(21)
        for a in (3, 4, 5):
            for _ in range(6):
                t = random_graph(rng, 5)
                walks = WalkCounter(t.adjacency_matrix())
                total = sum(int(walks[a - 1][v, u] + walks[a - 1][u, v]) for u, v in t.edges)
                assert total == hom_count(cycle_graph(a), t) == walks.edge_walks(1, a - 1)


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
            for m in range(1, 9):
                am = int_matpow(a, m)
                assert walks.closed(m) == sum(am[i][i] for i in range(t.n))
                assert [[int(x) for x in row] for row in walks[m].tolist()] == am
                assert type(walks.closed(m)) is int

    def test_edge_walks_matches_integer_oracle(self):
        rng = random.Random(33)
        for _ in range(20):
            t = random_graph(rng, rng.randint(0, 9), rng.random())
            walks, a = WalkCounter(t.adjacency_matrix(np.float32)), int_adjacency(t)
            pairs = list(t.edges) + [(v, u) for u, v in t.edges]
            for i, j in ((1, 1), (2, 3), (4, 5), (6, 6)):
                ai, aj = int_matpow(a, i), int_matpow(a, j)
                got = walks.edge_walks(i, j)
                assert got == sum(ai[u][v] * aj[u][v] for u, v in pairs) and type(got) is int

    @pytest.mark.parametrize("n, m, dtype", [
        (5, 8, np.float32),   # entries of A^4 <= 4^3
        (9, 18, np.float64),  # entries of A^9 <= 8^8 = 2^24
        (9, 38, np.int64),    # entries of A^19 <= 8^18 = 2^54
        (9, 44, object),      # entries of A^22 <= 8^21 = 2^63
    ])
    def test_complete_graph_tiers(self, n, m, dtype):
        walks = WalkCounter(complete_graph(n).adjacency_matrix())
        d = n - 1
        assert walks.closed(m) == d ** m + d * (-1) ** m
        assert walks.powers[m - m // 2].dtype == dtype
        off, diag = (d ** m - (-1) ** m) // n, (d ** m + d * (-1) ** m) // n
        assert [int(walks[m][i, j]) for i, j in ((0, 1), (0, 0), (n - 1, n - 1))] == \
            [off, diag, diag]

    @pytest.mark.parametrize("a, b, m, dtype", [
        (3, 4, 8, np.float32),   # entries of M^2 = A^4 <= 4^3
        (7, 7, 20, np.float64),  # entries of M^5 = A^10 <= 7^9 > 2^24
        (7, 7, 38, np.int64),    # entries of M^10 = A^20 <= 7^19 > 2^53
        (7, 7, 48, object),      # entries of M^12 = A^24 <= 7^23 > 2^63
    ])
    def test_complete_bipartite_tiers(self, a, b, m, dtype):
        walks = WalkCounter.from_block(np.ones((a, b), dtype=bool))
        assert walks.closed(m) == 2 * (a * b) ** (m // 2) and walks.closed(m + 1) == 0
        j = m // 2
        assert walks.powers[j - j // 2].dtype == dtype
        assert len(walks.powers[1]) == min(a, b)

    def test_block_counter_has_no_entries(self):
        walks = WalkCounter.from_block(np.ones((3, 4), dtype=bool))
        with pytest.raises(GraphError):
            walks.edge_walks(2, 1)

    def test_bipartite_half_block(self):
        rng = random.Random(32)
        for _ in range(10):
            left, right = rng.randint(1, 6), rng.randint(1, 6)
            label = list(range(left + right))
            rng.shuffle(label)
            block = np.array([[rng.random() < 0.5 for _ in range(right)] for _ in range(left)])
            edges = [(label[u], label[left + v]) for u, v in zip(*np.nonzero(block))]
            t = SimpleGraph(left + right + 2, frozenset(edges))  # two isolated vertices
            walks, half = WalkCounter(t.adjacency_matrix()), WalkCounter.from_block(block)
            a = int_adjacency(t)
            for m in range(1, 11):
                am = int_matpow(a, m)
                assert walks.closed(m) == half.closed(m) == sum(am[i][i] for i in range(t.n))
                if m % 2:
                    assert walks.closed(m) == 0


def random_clique_union(rng, n, draws):
    """Cliques of 2 to 8 random vertices, each kept if it shares at most one
    vertex with every clique kept before it."""
    used, kept = set(), []
    for _ in range(draws):
        c = rng.sample(range(n), rng.randint(2, 8))
        pairs = {(min(u, v), max(u, v)) for u, v in itertools.combinations(c, 2)}
        if not pairs & used:
            used |= pairs
            kept.append(c)
    return CliqueUnion(n, kept)


class TestGramCounter:
    """The Gram kernel of a clique union against the walk kernel of its
    expanded adjacency matrix."""

    @staticmethod
    def assert_matches_walks(t):
        walks = WalkCounter(t.graph.adjacency_matrix())
        gram = GramCounter(t)
        for m in range(1, 6):
            assert gram.closed(m) == walks.closed(m), m
            assert type(gram.closed(m)) is int
        assert [cycle_hom_count(m, t) for m in (3, 4, 5)] == [walks.closed(m) for m in (3, 4, 5)]

    def test_random_unions(self):
        rng = random.Random(71)
        for _ in range(12):
            t = random_clique_union(rng, rng.randint(65, 150), rng.randint(10, 150))
            assert t.incidence_matrix().sum(axis=1).max() >= 2  # some cliques meet
            self.assert_matches_walks(t)

    @pytest.mark.parametrize("p", [11, 17, 23])
    def test_red_lines(self, p):
        for seed in (1, 2, 5):
            self.assert_matches_walks(red_line_graph(ProjectivePlaneSpec(p, 2), seed))

    @pytest.mark.parametrize("n, dtype", [(4095, np.float32), (4096, np.float64)])
    def test_square_at_the_float32_boundary(self, n, dtype, narrowest_calls):
        # K_n as one clique: the row of G0 sums to s = n, so the entry bound of
        # G0^2 is n * s, below 2**24 for n = 4095 and not for n = 4096
        gram = GramCounter(CliqueUnion(n, [range(n)]))
        assert (n * n, dtype) in narrowest_calls
        assert [gram.closed(m) for m in (2, 3, 4)] == [n * (n - 1), n * (n - 1) * (n - 2),
                                                       (n - 1) ** 4 + n - 1]

    @pytest.mark.parametrize("total", [2 ** 53 - 1, 2 ** 53 + 1, 2 ** 63 + 1])
    def test_exact_sum_tiers(self, total):
        # float64 below 2**53, then int64, then Python ints: each sum is exact
        x = np.ones((1, 2))
        y = np.array([[total // 2, total - total // 2]], dtype=object)
        assert _exact_sum(total, x, y if total > 2 ** 53 else y.astype(np.float64)) == total


class TestBiadjacencyWalks:
    """Counts on a biadjacency target against elimination on its expanded
    graph."""

    @staticmethod
    def random_block(rng, rows, cols, p):
        block = rng.random((rows, cols)) < p
        block[rng.random(rows) < 0.2] = False  # some empty rows
        block[:, rng.random(cols) < 0.2] = False  # and columns
        return block

    def test_matches_expanded_graph(self):
        rng = np.random.default_rng(83)
        blocks = [self.random_block(rng, r, c, rng.uniform(0.05, 0.4))
                  for r, c in ((30, 30), (10, 40), (40, 10), (33, 32), (40, 40), (20, 55), (70, 3))]
        blocks += [np.zeros((40, 40), dtype=bool), np.zeros((0, 70), dtype=bool),
                   np.zeros((20, 20), dtype=bool)]
        patterns = [cycle_graph(m) for m in range(2, 9)] + [path_graph(3)]  # C2 is K2
        for block in blocks:
            t = Biadjacency(block)
            counts = [hom_count(h, t) for h in patterns[:-1]]
            # cycles on more than 64 vertices never expand the target
            assert ("graph" in vars(t)) == (t.n <= WALK_MIN_ORDER), block.shape
            counts.append(hom_count(patterns[-1], t))
            adj = t.graph.adjacency_matrix()[None]
            assert counts == [hom_counts(h, adj)[0] for h in patterns], block.shape
            assert counts[1:7:2] == [0, 0, 0]  # odd cycles

    def test_block_and_adjacency_kernels_agree(self):
        rng = np.random.default_rng(84)
        for r, c in ((50, 50), (12, 70), (70, 12)):
            t = Biadjacency(self.random_block(rng, r, c, 0.3))
            walks = WalkCounter.from_block(t.block)
            dense = WalkCounter(t.graph.adjacency_matrix())
            assert len(walks[1]) == min(r, c)
            assert [walks.closed(m) for m in range(1, 13)] == [dense.closed(m) for m in range(1, 13)]


    def test_walk_kernel_found_by_identity(self, monkeypatch):
        # the walk cache finds a target by the object itself: no bit of the
        # block is packed, and a target with an equal block gets its own kernel
        block = self.random_block(np.random.default_rng(85), 60, 60, 0.3)
        a, b = Biadjacency(block), Biadjacency(block.copy())

        def refuse(*args, **kwargs):
            raise AssertionError("packbits called")

        monkeypatch.setattr(np, "packbits", refuse)
        walks = homcount._walks(a)
        assert homcount._walks(a) is walks and homcount._walks(b) is not walks
        assert hom_count(cycle_graph(4), a) == hom_count(cycle_graph(4), b) == walks.closed(4)


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
    q = len(w.weights)
    u = [x / sum(w.weights) for x in w.weights]
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
            want = _backtrack(h, t.adjacency_masks(), None)
            assert hom_count(h, t) == want
            assert hom_exists(h, t) == (want > 0)
            assert (_backtrack(h, t.adjacency_masks(), None, first=True) > 0) == (want > 0)
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
            got = {i: Fraction(a, d) for idx, counts, d, _ in _corpus_densities(h, corpus, None)
                   for i, a in zip(idx, counts)}
            assert [got[i] for i in range(len(corpus))] == [hom_density(h, t) for _, t in corpus]

    def test_beyond_int64(self):
        # 9^22 >= 2**63 forces the Python-int pass; both counts exceed int64
        k9 = complete_graph(9)
        assert hom_count(path_graph(21), k9) == 9 * 8 ** 21 > 2 ** 63
        assert hom_count(cycle_graph(22), k9) == 8 ** 22 + 8 > 2 ** 63
        stack = np.stack([k9.adjacency_matrix()] * 3)
        assert hom_counts(path_graph(21), stack) == [9 * 8 ** 21] * 3

    @staticmethod
    def walk_counts(stack, h):
        """hom(H, T) of a path or cycle H on each target of a 0/1 stack:
        1^T A^e(H) 1 or tr(A^v(H)), from int64 powers."""
        counts = []
        for a in stack.astype(np.int64):
            if h.is_cycle():
                counts.append(int(np.trace(np.linalg.matrix_power(a, h.n))))
            else:
                v = np.ones(len(a), dtype=np.int64)
                for _ in range(h.num_edges):
                    v = a @ v
                counts.append(int(v.sum()))
        return counts

    @staticmethod
    def seeded_stack(n, seed):
        """K_n, whose counts come near the bound n^v(H), then two seeded
        G(n, 1/2)."""
        rng = np.random.default_rng(seed)
        adjs = [complete_graph(n).adjacency_matrix()]
        for _ in range(2):
            upper = np.triu(rng.random((n, n)) < 0.5, 1)
            adjs.append((upper | upper.T).astype(np.int64))
        return np.stack(adjs)

    @pytest.mark.parametrize("n, v, dtype", [
        (63, 4, np.float32),  # 63^4 < 2**24
        (64, 4, np.float64),  # 64^4 = 2**24
        (98, 8, np.float64),  # 98^8 < 2**53
        (99, 8, np.int64),    # 99^8 > 2**53
    ])
    def test_stack_tiers(self, narrowest_calls, n, v, dtype):
        # a path and a cycle on v vertices run in the arithmetic of the
        # bound n^v on every entry; K_n's counts come within 8% of it
        stack = self.seeded_stack(n, n)
        for h in (path_graph(v - 1), cycle_graph(v)):
            assert hom_counts(h, stack) == self.walk_counts(stack, h)
        assert narrowest_calls == [(n ** v, dtype)] * 2

    def test_count_past_float32(self, narrowest_calls):
        # P5 on G(40, 1/2): the bound 40^6 lies between 2**24 and 2**53, so
        # these counts near 10^8 run in float64; float32 would round some
        rng = random.Random(40)
        stack = np.stack([random_graph(rng, 40).adjacency_matrix() for _ in range(3)])
        counts = hom_counts(path_graph(5), stack)
        assert counts == self.walk_counts(stack, path_graph(5))
        assert min(counts) > 2 ** 24 and narrowest_calls == [(40 ** 6, np.float64)]

    @pytest.mark.parametrize("pattern, heavy, dk, dtype", [
        ("K3", 83, 3, np.float32),   # (85 * 3)^3 < 2**24
        ("K3", 255, 1, np.float64),  # 257^3 > 2**24
        ("C4", 9739, 1, np.float64),  # 9741^4 < 2**53
        ("C4", 9741, 1, np.int64),    # 9743^4 > 2**53
    ])
    def test_weighted_tiers(self, narrowest_calls, pattern, heavy, dk, dtype):
        # class weights (1, 1, heavy) scale to integers summing to D_u =
        # heavy + 2, and densities j / dk with one equal to 1 to at most dk,
        # so the bound is D_u^v(H) * dk^e(H)
        rng = random.Random(heavy)
        dens = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                dens[i][j] = dens[j][i] = Fraction(rng.randint(0, dk), dk)
        dens[2][2] = Fraction(1)
        w = WeightedTarget((Fraction(1), Fraction(1), Fraction(heavy)), tuple(map(tuple, dens)))
        h = from_shorthand(pattern)
        assert weighted_hom_density(h, w) == weighted_density_brute(h, w)
        bound = (heavy + 2) ** h.n * dk ** h.num_edges
        assert narrowest_calls == [(bound, dtype)] * 2

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _backtrack(*args, **kwargs)

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
        counts = hom_counts(complete_graph(4),
                            np.stack([complete_graph(30).adjacency_matrix()] * 2), max_steps=10)
        assert len(counts) == 2 and all(isinstance(c, ResourceLimitError) for c in counts)

    def test_ceiling_keeps_every_target_of_the_stack(self, fallbacks):
        # the target past the ceiling gets its error as its entry, and the
        # other targets keep their counts, so a caller need not count them again
        stack = np.stack([complete_graph(30).adjacency_matrix(),
                          disjoint_union(cycle_graph(4), SimpleGraph(26)).adjacency_matrix()])
        first, second = hom_counts(cycle_graph(4), stack, max_steps=200)
        assert isinstance(first, ResourceLimitError) and second == 32  # 2^4 + (-2)^4
        assert len(fallbacks) == 2

    def test_entry_cap_falls_back_to_backtracker(self, fallbacks):
        # K5 on 100 vertices needs a factor of 100^4 entries, past the cap
        t = disjoint_union(complete_graph(5), SimpleGraph(95))
        assert hom_count(complete_graph(5), t) == 120 and len(fallbacks) == 1

    def test_step_wider_than_the_labels_has_no_plan(self, fallbacks):
        # eliminating the first vertex of K52 spans all 52 vertices, one more
        # than einsum has labels besides the batch axis: the plan declines
        # and the clique check or the backtracker answers
        k52 = complete_graph(52)
        assert homcount._plan(complete_graph(51), False) is not None
        assert homcount._plan(k52, False) is None
        assert hom_count(k52, complete_graph(3)) == 0 and len(fallbacks) == 1
        assert not hom_exists(k52, complete_graph(51))
        assert hom_exists(k52, complete_graph(60)) and len(fallbacks) == 2
        with pytest.raises(ResourceLimitError):
            weighted_hom_density(k52, WeightedTarget((Fraction(1),), ((Fraction(1, 2),),)))


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
        # with the 2-colouring step and elimination switched off, every pair
        # reaches the guard; it refuses exactly the pairs whose pattern has a
        # larger clique number than the target (each has no map), and
        # hom_exists agrees with the search
        monkeypatch.setattr(SimpleGraph, "is_bipartite", lambda self: False)
        monkeypatch.setattr(homcount, "_eliminate", lambda *args, **kwargs: None)
        searched, real = [], homcount._backtrack
        monkeypatch.setattr(homcount, "_backtrack",
                            lambda *args, **kwargs: searched.append(args) or real(*args, **kwargs))
        rng = random.Random(29)
        refused = 0
        for _ in range(300):
            h = random_graph(rng, rng.randint(1, 6), rng.random())
            t = random_graph(rng, rng.randint(1, 7), rng.random())
            want = real(h, t.adjacency_masks(), None, first=True) > 0
            before = len(searched)
            assert hom_exists(h, t) == want, (h, t)
            guarded = len(searched) == before
            assert guarded == (clique_number(h) > clique_number(t)), (h, t)
            assert not (guarded and want), (h, t)
            refused += guarded
        assert refused > 20

    def test_guard_depth_is_the_smaller_clique_number(self, monkeypatch):
        # K1100 against K3 stops at r = 4; searching K1100's whole clique
        # number would take one recursion frame per vertex
        monkeypatch.setattr(homcount, "_eliminate", lambda *args, **kwargs: None)
        assert hom_exists(complete_graph(1100), complete_graph(3)) is False


def clique_number(g):
    """The order of a largest clique of g, by brute force over vertex sets."""
    return max(r for r in range(g.n + 1) for s in itertools.combinations(range(g.n), r)
               if all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)))


class TestTwoColouring:
    """hom_exists settles a pair by the 2-colourings of its graphs before
    elimination: H -> K2 -> T when H is 2-colourable and T has an edge, and
    no map when only T is 2-colourable."""

    def test_is_bipartite_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 8), rng.random() * 0.6)
            want = any(all(side[a] != side[b] for a, b in g.edges)
                       for side in itertools.product((0, 1), repeat=g.n))
            assert g.is_bipartite() == want, g

    def test_matches_backtracker(self):
        rng = random.Random(73)
        odd = [cycle_graph(m) for m in (3, 5, 7, 9)]
        bipartite = ([cycle_graph(m) for m in (4, 6, 8, 10)]
                     + [path_graph(m) for m in range(5)]
                     + [complete_bipartite(a, b) for a in (1, 2, 3) for b in (1, 3)])
        edgeless = [SimpleGraph(n) for n in range(4)]
        pairs = [(h, t) for h in odd + bipartite + edgeless for t in bipartite + edgeless]
        for _ in range(300):
            h = random_graph(rng, rng.randint(0, 7), rng.random())
            t = random_graph(rng, rng.randint(0, 8), rng.random() * 0.7)
            if rng.random() < 0.3:
                t = disjoint_union(t, SimpleGraph(rng.randint(1, 3)))
            pairs += [(h, t), (t, h)]
        decided = 0
        for h, t in pairs:
            want = _backtrack(h, t.adjacency_masks(), None, first=True) > 0
            assert hom_exists(h, t) == want, (h, t)
            decided += t.num_edges > 0 if h.is_bipartite() else t.is_bipartite()
        assert decided > len(pairs) // 2

    def test_decided_pairs_skip_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(homcount, "_eliminate", refuse)
        assert not hom_exists(cycle_graph(5), cycle_graph(8))
        assert not hom_exists(complete_graph(3), path_graph(6))
        assert hom_exists(cycle_graph(6), complete_graph(4))
        assert hom_exists(path_graph(4), disjoint_union(SimpleGraph(3), complete_graph(2)))
        with pytest.raises(AssertionError, match="elimination reached"):
            hom_exists(path_graph(1), SimpleGraph(3))


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

    def test_cycles_on_targets_with_isolated_vertices(self):
        # the walk kernel drops isolated vertices; counts are those of the
        # whole adjacency matrix
        rng = random.Random(63)
        targets = [SimpleGraph(100)]
        for _ in range(6):
            n, core = rng.randint(65, 120), rng.randint(2, 60)
            used = rng.sample(range(n), core)
            edges = [(used[i], used[j]) for i, j in itertools.combinations(range(core), 2)
                     if rng.random() < rng.uniform(0.05, 0.5)]
            targets.append(SimpleGraph(n, frozenset(edges)))
        assert any(t.degree(v) == 0 for t in targets[1:] for v in range(t.n))
        for t in targets:
            adj = t.adjacency_matrix()[None]
            for m in range(2, 9):  # C2 is K2
                assert hom_count(cycle_graph(m), t) == hom_counts(cycle_graph(m), adj)[0], (t.n, m)

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
        assert hom_density(h, t) == Fraction(_backtrack(h, t.graph.adjacency_masks(), None),
                                             t.n ** 4)

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
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=1).graph
        c4 = hom_count(cycle_graph(4), t)
        c3 = hom_count(cycle_graph(3), t)
        a = matrix(t, np.int64)
        assert (c4, c3) == (int(np.trace(np.linalg.matrix_power(a, 4))),
                            int(np.trace(np.linalg.matrix_power(a, 3))))
        assert len(built) == 1 and dtypes == [np.float32]
        del t
        gc.collect()
        assert built[0]() is None

    def test_one_shared_gram_kernel_freed_with_target(self, monkeypatch):
        built = []

        class Counted(GramCounter):
            def __init__(self, t):
                super().__init__(t)
                built.append(weakref.ref(self))

        monkeypatch.setattr(homcount, "GramCounter", Counted)
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=1)
        counts = [hom_count(cycle_graph(m), t) for m in (4, 3, 5, 2)]  # C2 is K2
        a = t.graph.adjacency_matrix()
        assert counts == [int(np.trace(np.linalg.matrix_power(a, m))) for m in (4, 3, 5, 2)]
        assert len(built) == 1
        del t
        gc.collect()
        assert built[0]() is None

    def test_red_line_cycles_skip_the_expanded_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expanded graph used")

        monkeypatch.setattr(SimpleGraph, "adjacency_matrix", refuse)
        monkeypatch.setattr(CliqueUnion, "graph", property(refuse))
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=1)
        c3, c4 = hom_count(cycle_graph(3), t), hom_count(cycle_graph(4), t)
        t3, t4 = hom_density(cycle_graph(3), t), hom_density(cycle_graph(4), t)
        assert "graph" not in vars(t) and "edges" not in vars(t)
        monkeypatch.undo()
        walks = WalkCounter(t.graph.adjacency_matrix())
        assert (c3, c4) == (walks.closed(3), walks.closed(4))
        assert (t3, t4) == (Fraction(c3, t.n ** 3), Fraction(c4, t.n ** 4))

    def test_random_bipartite_cycles_skip_the_expanded_graph(self, monkeypatch):
        # neither the n x n adjacency, nor the edge set, nor a counter of
        # powers of A is used for the cycles of a random bipartite power target
        def refuse(*args, **kwargs):
            raise AssertionError("expanded graph used")

        def block_only(self, base, *, step=1, **kwargs):
            if step == 1:
                refuse()
            init(self, base, step=step, **kwargs)

        def normalize_small(n, edges):  # the patterns are still built
            if n > WALK_MIN_ORDER:
                refuse()
            return normalize(n, edges)

        normalize, init = graphs._normalize_edges, WalkCounter.__init__
        monkeypatch.setattr(SimpleGraph, "adjacency_matrix", refuse)
        monkeypatch.setattr(graphs, "_normalize_edges", normalize_small)
        monkeypatch.setattr(Biadjacency, "graph", property(refuse))
        monkeypatch.setattr(Biadjacency, "edges", property(refuse))
        monkeypatch.setattr(WalkCounter, "__init__", block_only)
        t = bipartite_power_target(1, 12, mode="random", seed=3)
        y = exponent_vector_estimate(t, [2, 4, 6], scale=12)
        odd = [hom_count(cycle_graph(m), t) for m in (3, 5)]
        monkeypatch.undo()
        assert odd == [0, 0]
        assert y == exponent_vector_estimate(t.graph, [2, 4, 6], scale=12)

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
