import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from homdom.graphs import (CliqueUnion, GraphError, SimpleGraph, complete_graph, cycle_graph,
                           k4_minus_e)
from homdom.homcount import hom_count, hom_density, weighted_hom_density
from homdom.constructions import (
    ProjectivePlaneSpec,
    ScalingFamily,
    ap3_free_set,
    behrend_graph,
    behrend_triangle_hom_count,
    bipartite_power_target,
    estimate_ratio,
    exponent_vector_estimate,
    instantiate_weighted,
    log_fraction,
    path_blowup_pattern,
    projective_plane,
    red_line_graph,
    simple_family,
)


class TestPathBlowupPattern:
    def test_smallest_instance(self):
        pat = path_blowup_pattern(1, 1, 1)
        assert pat.base.n == 4
        assert pat.vexp == (Fraction(3), Fraction(1), Fraction(1), Fraction(3))
        assert [pat.eexp[(i, i + 1)] for i in range(3)] == [3, 2, 3]

    def test_golden_321(self):
        pat = path_blowup_pattern(3, 2, 1)
        assert tuple(int(e) for e in pat.vexp) == (
            5, 1, 3, 1, 3, 1, 3, 3, 1, 3, 1, 3, 1, 5)
        assert [int(pat.eexp[(i, i + 1)]) for i in range(13)] == [
            5, 4, 4, 4, 4, 4, 5, 4, 4, 4, 4, 4, 5]

    def test_mirror_symmetry(self):
        for k, l in ((2, 1), (2, 2), (3, 2), (4, 3)):
            pat = path_blowup_pattern(k, l, 1)
            nv = pat.base.n
            for i in range(nv):
                assert pat.vexp[i] == pat.vexp[nv - 1 - i]
            for i in range(nv - 1):
                assert pat.eexp[(i, i + 1)] == pat.eexp[(nv - 2 - i, nv - 1 - i)]

    def test_bad_params(self):
        with pytest.raises(GraphError):
            path_blowup_pattern(2, 1, 3)
        with pytest.raises(GraphError):
            path_blowup_pattern(2, 0, 1)

    def test_instantiate(self):
        pat = path_blowup_pattern(1, 1, 1)
        w = instantiate_weighted(pat, 10)
        assert w.weights == (1000, 10, 10, 1000)
        # edge (1,2): exponent 2 - 1 - 1 = 0 -> density 1
        assert w.density[1][2] == 1
        # edge (0,1): exponent 3 - 3 - 1 = -1 -> density 1/10
        assert w.density[0][1] == Fraction(1, 10)
        assert w.density[0][2] == 0

    def test_instantiate_guard(self):
        with pytest.raises(GraphError):
            instantiate_weighted(path_blowup_pattern(1, 1, 1), 1)


def projective_plane_by_scan(p):
    """Oracle: every line as the scan of all points for incidence."""
    points = [(1, x, y) for x in range(p) for y in range(p)]
    points += [(0, 1, y) for y in range(p)] + [(0, 0, 1)]
    lines = [tuple(i for i, pt in enumerate(points)
                   if (a * pt[0] + b * pt[1] + c * pt[2]) % p == 0)
             for a, b, c in points]
    return points, lines


class TestProjectivePlane:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_axioms(self, p):
        points, lines = projective_plane(p)
        n = p * p + p + 1
        assert len(points) == n and len(lines) == n
        assert all(len(line) == p + 1 for line in lines)
        # every pair of points lies on exactly one line
        pairs = Counter(pair for line in lines for pair in itertools.combinations(line, 2))
        assert len(pairs) == n * (n - 1) // 2 and set(pairs.values()) == {1}
        # every point lies on exactly p+1 lines
        incidences = Counter(a for line in lines for a in line)
        assert len(incidences) == n and set(incidences.values()) == {p + 1}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_incidence_scan(self, p):
        assert projective_plane(p) == projective_plane_by_scan(p)

    def test_non_prime(self):
        with pytest.raises(GraphError):
            projective_plane(4)

    def test_red_line_count(self):
        # floor(n^alpha) with alpha = k/(2k-1)
        assert ProjectivePlaneSpec(2, 2).red_line_count == 3  # floor(7^(2/3))
        assert ProjectivePlaneSpec(5, 2).red_line_count == 9  # floor(31^(2/3))

    def test_red_line_graph_two_lines(self):
        # any two lines of the Fano plane are triangles sharing one point;
        # the spec draws floor(7^(2/3)) = 3 of them, and the first two are kept
        g = red_line_graph(ProjectivePlaneSpec(2, 2), seed=1)
        two = CliqueUnion(g.n, g.cliques[:2])
        assert two.n == 7 and two.num_edges == 6
        assert hom_count(complete_graph(3), two) == 12

    @pytest.mark.parametrize("p, seed", [(5, 1), (11, 3), (17, 7)])
    def test_red_lines_are_the_chosen_lines(self, p, seed):
        # the lines drawn from the whole plane, in the order drawn, and the
        # edge set of the union of their cliques
        spec = ProjectivePlaneSpec(p, 2)
        _, lines = projective_plane(p)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, p, 2])))
        chosen = [lines[i] for i in rng.choice(len(lines), size=spec.red_line_count,
                                                replace=False)]
        t = red_line_graph(spec, seed)
        assert t.n == len(lines) and t.cliques == tuple(chosen)
        assert t.edges == {e for line in chosen for e in itertools.combinations(line, 2)}
        assert t.num_edges == len(t.edges)

    def test_exponent_vector_on_the_expanded_graph(self):
        t = red_line_graph(ProjectivePlaneSpec(11, 2), seed=2)
        assert exponent_vector_estimate(t, [2, 3, 4], 11) == \
            exponent_vector_estimate(t.graph, [2, 3, 4], 11)

    def test_determinism(self):
        spec = ProjectivePlaneSpec(3, 2)
        assert red_line_graph(spec, seed=5) == red_line_graph(spec, seed=5)
        assert red_line_graph(spec, seed=5) != red_line_graph(spec, seed=6)


class TestBipartitePower:
    def test_weighted_cycle_density(self):
        for i in (1, 2):
            for n in (3, 5):
                w = bipartite_power_target(i, n, mode="weighted")
                d = Fraction(1, n ** i)
                assert weighted_hom_density(cycle_graph(4), w) == d ** 4 / 8
                assert weighted_hom_density(cycle_graph(6), w) == d ** 6 / 32

    def test_random_edge_count_within_3_sigma(self):
        i, n = 1, 60
        g = bipartite_power_target(i, n, mode="random", seed=2)
        part = n ** (i + 1)
        assert g.n == 2 * part
        mean = part * part / n ** i
        sigma = (mean * (1 - 1 / n ** i)) ** 0.5
        assert abs(g.num_edges - mean) < 3 * sigma

    def test_random_determinism(self):
        a = bipartite_power_target(1, 10, mode="random", seed=3)
        b = bipartite_power_target(1, 10, mode="random", seed=3)
        assert np.array_equal(a.block, b.block)
        c = bipartite_power_target(1, 10, mode="random", seed=4)
        assert not np.array_equal(a.block, c.block)

    @pytest.mark.parametrize("seed, i, n", [(1, 1, 30), (3, 1, 12), (7, 2, 5), (2, 1, 8)])
    def test_chunked_draw_is_the_one_shot_draw(self, seed, i, n):
        # the block is drawn a few rows at a time, from the same PCG64 stream
        # as one (part, part) array of uniforms
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, n])))
        part = n ** (i + 1)
        want = rng.random((part, part)) < 1.0 / n ** i
        assert np.array_equal(bipartite_power_target(i, n, mode="random", seed=seed).block, want)

    def test_block_handed_over_not_copied(self):
        # the drawn block goes to Biadjacency read-only, without a second
        # copy: the traced peak is the block plus one draw of 64 rows
        bipartite_power_target(1, 12, mode="random")  # lazy imports and caches
        tracemalloc.start()
        try:
            t = bipartite_power_target(1, 60, mode="random", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.block.nbytes == 3600 ** 2 and peak < 1.2 * t.block.nbytes
        assert not t.block.flags.writeable

    def test_size_guard(self):
        from homdom.homcount import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            bipartite_power_target(2, 100, mode="random")


class TestBehrend:
    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_ap3_free(self, n):
        s = ap3_free_set(n)
        assert all(1 <= x <= n for x in s)
        assert len(set(s)) == len(s)
        for a, b, c in itertools.combinations(s, 3):
            assert a + c != 2 * b

    def test_triangle_identity(self):
        for n in (5, 8, 12):
            g = behrend_graph(n)
            expected = behrend_triangle_hom_count(n)
            assert hom_count(complete_graph(3), g) == expected
            # triangles are edge-disjoint, so K_4 - e has no extra room
            assert hom_count(k4_minus_e(), g) == expected

    def test_sizes(self):
        g = behrend_graph(30)
        assert g.n == 180
        s = ap3_free_set(30)
        assert g.num_edges == 3 * 30 * len(s)  # edge-disjoint triangles


class TestSimpleFamilies:
    def test_no_half_clique_alias(self):
        with pytest.raises(GraphError):
            simple_family("half_clique", 5)
        with pytest.raises(GraphError):
            ScalingFamily("half_clique").build(5)

    def test_shapes(self):
        g = simple_family("two_cliques", 4)
        assert g.n == 8 and g.num_edges == 12
        g = simple_family("single_edge", 6)
        assert g.n == 6 and g.num_edges == 1
        g = simple_family("clique_plus_isolated", 4)
        assert g.n == 8 and g.num_edges == 6

    def test_single_edge_cycle_density(self):
        # t(C_2j, single_edge(n)) = 2 / n^2j
        for n in (4, 7):
            g = simple_family("single_edge", n)
            for j in (1, 2, 3):
                assert hom_density(cycle_graph(2 * j), g) == Fraction(2, n ** (2 * j))

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            simple_family("mystery", 3)


class TestEstimator:
    def test_identity_ratio(self):
        fam = ScalingFamily("two_cliques")
        result = estimate_ratio(cycle_graph(4), cycle_graph(4), fam, [3, 5, 8])
        assert all(r == 1.0 for _, r in result["ratios"])
        assert result["monotone"]

    def test_clique_plus_isolated_ratio(self):
        # t(K_2)/t(K_3) ratio on K_n + n isolated vertices tends to 2/3
        fam = ScalingFamily("clique_plus_isolated")
        result = estimate_ratio(complete_graph(2), complete_graph(3), fam,
                                [4, 8, 16, 32])
        assert result["monotone"]
        assert abs(result["extrapolated"] - 2 / 3) < 0.1

    def test_degenerate_raises(self):
        fam = ScalingFamily("single_edge")
        with pytest.raises(GraphError):
            estimate_ratio(complete_graph(3), complete_graph(2), fam, [4])

    def test_scaling_family_dispatch(self):
        fam = ScalingFamily("path_blowup", {"k": 1, "l": 1, "m": 1})
        w = fam.build(10)
        assert w.weights == (1000, 10, 10, 1000)
        with pytest.raises(GraphError):
            ScalingFamily("nope").build(3)

    @pytest.mark.parametrize("kind, params, message", [
        ("two_cliques", {"k": 3}, "family 'two_cliques' reads no parameter(s) k"),
        ("behrend", {"n": 5, "q": 2}, "family 'behrend' reads no parameter(s) n, q"),
        ("path_blowup", {"k": 3, "l": 2, "m": 1, "seed": 9},
         "family 'path_blowup' reads no parameter(s) seed"),
        ("projective", {"k": 2, "p": 7}, "family 'projective' reads no parameter(s) p"),
        ("bipartite_power", {"i": 1, "k": 2}, "family 'bipartite_power' reads no parameter(s) k"),
        ("nope", {"k": 3}, "unknown family kind 'nope'"),
    ])
    def test_unread_parameters_refused(self, kind, params, message):
        with pytest.raises(GraphError) as err:
            ScalingFamily(kind, params).build(5)
        assert str(err.value) == message

    def test_log_fraction(self):
        import math
        assert abs(log_fraction(Fraction(1, 2)) + math.log(2)) < 1e-12
        big = Fraction(10 ** 400, 3 ** 500)
        assert abs(log_fraction(big) - (400 * math.log(10) - 500 * math.log(3))) < 1e-9
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))
