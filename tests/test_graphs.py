import functools
import itertools
import random

import pytest

from homdom.graphs import (
    GraphError,
    SimpleGraph,
    blowup,
    canonical_form,
    chorded_fan,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    decode_graph,
    disjoint_union,
    encode_graph,
    enumerate_graphs,
    from_shorthand,
    isomorphic,
    k4_minus_e,
    path_graph,
    star_graph,
    tensor_product,
    triangle_pendant,
)
from homdom.graphs import _canonical_ints, _graph_to_int


def count_triangles(g):
    adj = g.adjacency_lists()
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


class TestNamedGraphs:
    def test_path(self):
        p2 = path_graph(2)
        assert p2.n == 3 and p2.edges == frozenset({(0, 1), (1, 2)})

    def test_cycle_alias(self):
        assert cycle_graph(2).edges == frozenset({(0, 1)})
        with pytest.raises(GraphError):
            cycle_graph(1)

    def test_cycle_with_chord_is_c5_plus(self):
        g = cycle_with_chord(2, 1)
        assert g.n == 5 and g.num_edges == 6
        # chord closes an arc of 2 edges into a triangle
        assert count_triangles(g) == 1

    def test_chorded_fan(self):
        g = chorded_fan(2)
        assert g.n == 5 and g.num_edges == 7
        assert count_triangles(g) == 3

    def test_other_constructors(self):
        assert k4_minus_e().num_edges == 5
        assert triangle_pendant().n == 4 and triangle_pendant().num_edges == 4
        assert complete_bipartite(2, 3).num_edges == 6
        assert star_graph(4).num_edges == 4

    def test_named_dispatch_and_shorthand(self):
        assert from_shorthand("K4-e") == k4_minus_e()
        assert from_shorthand("C5") == cycle_graph(5)
        assert from_shorthand("P13") == path_graph(13)
        assert isomorphic(from_shorthand("C5+"), cycle_with_chord(2, 1))
        assert from_shorthand("K2,3") == complete_bipartite(2, 3)


class TestAlgebra:
    def test_tensor_k2_k2(self):
        g = tensor_product(complete_graph(2), complete_graph(2))
        assert g.n == 4 and g.num_edges == 2

    def test_tensor_k2_k3_is_c6(self):
        assert isomorphic(tensor_product(complete_graph(2), complete_graph(3)),
                          cycle_graph(6))

    def test_union(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert g.n == 6 and g.num_edges == 6

    def test_union_of_many_matches_pairwise(self):
        # the n-ary union against the two-argument one folded left
        def pairwise(g, h):
            edges = set(g.edges)
            edges.update((g.n + a, g.n + b) for a, b in h.edges)
            return SimpleGraph(g.n + h.n, frozenset(edges))

        rng = random.Random(37)
        for _ in range(40):
            parts = [SimpleGraph(n, frozenset(e for e in itertools.combinations(range(n), 2)
                                              if rng.random() < 0.5))
                     for n in (rng.randint(0, 6) for _ in range(rng.randint(1, 6)))]
            assert disjoint_union(*parts) == functools.reduce(pairwise, parts)
            assert disjoint_union(*parts[:2]) == functools.reduce(pairwise, parts[:2])
        assert disjoint_union() == SimpleGraph(0, frozenset())

    def test_tensor_counts(self):
        small = [path_graph(1), path_graph(2), complete_graph(3), cycle_graph(4)]
        for g, h in itertools.product(small, repeat=2):
            t = tensor_product(g, h)
            assert t.n == g.n * h.n
            assert t.num_edges == 2 * g.num_edges * h.num_edges

    def test_blowup(self):
        assert isomorphic(blowup(complete_graph(2), [2, 2]), cycle_graph(4))
        assert isomorphic(blowup(complete_graph(3), [2, 1, 1]), k4_minus_e())
        assert blowup(path_graph(1), [1, 1]) == path_graph(1)
        with pytest.raises(GraphError):
            blowup(path_graph(1), [0, 1])

    def test_blowup_all_ones(self):
        for g in enumerate_graphs(4, dedup=True):
            assert isomorphic(blowup(g, [1] * g.n), g)


class TestEnumerationAndCanonical:
    def test_counts(self):
        assert sum(1 for _ in enumerate_graphs(3, dedup=True)) == 4
        assert sum(1 for _ in enumerate_graphs(4, dedup=True)) == 11
        assert sum(1 for _ in enumerate_graphs(3, dedup=False)) == 8

    def test_canonical_blowup_equivalence(self):
        assert canonical_form(cycle_graph(4)) == canonical_form(
            blowup(complete_graph(2), [2, 2]))

    def test_canonical_permutation_invariance(self):
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(3):
                edges = frozenset(
                    p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5
                )
                g = SimpleGraph(n, edges)
                ref = canonical_form(g)
                for _ in range(20):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(g.relabeled(perm)) == ref

    def test_canonical_cap(self):
        with pytest.raises(GraphError):
            canonical_form(SimpleGraph(9, frozenset()))

    def test_canonical_ints_match_canonical_form(self):
        # the byte-table sweep gives every labelled graph the minimum image
        # over all permutations, the integer that canonical_form spells out
        rng = random.Random(13)
        for n in range(7):
            canon = _canonical_ints(n)
            npairs = n * (n - 1) // 2
            xs = range(1 << npairs) if n <= 4 else rng.sample(range(1 << npairs), 40)
            for x in xs:
                g = SimpleGraph(n, frozenset(
                    p for i, p in enumerate(itertools.combinations(range(n), 2)) if x >> i & 1))
                assert _graph_to_int(g) == x
                bits = canonical_form(g).split(":")[1]
                assert canon[x] == sum(1 << i for i, b in enumerate(bits) if b == "1")


def random_graph(rng, n, p=0.5):
    return SimpleGraph(n, frozenset(
        e for e in itertools.combinations(range(n), 2) if rng.random() < p))


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


class TestIsomorphic:
    """isomorphic decides on invariants where it can; canonical_form is the oracle."""

    def agrees(self, g, h):
        want = g.n == h.n and canonical_form(g) == canonical_form(h)
        assert isomorphic(g, h) == want == isomorphic(h, g)
        return want

    def test_seeded_relabelled_pairs(self):
        rng = random.Random(23)
        verdicts = []
        for n in range(8):
            for _ in range(12 if n < 7 else 1):
                g = random_graph(rng, n)
                assert self.agrees(g, shuffled(rng, g))
                # same order and edge count, often not isomorphic
                other = SimpleGraph(n, frozenset(rng.sample(
                    list(itertools.combinations(range(n), 2)), g.num_edges)))
                verdicts.append(self.agrees(g, other))
                verdicts.append(self.agrees(g, shuffled(rng, random_graph(rng, n))))
        assert True in verdicts and False in verdicts

    def test_same_degree_sequence_not_isomorphic(self):
        two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert not self.agrees(cycle_graph(6), two_triangles)
        prism = SimpleGraph(6, cycle_graph(3).edges | {(3, 4), (4, 5), (3, 5)}
                            | {(0, 3), (1, 4), (2, 5)})
        assert not self.agrees(complete_bipartite(3, 3), prism)
        rng = random.Random(29)
        assert self.agrees(shuffled(rng, prism), prism)
        assert self.agrees(shuffled(rng, cycle_graph(6)), cycle_graph(6))

    def test_equal_orders_past_the_cap_raise(self):
        for g, h in ((path_graph(8), path_graph(8)), (cycle_graph(9), path_graph(8)),
                     (SimpleGraph(12), complete_graph(12))):
            with pytest.raises(GraphError, match="canonical form capped at n=8"):
                isomorphic(g, h)

    def test_different_orders_are_not_isomorphic(self):
        for a, b in ((1, 2), (7, 8), (8, 9), (9, 10), (3, 40)):
            assert not isomorphic(SimpleGraph(a), SimpleGraph(b))
            assert not isomorphic(path_graph(a), path_graph(b))


class TestCachedStructure:
    def test_matches_edge_scan(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(0, 9)
            g = SimpleGraph(n, frozenset(
                p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4))
            for v in range(n):
                nbrs = {b if a == v else a for a, b in g.edges if v in (a, b)}
                assert g.neighbors(v) == nbrs
                assert g.degree(v) == len(nbrs)
                assert g.adjacency_lists()[v] == nbrs
                assert g.adjacency_masks()[v] == sum(1 << w for w in nbrs)

    def test_masks_built_once(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 9), 0.4)
            masks = g.adjacency_masks()
            assert masks == tuple(sum(1 << w for w in g.neighbors(v)) for v in range(g.n))
            assert g.adjacency_masks() is masks

    def test_subgraph_matches_edge_scan(self):
        def by_edge_scan(g, vertices):
            idx = {v: i for i, v in enumerate(vertices)}
            return SimpleGraph(len(vertices), frozenset(
                (idx[a], idx[b]) for a, b in g.edges if a in idx and b in idx))

        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(0, 10)
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            vertices = rng.sample(range(n), rng.randint(0, n))
            assert g.subgraph(vertices) == by_edge_scan(g, vertices)

    def test_callers_cannot_corrupt_the_cache(self):
        g = cycle_graph(4)
        adj = g.adjacency_lists()
        adj[0] = {2}
        with pytest.raises(TypeError):
            g.adjacency_masks()[0] = 0
        with pytest.raises(AttributeError):
            g.neighbors(0).add(2)
        assert g.neighbors(0) == {1, 3} and g.adjacency_lists()[0] == {1, 3}
        assert g.adjacency_masks()[0] == 0b1010 and g.degree(0) == 2
        assert g == cycle_graph(4) and hash(g) == hash(cycle_graph(4))


    def test_components_match_union_find(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(0, 10)
            g = SimpleGraph(n, frozenset(
                p for p in itertools.combinations(range(n), 2) if rng.random() < 0.2))
            root = list(range(n))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for a, b in g.edges:
                root[find(a)] = find(b)
            want = {}
            for v in range(n):
                want.setdefault(find(v), []).append(v)
            assert g.components() == tuple(sorted(tuple(c) for c in want.values()))
            assert g.is_connected() == (n <= 1 or len(want) == 1)

    def test_components_built_once_and_immutable(self):
        g = disjoint_union(path_graph(2), cycle_graph(3))
        comps = g.components()
        assert comps == ((0, 1, 2), (3, 4, 5)) and g.components() is comps
        with pytest.raises((AttributeError, TypeError)):
            comps[0].append(7)
        with pytest.raises(TypeError):
            comps[0][0] = 7

class TestShapeRecognisers:
    def test_paths_and_cycles(self):
        rng = random.Random(19)
        for m in range(1, 8):
            perm = list(range(m + 1))
            rng.shuffle(perm)
            assert path_graph(m).relabeled(perm).is_path()
            assert not path_graph(m).is_cycle()
        for m in range(3, 8):
            perm = list(range(m))
            rng.shuffle(perm)
            assert cycle_graph(m).relabeled(perm).is_cycle()
            assert not cycle_graph(m).is_path()
        assert SimpleGraph(1).is_path() and complete_graph(2).is_path()
        assert not complete_graph(2).is_cycle() and not SimpleGraph(0).is_path()
        for g in (star_graph(3), SimpleGraph(3), disjoint_union(path_graph(1), path_graph(1)),
                  disjoint_union(cycle_graph(3), cycle_graph(3))):
            assert not g.is_path() and not g.is_cycle()


class TestIO:
    def test_edge_json(self):
        g = decode_graph('{"n":3,"edges":[[0,1],[1,2],[0,2]]}', "edge_json")
        assert g == complete_graph(3)

    def test_graph6_k3(self):
        assert decode_graph("Bw", "graph6") == complete_graph(3)
        assert encode_graph(complete_graph(3), "graph6") == "Bw"

    def test_roundtrip(self):
        rng = random.Random(3)
        graphs = [complete_graph(5), cycle_graph(7), path_graph(4)]
        for n in (1, 2, 6, 10, 70):
            edges = frozenset(
                p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3
            )
            graphs.append(SimpleGraph(n, edges))
        for g in graphs:
            for fmt in ("graph6", "edge_json"):
                assert decode_graph(encode_graph(g, fmt), fmt) == g
            text = encode_graph(g, "graph6")
            assert encode_graph(decode_graph(text, "graph6"), "graph6") == text

    def test_malformed(self):
        with pytest.raises(GraphError):
            decode_graph('{"n":2,"edges":[[0,0]]}', "edge_json")
        with pytest.raises(GraphError):
            decode_graph('{"n":2,"edges":[[0,5]]}', "edge_json")
        for text in ('{"n":true,"edges":[]}', '{"n":2.0,"edges":[[0,1]]}',
                     '{"n":2,"edges":[[0,1.0]]}', '{"n":2,"edges":[[false,true]]}',
                     '{"n":2,"edges":[[0,1,1]]}', '{"n":2,"edges":5}',
                     '{"n":2,"edges":[5]}'):
            with pytest.raises(GraphError):
                decode_graph(text, "edge_json")
