import functools
import itertools
import random

import numpy as np
import pytest

from homdom.graphs import (
    Biadjacency,
    CliqueUnion,
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
    triangle_pendant,
)
from homdom.graphs import _graph_to_int, _image_weights, _int_to_graph


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

    def test_shorthand_names_and_stars(self):
        for name in ("paw", "K3+e", "triangle_pendant", " paw\n"):
            assert from_shorthand(name) == triangle_pendant()
        assert from_shorthand("S1") == complete_graph(2)
        assert from_shorthand("S4") == star_graph(4) == complete_bipartite(1, 4)

    @pytest.mark.parametrize("text, message", [
        ("S0", "star needs at least one leaf"), ("K2,0", "parts must be nonempty"),
        ("C3+", "need k > l >= 1"), ("P-1", "path length must be nonnegative"),
        ("Sx", "cannot parse graph shorthand 'Sx'"), ("K2,3,4", "cannot parse graph shorthand"),
    ])
    def test_shorthand_refusals(self, text, message):
        # a builder's own refusal is raised with the text named; text that
        # reads as no shorthand is refused as such
        with pytest.raises(GraphError, match=message):
            from_shorthand(text)


class TestAlgebra:
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
        for n, count in enumerate((1, 1, 2, 4, 11, 34, 156)):
            reps = list(enumerate_graphs(n, dedup=True))
            forms = [canonical_form(g) for g in reps]
            assert len(reps) == count and len(set(forms)) == count
            # one class per canonical integer, ascending, each its own representative
            ints = [int(f.split(":")[1][::-1] or "0", 2) for f in forms]
            assert ints == sorted(ints) == [_graph_to_int(g) for g in reps]
        assert sum(1 for _ in enumerate_graphs(3, dedup=False)) == 8

    def test_seven_vertex_classes(self):
        # A000088(7): the orbit pass marks all 2**21 labelled graphs; at n = 8
        # it would mark 2**28 and is refused
        reps = list(enumerate_graphs(7, dedup=True))
        ints = [_graph_to_int(g) for g in reps]
        assert len(reps) == 1044 and ints == sorted(set(ints))
        assert len({canonical_form(g) for g in reps}) == 1044
        with pytest.raises(GraphError, match="dedup enumeration capped at n=7"):
            next(enumerate_graphs(8, dedup=True))

    def test_canonical_blowup_equivalence(self):
        assert canonical_form(cycle_graph(4)) == canonical_form(
            blowup(complete_graph(2), [2, 2]))

    def test_canonical_permutation_invariance(self):
        rng = random.Random(11)
        for n in range(2, 9):
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

    def test_canonical_form_matches_brute_force(self):
        for n in range(6):
            assert [canonical_form(g) for g in enumerate_graphs(n)] == \
                brute_canonical_forms(n, list(enumerate_graphs(n)))
        rng = random.Random(17)
        for n in (6, 7, 8):
            gs = [random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))) for _ in range(20)]
            assert [canonical_form(g) for g in gs] == brute_canonical_forms(n, gs)

    def test_dedup_classes_match_brute_force(self):
        # each class integer of the orbit pass is the least image of its
        # graph over itertools.permutations; the classes are the canonical
        # forms of all labelled graphs for n <= 4, and hold those of
        # sampled labelled graphs for n = 5 and 6
        rng = random.Random(13)
        for n in range(7):
            classes = list(enumerate_graphs(n, dedup=True))
            npairs = n * (n - 1) // 2
            spelled = [f"{n}:" + "".join(str(_graph_to_int(g) >> i & 1) for i in range(npairs))
                       for g in classes]
            assert brute_canonical_forms(n, classes) == spelled
            xs = range(1 << npairs) if n <= 4 else rng.sample(range(1 << npairs), 40)
            forms = set(brute_canonical_forms(n, [_int_to_graph(n, x) for x in xs]))
            assert forms == set(spelled) if n <= 4 else forms <= set(spelled)

    def test_dedup_float32_equals_float64(self):
        # images of graphs on n <= 7 vertices are below 2**21, so W and the
        # orbit pass run in float32; the least image of every labelled
        # graph, taken in float64, gives the same classes
        assert [_image_weights(n).dtype for n in (5, 6, 7, 8)] == [np.float32] * 3 + [np.float64]
        w = _image_weights(6).astype(np.float64)
        least = set()
        for s in range(0, 1 << 15, 4096):
            bits = (np.arange(s, s + 4096)[:, None] >> np.arange(15) & 1).astype(np.float64)
            least.update((w @ bits.T).min(axis=0).astype(np.int64).tolist())
        assert sorted(least) == [_graph_to_int(g) for g in enumerate_graphs(6, dedup=True)]
        assert len(least) == 156  # A000088

def brute_canonical_forms(n, graphs):
    """canonical_form of each graph on n vertices: the least integer of its
    images over itertools.permutations, on Python ints, one pass for all."""
    pairs = list(itertools.combinations(range(n), 2))
    pos = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        pos[u][v] = pos[v][u] = i
    ons = [[i for i, e in enumerate(pairs) if e in g.edges] for g in graphs]
    best = [None] * len(graphs)
    for perm in itertools.permutations(range(n)):
        moved = [1 << pos[perm[u]][perm[v]] for u, v in pairs]
        for k, on in enumerate(ons):
            y = sum(map(moved.__getitem__, on))
            if best[k] is None or y < best[k]:
                best[k] = y
    return [f"{n}:" + "".join(str(b >> i & 1) for i in range(len(pairs))) for b in best]


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
        with pytest.raises(GraphError, match="canonical form capped at n=8"):
            isomorphic(path_graph(8), path_graph(8))
        # the cheap invariants still answer past the cap
        for g, h in ((cycle_graph(9), path_graph(8)), (SimpleGraph(12), complete_graph(12))):
            assert not isomorphic(g, h)

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

class TestCliqueUnion:
    def test_expanded_graph(self):
        t = CliqueUnion(7, [(2, 0, 1), (1, 3), (3, 4, 5, 6), (0, 3)])
        assert t.cliques == ((0, 1, 2), (1, 3), (3, 4, 5, 6), (0, 3))
        assert t.num_edges == 3 + 1 + 6 + 1 == len(t.edges)
        assert t.graph == SimpleGraph(7, t.edges)
        assert sorted(t.graph.degree(v) for v in range(7)) == [2, 3, 3, 3, 3, 3, 5]
        inc = t.incidence_matrix()
        assert inc.shape == (7, 4) and inc.sum() == 3 + 2 + 4 + 2
        assert (inc @ inc.T - np.diag(inc.sum(axis=1)) == t.graph.adjacency_matrix()).all()

    def test_no_cliques(self):
        t = CliqueUnion(3, ())
        assert t.num_edges == 0 and t.graph == SimpleGraph(3)

    @pytest.mark.parametrize("n, cliques, message", [
        (5, [(0, 1, 2), (1, 2, 3)], "share 2 vertices"),
        (6, [(0, 1), (2, 3, 4, 5), (1, 3, 4, 5)], "share 3 vertices"),
        (4, [(0, 1), (2, 4)], "out of range"),
        (4, [(-1, 2)], "out of range"),
        (4, [(0, 1), (3, 3)], "at least 2 distinct vertices"),
        (4, [(2,)], "at least 2 distinct vertices"),
    ])
    def test_rejects(self, n, cliques, message):
        with pytest.raises(GraphError, match=message):
            CliqueUnion(n, cliques)


class TestBiadjacency:
    def test_expanded_graph(self):
        block = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        t = Biadjacency(block)
        assert t.n == 5 and t.num_edges == 2
        assert t.edges == frozenset({(0, 2), (0, 4)})
        assert t.graph == SimpleGraph(5, t.edges)
        assert (t.graph.adjacency_matrix()[:2, 2:] == block).all()
        empty = Biadjacency(np.zeros((0, 3), dtype=bool))
        assert empty.n == 3 and empty.num_edges == 0 and empty.graph == SimpleGraph(3)

    def test_read_only_copy(self):
        block = np.eye(3, dtype=bool)
        t = Biadjacency(block)
        block[0, 1] = True
        assert t.num_edges == 3 and not t.block[0, 1]
        with pytest.raises(ValueError):
            t.block[0, 1] = True

    def test_read_only_owned_block_kept(self):
        # a read-only boolean array that owns its data is kept as it is; a
        # view of another array, or any other dtype, is copied
        block = np.eye(3, dtype=bool)
        block.flags.writeable = False
        assert Biadjacency(block).block is block
        view = np.eye(4, dtype=bool)[:3]
        view.flags.writeable = False
        for other in (view, block.astype(np.uint8)):
            t = Biadjacency(other)
            assert t.block is not other and t.block.dtype == bool and not t.block.flags.writeable

    def test_equality_and_hash(self):
        # a target equals only itself: equal blocks make distinct targets
        # (homcount's walk memo looks each one up by the object)
        block = np.random.default_rng(5).random((40, 30)) < 0.3
        a, b = Biadjacency(block), Biadjacency(block.copy())
        assert np.array_equal(a.block, b.block)
        assert a == a and a != b and len({a, b}) == 2

    def test_rejects_other_shapes(self):
        with pytest.raises(GraphError, match="2-dimensional"):
            Biadjacency(np.zeros(4, dtype=bool))


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
