"""Answer quality on the grids of small connected graphs.

Every ordered pair (G, H) of connected graphs on 2..5 vertices, and on
2..6 vertices, goes through ``formulas.dispatch_exponent``; on 2..7
vertices (990 025 pairs), a seeded sample does. Two figures
measure how good the answers are: the number of exact answers and the
summed gap, upper minus lower, over the pairs whose exponent exists. They
are pinned as a ratchet: a change that raises the exact count or lowers
the gap pins the new figures here, and no change may make either worse.
Every answer must also keep lower <= upper and the values the paper
fixes: C(G,G) = 1, C(K2,H) = 1/nu*(H) and the path formula.
"""
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from homdom.formulas import dispatch_exponent
from homdom.graphs import SimpleGraph, enumerate_graphs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# max order: (pairs, pairs with no exponent, least exact count, largest summed gap)
PINS = {
    5: (900, 293, 302, Fraction(136259, 120)),
    6: (20164, 6391, 4391, Fraction(14465184761, 244530)),
}
# the seeded sample of ordered pairs of connected graphs on 2..7 vertices:
# (seed, pairs, pairs with no exponent, least exact count, largest summed gap)
SAMPLE_PINS = (7, 6000, 1820, 1003, Fraction(13641331330909, 422702280))


def is_path(n, edges):
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return len(edges) == n - 1 and max(degrees) <= 2


@pytest.mark.parametrize("max_order", sorted(PINS))
def test_grid_quality(monkeypatch, max_order):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracles = importlib.import_module("oracles")
    classes = [(n, e) for n in range(2, max_order + 1) for e in oracles.graph_classes(n)
               if oracles.is_connected(n, e)]
    graphs = [SimpleGraph(n, e) for n, e in classes]
    # the oracle tries all 3^e(H) half-integral weightings, which past 8
    # edges on 6 vertices takes longer than the grid: C(K2,H) goes unchecked there
    nu = [oracles.fractional_matching_number(n, e) if n <= 5 or len(e) <= 8 else None
          for n, e in classes]
    pairs, nonexistent, exact, gap = PINS[max_order]
    got_exact, got_nonexistent, got_gap = 0, 0, Fraction(0)
    for (gn, ge), g in zip(classes, graphs):
        for j, ((hn, he), h) in enumerate(zip(classes, graphs)):
            bound = dispatch_exponent(g, h)
            if not bound.exists:
                got_nonexistent += 1
                continue
            assert bound.lower <= bound.upper, (g, h)
            got_exact += bound.exact
            got_gap += bound.upper - bound.lower
            if g is h:
                want = Fraction(1)
            elif gn == 2 and nu[j] is not None:
                want = 1 / nu[j]
            elif is_path(gn, ge) and is_path(hn, he):
                want = oracles.path_exponent(gn - 1, hn - 1)
            else:
                continue
            assert (bound.lower, bound.upper) == (want, want), (g, h)
    assert len(graphs) ** 2 == pairs
    assert got_nonexistent == nonexistent
    assert got_exact >= exact
    assert got_gap <= gap


def test_grid_quality_seven_vertex_sample(monkeypatch):
    # the classes come from enumerate_graphs, since the oracle's classes on
    # 7 vertices take about 9 s
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracles = importlib.import_module("oracles")
    graphs = [g for n in range(2, 8) for g in enumerate_graphs(n, dedup=True) if g.is_connected()]
    assert len(graphs) == 995
    seed, pairs, nonexistent, exact, gap = SAMPLE_PINS
    got_exact, got_nonexistent, got_gap = 0, 0, Fraction(0)
    for k in random.Random(seed).sample(range(len(graphs) ** 2), pairs):
        g, h = graphs[k // len(graphs)], graphs[k % len(graphs)]
        bound = dispatch_exponent(g, h)
        if not bound.exists:
            got_nonexistent += 1
            continue
        assert bound.lower <= bound.upper, (g, h)
        got_exact += bound.exact
        got_gap += bound.upper - bound.lower
        if g is h:
            want = Fraction(1)
        elif g.n == 2 and (h.n <= 5 or h.num_edges <= 8):
            want = 1 / oracles.fractional_matching_number(h.n, sorted(h.edges))
        elif g.is_path() and h.is_path():
            want = oracles.path_exponent(g.n - 1, h.n - 1)
        else:
            continue
        assert (bound.lower, bound.upper) == (want, want), (g, h)
    assert got_nonexistent == nonexistent
    assert got_exact >= exact
    assert got_gap <= gap
