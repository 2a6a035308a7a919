"""Closed-form domination exponents C(G,H) and the dispatching front-end.

C(G,H) is the least c with t(G,T) >= t(H,T)^c for every target T; it
exists iff hom(G,H) > 0. Everything here returns exact Fractions; bounds
carry a provenance trail naming each rule that fired.

The rules' subgraph questions (a copy of G in H or in part of H, a
Hamiltonian cycle, a path cover) are searched on neighbour bitmasks.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    GraphError,
    cycle_graph,
    isomorphic,
    k4_minus_e,
    path_graph,
    triangle_pendant,
)
from .cones import ConeError, even_cycle_ray_entry
from .constructions import simple_family
from .homcount import hom_exists
from .ratlp import frac_to_str
from .verifier import Corpus, CorpusSpec, build_corpus, harvest_lower

MAX_SEARCH_N = 12  # largest H of the Hamiltonian-cycle and path-cover searches
MAX_KK_N = 10  # largest H of the Kruskal-Katona all-subsets check


@dataclass(frozen=True)
class ExponentBound:
    """lower <= C(G,H) <= upper, with both None when C does not exist."""

    lower: Fraction = None
    upper: Fraction = None
    provenance: tuple = ()

    def __post_init__(self):
        if (self.lower is None) != (self.upper is None):
            raise GraphError("a bound needs both ends, or neither when C does not exist")
        if self.exists and self.lower > self.upper:
            raise AssertionError(f"crossed bounds {self.lower} > {self.upper}")

    @property
    def exists(self):
        return self.upper is not None

    @property
    def exact(self):
        return self.lower == self.upper

    def to_data(self):
        """The JSON fields; both bounds read "nonexistent" when C does not exist."""
        end = frac_to_str if self.exists else (lambda _: "nonexistent")
        return {"lower": end(self.lower), "upper": end(self.upper), "exact": self.exact,
                "provenance": list(self.provenance)}


# ---------------------------------------------------------------------------
# existence and the generic bounds
# ---------------------------------------------------------------------------

def exists_exponent(g, h):
    """C(G,H) exists iff some homomorphism G -> H exists."""
    return hom_exists(g, h)


def crude_upper(g, h):
    """max over r in [1, min(v(G), v(H))] of (v(G)/r)^r.

    This single max dominates both branches of the existence theorem's
    bound (the proof bounds C by (v(G)/r)^r where r is the size of the
    image of a homomorphism G -> H), avoiding any comparison against e.
    """
    if not exists_exponent(g, h):
        raise GraphError("exponent does not exist")
    return _crude_bound(g, h)


def _crude_bound(g, h):
    """crude_upper(g, h) for a pair already known to have a homomorphism."""
    return max(Fraction(g.n, r) ** r for r in range(1, min(g.n, h.n) + 1))


def simple_lower(g, h):
    """max(e(G)/e(H), (v(G)-1)/(v(H)-1), v(G)/v(H)) for connected G, H."""
    if not g.is_connected() or not h.is_connected():
        raise GraphError("simple lower bound needs connected graphs")
    if h.num_edges == 0 or h.n < 2:
        raise GraphError("H needs at least one edge")
    return max(
        Fraction(g.num_edges, h.num_edges),
        Fraction(g.n - 1, h.n - 1),
        Fraction(g.n, h.n),
    )


# ---------------------------------------------------------------------------
# paths (P_k = path with k edges)
# ---------------------------------------------------------------------------

def path_exponent(k, ell):
    """C(P_k, P_ell), the full four-case characterization.

    The diagonal k = ell is not covered by the case list (the strict
    comparisons leave it implicit) and returns exactly 1.
    """
    if k < 1 or ell < 1:
        raise GraphError("need k, ell >= 1")
    if k == ell:
        return Fraction(1)
    if k % 2 == 1 and ell % 2 == 0:
        return Fraction(k + 1, ell)
    if k > ell:  # here k even, or both odd
        return Fraction(k, ell)
    if k % 2 == 0:  # k < ell
        return Fraction(k + 1, ell + 1)
    # k < ell, both odd
    a, r = divmod(ell, k + 1)
    return Fraction(k + ell - r, (a + 1) * ell)


# ---------------------------------------------------------------------------
# cycles (C_2 = K_2 by convention)
# ---------------------------------------------------------------------------

def even_cycle_exponent(k, ell):
    """C(C_2k, C_ell): 4k(k-1)/(2k*ell - 2k - ell) when 2k >= ell,
    and the previously known 2k/ell when 2k < ell."""
    if k < 1 or ell < 2:
        raise GraphError("need k >= 1 and ell >= 2")
    if 2 * k < ell:
        return Fraction(2 * k, ell)
    if k == 1:
        return Fraction(1)  # C_2 vs C_2
    return Fraction(4 * k * (k - 1), 2 * k * ell - 2 * k - ell)


def union_exponent_lp(g_cycles, h_cycles, k):
    """C(G,H) for disjoint unions of edges/even cycles, lengths even in
    [2, 2k] (2 = K_2): the optimum of the cone LP max -sum_{c in G} y_c over
    y in even_cycle_cone(k) with sum_{c in H} y_c = -1, read off the closed
    forms of its rays r_1..r_{k-1}, s = (-1, ..., -k) in O(k (|G| + |H|)).

    Proof. Every ray entry is negative. r_i is affine in j on each side of
    j = i+1 (slopes -(2i+1), then -2i), so of the log-convexity rows only
    the break's, row i-1 for i <= k-2, is slack; y_2 = -i, y_{2k-2} =
    -2i(k-1) and y_{2k} = -2ik make the last two rows tight. r_{k-1} is
    affine, slack on the Sidorenko-saturation row only; s is linear, slack
    on the last row only (even_cycle_expected_slack_row; a test checks these
    with verify_rays). So the row matrix A sends the rays to positive
    multiples of distinct unit vectors: the cone {y : Ay >= 0} is exactly
    the rays' conical hull. For y = sum_r l_r r with l >= 0 the slice reads
    sum_r l_r H(r) = -1, where F(r) = sum_{c in F} r_c and every H(r) < 0;
    so the objective is a convex combination of the ratios G(r)/H(r), and
    the optimum is their largest: G(r) H(q) > G(q) H(r) ranks r above q.
    """
    if not h_cycles:
        raise ConeError("H must contain at least one cycle")
    for c in [*g_cycles, *h_cycles]:
        if c % 2 != 0 or not (2 <= c <= 2 * k):
            raise ConeError(f"cycle length {c} not even in [2, {2 * k}]")
    gj, hj = [c // 2 for c in g_cycles], [c // 2 for c in h_cycles]
    rays = [functools.partial(even_cycle_ray_entry, i) for i in range(1, k)] + [lambda j: -j]
    sums = [(sum(map(r, gj)), sum(map(r, hj))) for r in rays]
    return Fraction(*max(sums, key=functools.cmp_to_key(lambda r, q: r[0] * q[1] - q[0] * r[1])))


def _closes_cycle(masks, v, rest):
    """Whether a path from v through every vertex of bitmask ``rest`` can
    end next to vertex 0."""
    if not rest:
        return bool(masks[v] & 1)
    cand = masks[v] & rest
    while cand:
        b = cand & -cand
        if _closes_cycle(masks, b.bit_length() - 1, rest ^ b):
            return True
        cand ^= b
    return False


def is_hamiltonian(h):
    """Whether H has a Hamiltonian cycle: a path search from vertex 0 on
    neighbour bitmasks (small graphs only)."""
    if h.n > MAX_SEARCH_N:
        raise GraphError(f"Hamiltonicity search capped at {MAX_SEARCH_N} vertices")
    return h.n >= 3 and _closes_cycle(h.adjacency_masks(), 0, (1 << h.n) - 2)


def odd_cycle_bounds(k, ell):
    """(lower, upper) bounds on C(C_{2k+1}, C_{2ell+1}) for k > ell >= 1."""
    if not k > ell >= 1:
        raise GraphError("need k > ell >= 1")
    lower = Fraction(4 * k * k - 1, 4 * k * ell - 1)
    if k <= 2 * ell - 1:
        upper = Fraction(2 * (k + 1), 2 * ell + 1)
    else:
        m = 2 * k - 2 * ell + 1
        upper = Fraction(2 * k * m - 1, 2 * ell * m - 1)
    return lower, upper


# ---------------------------------------------------------------------------
# fractional matchings and the subset/cover rules
# ---------------------------------------------------------------------------

def _double_cover_matching(adj):
    """Maximum matching of the bipartite double cover H x K_2.

    Left copy v is joined to right copy u' for every edge uv of H. Each
    free left vertex in turn looks for an augmenting path by breadth-first
    search. Returns mate, where mate[v] = u when v is matched to u' and -1
    when v is free.
    """
    n = len(adj)
    mate = [-1] * n
    owner = [-1] * n   # owner[u] = v when v is matched to u'
    for root in range(n):
        came_from = {}  # right vertex -> the left vertex that reached it
        frontier = [root]
        end = -1
        while frontier and end < 0:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u in came_from:
                        continue
                    came_from[u] = v
                    if owner[u] < 0:
                        end = u
                        break
                    nxt.append(owner[u])
                if end >= 0:
                    break
            frontier = nxt
        while end >= 0:   # flip the path's edges in and out of the matching
            v = came_from[end]
            mate[v], owner[end], end = end, v, mate[v]
    return mate


def _konig_cover(adj, mate):
    """(left, right) membership of the Konig vertex cover of the double
    cover built from mate: the left vertices that no alternating path from
    a free left vertex reaches, and the right vertices that one does."""
    n = len(adj)
    owner = [-1] * n
    for v, u in enumerate(mate):
        if u >= 0:
            owner[u] = v
    left = [u < 0 for u in mate]   # reached from a free left vertex
    right = [False] * n
    stack = [v for v in range(n) if left[v]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not right[u]:
                right[u] = True
                w = owner[u]
                if w >= 0 and not left[w]:
                    left[w] = True
                    stack.append(w)
    return [not r for r in left], right


def fractional_matching(h):
    """nu*(H), half the size of a maximum matching M of the bipartite
    double cover H x K_2 (Scheinerman-Ullman, Fractional Graph Theory, ch. 2).

    The value is certified exactly by LP duality: x_e = ([uv' in M] +
    [vu' in M])/2 is a fractional matching of H, y_v = ([v in K] + [v' in
    K])/2 for the Konig cover K of the double cover is a fractional vertex
    cover, and their totals agree; AssertionError (a bug) when they do not.
    """
    if not h.edges:
        raise GraphError("H has no edges")
    adj = h.adjacency_lists()
    mate = _double_cover_matching(adj)
    cover_left, cover_right = _konig_cover(adj, mate)
    # twice x and twice y, so that every check is on integers
    x2 = {(u, v): (mate[u] == v) + (mate[v] == u) for u, v in h.edges}
    y2 = [a + b for a, b in zip(cover_left, cover_right)]
    load = [0] * h.n
    for (u, v), xe in x2.items():
        load[u] += xe
        load[v] += xe
        if y2[u] + y2[v] < 2:
            raise AssertionError(f"fractional cover misses edge {(u, v)}")
    if max(load) > 2:
        raise AssertionError("fractional matching overloads a vertex")
    total = sum(x2.values())
    if total != sum(y2):
        raise AssertionError(f"matching {total}/2 and cover {sum(y2)}/2 differ")
    return Fraction(total, 2)


def edge_exponent(h):
    """C(K_2, H) = 1/nu*(H)."""
    return 1 / fractional_matching(h)


def _embed(masks, fits, earlier, images, i, free):
    """Whether pattern vertices i, i+1, ... of the search order can be placed
    on host vertices of bitmask ``free``: vertex i goes into fits[i], next
    to the images of its earlier neighbours ``earlier[i]``."""
    if i == len(fits):
        return True
    cand = fits[i] & free
    for j in earlier[i]:
        cand &= masks[images[j]]
    while cand:
        b = cand & -cand
        images[i] = b.bit_length() - 1
        if _embed(masks, fits, earlier, images, i + 1, free ^ b):
            return True
        cand ^= b
    return False


def _search_order(pattern):
    """The pattern's vertex degrees in search order (highest degree first)
    and, for each, the positions of its earlier neighbours."""
    order = sorted(range(pattern.n), key=pattern.degree, reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    return ([pattern.degree(v) for v in order],
            [[pos[u] for u in pattern.neighbors(v) if pos[u] < pos[v]] for v in order])


def _embeds(masks, degrees, earlier, within):
    """Whether the host vertices of bitmask ``within`` hold a copy of the
    pattern with search order ``degrees``, ``earlier``. A pattern vertex of
    degree d only goes to a vertex with at least d neighbours inside
    ``within``."""
    room = [(m & within).bit_count() if within >> w & 1 else -1 for w, m in enumerate(masks)]
    fits = {d: sum(1 << w for w, r in enumerate(room) if r >= d) for d in set(degrees)}
    return _embed(masks, [fits[d] for d in degrees], earlier, [0] * len(degrees), 0, within)


def has_subgraph(host, pattern):
    """Whether the host holds a copy of the pattern: an injective
    adjacency-preserving map, searched on neighbour bitmasks."""
    if pattern.n > host.n or pattern.num_edges > host.num_edges:
        return False
    return _embeds(host.adjacency_masks(), *_search_order(pattern), (1 << host.n) - 1)


def kk_exponent(g, h):
    """C(G,H) = v(G)/v(H) when every v(G)-subset of V(H) contains a copy
    of G (Kruskal-Katona regime), each subset searched as a ``within``
    mask under one search order of G. None when the hypothesis fails."""
    if g.n > h.n:
        return None
    if h.n > MAX_KK_N:
        raise GraphError(f"all-subsets check capped at {MAX_KK_N} vertices")
    if g.num_edges > h.num_edges:
        return None
    masks, (degrees, earlier) = h.adjacency_masks(), _search_order(g)
    for subset in itertools.combinations(range(h.n), g.n):
        if not _embeds(masks, degrees, earlier, sum(1 << v for v in subset)):
            return None
    return Fraction(g.n, h.n)


def _cover_rest(masks, free):
    """Whether the vertices of bitmask ``free`` split into paths of >= 3
    vertices of the graph: the path through the lowest free vertex is
    grown right arm first, then left arm, so each shape comes once."""
    if not free:
        return True
    b = free & -free
    v = b.bit_length() - 1
    return _grow_path(masks, free ^ b, v, v, 1, False)


def _grow_path(masks, free, head, tail, size, right_done):
    """Whether some extension of the path of ``size`` vertices from head to
    tail, by free vertices at the tail (until ``right_done``) and then at
    the head, leaves a rest that ``_cover_rest`` covers."""
    if size >= 3 and _cover_rest(masks, free):
        return True
    if not right_done:
        cand = masks[tail] & free
        while cand:
            b = cand & -cand
            if _grow_path(masks, free ^ b, head, b.bit_length() - 1, size + 1, False):
                return True
            cand ^= b
    cand = masks[head] & free
    while cand:
        b = cand & -cand
        if _grow_path(masks, free ^ b, b.bit_length() - 1, tail, size + 1, True):
            return True
        cand ^= b
    return False


def has_path_cover(h):
    """Can V(H) be partitioned into vertex-disjoint paths of >= 2 edges
    whose edges all lie in H? Exhaustive search on neighbour bitmasks,
    small graphs only."""
    if h.n > MAX_SEARCH_N:
        raise GraphError(f"path-cover search capped at {MAX_SEARCH_N} vertices")
    return _cover_rest(h.adjacency_masks(), (1 << h.n) - 1)


def p2_exponent(h):
    """C(P_2, H) = 3/v(H) when H has a disjoint-path vertex cover."""
    return Fraction(3, h.n) if has_path_cover(h) else None


@functools.lru_cache(maxsize=256)
def _nu_star(g):
    """fractional_matching(g), remembered per graph."""
    return fractional_matching(g)


def subgraph_equal_nu(g, h):
    """C(G,H) = 1 when G is a subgraph of H with nu*(G) = nu*(H). The
    nu* values are compared first; G is searched for in H only when they
    agree."""
    if g.num_edges == 0 or h.num_edges == 0 or _nu_star(g) != _nu_star(h):
        return None
    return Fraction(1) if has_subgraph(h, g) else None


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

def _without_isolated(g):
    """G minus its isolated vertices, or G itself when it has none."""
    keep = [v for v in range(g.n) if g.degree(v)]
    return g if len(keep) == g.n else g.subgraph(keep)


def _component_power(g):
    """(base graph, multiplicity) when all components are isomorphic."""
    comps = g.components()
    if len(comps) <= 1:
        return g, 1
    subs = [g.subgraph(c) for c in comps]
    first = subs[0]
    for other in subs[1:]:
        if not isomorphic(first, other):
            return g, 1
    return first, len(subs)


def _cycle_length(g):
    """m when g is the cycle C_m, 2 when g is K2 (C_2 = K2), else None."""
    if g.n == 2 and g.num_edges == 1:
        return 2
    return g.n if g.is_cycle() else None


def _even_cycle_lengths(g):
    """Component lengths when g is a disjoint union of edges/even cycles: a
    component of 2 vertices is K2, one whose degrees are all 2 a cycle."""
    lengths = [len(c) if len(c) == 2 or all(g.degree(v) == 2 for v in c) else None
               for c in g.components()]
    return None if any(m is None or m % 2 for m in lengths) else lengths


# the fixed graphs _exact_rule compares against
_K3, _K4_MINUS_E, _PAW, _P2 = cycle_graph(3), k4_minus_e(), triangle_pendant(), path_graph(2)


def _exact_rule(g, h):
    """(value, rule-name) from a single exact closed form, else None. The
    hypotheses of every rule give a homomorphism G -> H: a value implies C
    exists."""
    if isomorphic(g, h):
        return Fraction(1), "identical"

    if g.is_path() and h.is_path() and g.num_edges >= 1 and h.num_edges >= 1:
        return path_exponent(g.num_edges, h.num_edges), "path-formula"

    gc, hc = _cycle_length(g), _cycle_length(h)
    if gc is not None and gc % 2 == 0:
        if hc is not None:
            return even_cycle_exponent(gc // 2, hc), "even-cycle-formula"
        if gc >= h.n and h.n <= MAX_SEARCH_N and is_hamiltonian(h):
            return even_cycle_exponent(gc // 2, h.n), "hamiltonian-target"

    if g.n == 2 and g.num_edges == 1 and h.num_edges >= 1:
        return 1 / _nu_star(h), "edge-fractional-matching"  # edge_exponent(h), nu* cached

    if isomorphic(h, _K3):
        if isomorphic(g, _K4_MINUS_E):
            return Fraction(2), "k4-minus-e-vs-triangle"
        if isomorphic(g, _PAW):
            return Fraction(3, 2), "pendant-triangle-vs-triangle"

    if isomorphic(g, _P2) and h.n <= MAX_SEARCH_N and (val := p2_exponent(h)):
        return val, "p2-path-cover"

    if h.n <= MAX_KK_N and (val := kk_exponent(g, h)):
        return val, "kruskal-katona"

    if val := subgraph_equal_nu(g, h):
        return val, "subgraph-equal-matching"

    glens, hlens = _even_cycle_lengths(g), _even_cycle_lengths(h)
    if glens and hlens:
        k = max(max(glens + hlens) // 2, 2)
        return union_exponent_lp(glens, hlens, k), "even-cycle-union-lp"

    return None


# intermediates tried for the compositional upper bound C(F,H) <= C(F,G) C(G,H),
# pairwise non-isomorphic (C2 is K2, the path P1)
_COMPOSITION_CATALOG = tuple(
    [path_graph(m) for m in range(1, 7)] + [cycle_graph(m) for m in range(3, 9)])


@functools.lru_cache(maxsize=4096)
def _catalog_rule(g, h):
    """_exact_rule(g, h) for a query graph and a catalog graph, remembered:
    the same query graph meets all of the catalog again on every query."""
    return _exact_rule(g, h)


# scaling-family targets (kind, sizes) added to the graphs on <= 6 vertices
_HARVEST_FAMILIES = (("two_cliques", (4, 6, 8)), ("clique_plus_isolated", (4, 6, 8)),
                     ("single_edge", (6, 10, 20)))


@functools.lru_cache(maxsize=None)
def _harvest_corpus():
    """The harvest corpus, built on the first harvest and reused after it."""
    extra = tuple((f"{kind}({n})", simple_family(kind, n))
                  for kind, sizes in _HARVEST_FAMILIES for n in sizes)
    return Corpus(build_corpus(CorpusSpec(exhaustive_n=6)).entries + extra)


def dispatch_exponent(g, h, harvest=False):
    """Best available ExponentBound, with a provenance trail.

    Priority: nonexistence; isolated vertices dropped (densities ignore
    them), with C = 0 for an edgeless G; union-power rewriting C(G^a, H^b)
    = (a/b) C(G,H); exact closed forms; otherwise bounds (odd-cycle pair
    bounds, the simple lower bound, the crude upper bound, depth-2
    compositions through a small catalog). harvest=True also tries
    ``verifier.harvest_lower`` on the harvest corpus, whose provenance names
    the witness. Crossed bounds (an unsound rule) raise AssertionError.
    """
    if not exists_exponent(g, h):
        return ExponentBound(provenance=("nonexistent",))

    g1, h1 = _without_isolated(g), _without_isolated(h)
    prov_prefix = () if g1 is g and h1 is h else ("isolated-vertices-dropped",)
    if not g1.edges:
        return ExponentBound(Fraction(0), Fraction(0), prov_prefix + ("edgeless-g",))
    g0, a = _component_power(g1)
    h0, b = _component_power(h1)
    scale = Fraction(a, b)
    prov_prefix += () if scale == 1 else ("union-power",)

    rule = _exact_rule(g0, h0)
    if rule is not None:
        val, name = rule
        return ExponentBound(scale * val, scale * val, prov_prefix + (name,))

    lower, upper = Fraction(0), None
    prov = list(prov_prefix)

    if g0.is_cycle() and h0.is_cycle() and g0.n % 2 == 1 and h0.n % 2 == 1 \
            and g0.n > h0.n:
        lower, upper = odd_cycle_bounds((g0.n - 1) // 2, (h0.n - 1) // 2)
        prov.append("odd-cycle-bounds")

    if g0.is_connected() and h0.is_connected():
        sl = simple_lower(g0, h0)
        if sl > lower:
            lower = sl
            prov.append("simple-lower")

    # existence is decided above: G0 -> H0 whenever G -> H
    cu = _crude_bound(g0, h0)
    if upper is None or cu < upper:
        upper = cu
        prov.append("crude-upper")

    # when nu*(G) = nu*(H), subgraph_equal_nu has searched for G in H inside
    # the declined _exact_rule and found no copy; only differing nu* leave
    # a search to make
    if upper > 1 and _nu_star(g0) != _nu_star(h0) and has_subgraph(h0, g0):
        upper = Fraction(1)
        prov.append("subgraph-upper")

    for mid in _COMPOSITION_CATALOG:
        left = _catalog_rule(g0, mid)
        # after "identical", mid is G again and C(mid, H) the declined chain
        right = left and left[1] != "identical" and _catalog_rule(mid, h0)
        if right:
            cand = left[0] * right[0]
            if cand < upper:
                upper = cand
                prov.append(f"composition({left[1]}*{right[1]})")

    if harvest:
        found = harvest_lower(g0, h0, _harvest_corpus())
        if found and found[0] > lower:
            lower = found[0]
            prov.append(f"harvested({found[1]})")

    return ExponentBound(scale * lower, scale * upper, tuple(prov))
