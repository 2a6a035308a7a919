"""Exact homomorphism counting and densities.

All counts are exact Python integers; densities are exact Fractions.
Every exact kernel here runs in ``graphs.exact_dtype`` of an a priori
bound on its result entries (float32 below 2**24, float64 below 2**53,
int64 below 2**63, Python ints above): on non-negative integers no
partial sum or product, in any order, exceeds the final entry or rounds.

One engine counts hom(H, T) by variable elimination: the vertices of H
are summed out one at a time along a min-fill order, each by a single
``np.einsum`` over the factors that contain it, for a whole stack of
targets of one order at once. A plan that needs more work than the
caller allows falls back to a budgeted backtracker over the target's
bitmasks. Cycles and K2 on targets of more than 64 vertices are counted
instead by the target's walk kernel ``WalkCounter`` (which also sums the
chorded-cycle identity), built on the target's non-isolated vertices
only, with the entry bound A^k[i, j] <= D^(k-1), D the maximum degree. A
``Biadjacency`` target (the random bipartite power graphs) has a
``WalkCounter`` built from its block B alone, which counts closed walks
by powers of B B^T. A ``CliqueUnion`` target (the red-line graphs) has
the Gram kernel ``GramCounter`` instead, which counts closed walks of
length up to 4 from r x r products of its clique incidence matrix. Any
other question about either goes to its expanded graph.
"""
from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (Biadjacency, CliqueUnion, GraphError, HomdomError, SimpleGraph,
                     exact_dtype)


class ResourceLimitError(HomdomError, RuntimeError):
    """A counting task exceeded its configured work ceiling."""


# ---------------------------------------------------------------------------
# the counting engine: variable elimination along a min-fill order
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyABCDEFGHIJKLMNOPQRSTUVWXYZ"  # "z" is the batch axis
_MAX_ENTRIES = 1 << 18  # entries of one intermediate factor, batch axis included
_PAIRWISE_WORK = 1 << 16  # multiply-adds from which a step is split into pairwise products


def _fill(nbrs, x):
    """Edges that eliminating x adds between its neighbours."""
    return sum(1 for a, b in itertools.combinations(nbrs[x], 2) if b not in nbrs[a])


@functools.lru_cache(maxsize=1024)
def _plan(h, weighted):
    """Elimination plan of H: (steps per connected component with an edge,
    number of isolated vertices), or None when one step outgrows the labels.

    A step is (einsum subscripts, operands, width). An operand is -1 for
    the edge matrix M, -2 for the vertex weights u (only when
    ``weighted``) or the index of an earlier step of the component, whose
    output is the factor that summed that step's vertex out. Width is the
    number of H vertices the step's einsum ranges over.
    """
    plans, isolated = [], 0
    for comp in h.components():
        sub = h.subgraph(comp)
        if sub.n == 1:
            isolated += 1
            continue
        live = [(-1, e) for e in sorted(sub.edges)]
        if weighted:
            live += [(-2, (v,)) for v in range(sub.n)]
        nbrs = {v: set(s) for v, s in enumerate(sub.adjacency_lists())}
        steps = []
        while nbrs:
            x = min(nbrs, key=lambda v: (_fill(nbrs, v), len(nbrs[v]), v))
            used = [f for f in live if x in f[1]]
            live = [f for f in live if x not in f[1]]
            union = sorted({v for _, scope in used for v in scope})
            if len(union) > len(_LETTERS):
                return None
            out = tuple(v for v in union if v != x)
            letter = dict(zip(union, _LETTERS))
            subs = ",".join("z" + "".join(letter[v] for v in scope) for _, scope in used)
            steps.append((f"{subs}->z{''.join(letter[v] for v in out)}",
                          tuple(ref for ref, _ in used), len(union)))
            live.append((len(steps) - 1, out))
            for a in nbrs[x]:
                nbrs[a] |= nbrs[x] - {a}
                nbrs[a].discard(x)
            del nbrs[x]
        plans.append(tuple(steps))
    return tuple(plans), isolated


def _eliminate(h, m, u=None, max_steps=None):
    """sum over maps phi: V(H) -> [n] of prod_v u[phi(v)] * prod_{ab in E(H)}
    m[phi(a), phi(b)], for each target of a stack: ``m`` (B, n, n) and ``u``
    (B, n) non-negative integers, u None meaning all ones (then the sum is
    hom(H, T)). Returns B Python ints, or None when H has no plan, or its
    plan needs more than ``max_steps`` multiply-adds per target or a
    factor larger than the entry cap.

    A factor entry, einsum's pairwise intermediates included, sums over the
    maps of the vertices summed out so far products of their weights u and
    of the edge weights m taken in; so every entry, product of entries over
    disjoint vertices and edges, and partial sum is a non-negative integer
    at most (sum u)^v(H) * (max m)^e(H) (n^v(H) when u is None), and the
    pass runs in ``exact_dtype`` of that bound.
    """
    if (plan := _plan(h, u is not None)) is None:
        return None
    plans, isolated = plan
    b, n = len(m), m.shape[-1]
    widths = [w for steps in plans for _, _, w in steps]
    if max_steps is not None and sum(n ** w for w in widths) > max_steps:
        return None
    peak = max((n ** (w - 1) for w in widths), default=1)
    if peak > _MAX_ENTRIES:
        return None
    if u is None:
        sums = [n] * b
        bound = n ** h.n
    else:
        sums = [int(s) for s in u.sum(axis=1)]
        bound = max(sums, default=0) ** h.n * int(m.max(initial=0)) ** h.num_edges
    m = _narrowest(m, bound)
    u = None if u is None else _narrowest(u, bound)
    counts = [s ** isolated for s in sums]
    chunk = max(1, _MAX_ENTRIES // peak)
    for lo in range(0, b, chunk):
        ops = {-1: m[lo:lo + chunk], -2: None if u is None else u[lo:lo + chunk]}
        for steps in plans:
            for k, (subs, refs, width) in enumerate(steps):
                # a large product of three or more factors runs faster as a
                # chain of pairwise products, none larger than an operand or
                # the output; each factor is used once, so drop it once consumed
                pairwise = len(refs) > 2 and len(ops[-1]) * n ** width >= _PAIRWISE_WORK
                ops[k] = np.einsum(subs, *(ops.pop(r) if r >= 0 else ops[r] for r in refs),
                                   optimize="greedy" if pairwise else False)
            for i, x in enumerate(ops.pop(len(steps) - 1).tolist(), lo):
                counts[i] *= int(x)
    return counts


def _bfs_order(g, comp):
    """BFS order of one component starting from a max-degree vertex."""
    start = max(comp, key=g.degree)
    adj = g.adjacency_lists()
    order, seen = [start], {start}
    for v in order:  # the loop reaches the vertices appended as it runs
        for w in sorted(adj[v], key=lambda x: -g.degree(x)):
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _count_maps(t_masks, earlier, images, i, left, first):
    """Maps of vertices i, i+1, ... of a component's BFS order, given the
    images of the earlier ones: each goes next to the images of its earlier
    neighbours ``earlier[i]``. ``left`` is a one-item list holding the
    candidates that may still be expanded."""
    mask = (1 << len(t_masks)) - 1
    for j in earlier[i]:
        mask &= t_masks[images[j]]
    left[0] -= mask.bit_count()
    if left[0] < 0:
        raise ResourceLimitError("hom counting work ceiling exceeded")
    if i == len(earlier) - 1:
        return mask.bit_count()
    count = 0
    while mask and not (first and count):
        b = mask & -mask
        images[i] = b.bit_length() - 1
        count += _count_maps(t_masks, earlier, images, i + 1, left, first)
        mask ^= b
    return count


def _backtrack(h, t_masks, max_steps, first=False):
    """hom(H, T) from T's neighbourhood bitmasks, backtracking over a BFS
    order of each component of H with bitmask candidate pruning. Raises
    ResourceLimitError once more than ``max_steps`` candidates are expanded.
    With ``first``, each component stops at its first map: the result is
    then positive iff hom(H, T) is."""
    nt = len(t_masks)
    left = [math.inf if max_steps is None else max_steps]
    total = 1
    for comp in h.components():
        order = _bfs_order(h, comp)
        pos = {v: i for i, v in enumerate(order)}
        earlier = [[pos[w] for w in h.neighbors(v) if pos[w] < pos[v]] for v in order]
        images = [0] * len(order)
        total *= _count_maps(t_masks, earlier, images, 0, left, first) if len(comp) > 1 else nt
        if total == 0:
            return 0
    return total


def hom_counts(h, adjs, max_steps=None):
    """hom(H, T) for every target of a (B, n, n) stack of 0/1 adjacency
    matrices of one order, in one elimination pass.

    When the plan needs more than ``max_steps`` multiply-adds per target,
    or a factor past the entry cap, each target is counted by the
    backtracker instead, which stops once it has expanded ``max_steps``
    candidates (never returning a wrong number); the entry of a target it
    stops on is the ResourceLimitError that stopped it.
    """
    counts = _eliminate(h, adjs, max_steps=max_steps)
    if counts is None:
        counts = []
        for a in adjs:
            masks = tuple(sum(1 << j for j in np.flatnonzero(row).tolist()) for row in a)
            try:
                counts.append(_backtrack(h, masks, max_steps))
            except ResourceLimitError as exc:
                counts.append(exc)
    return counts


def _has_clique(masks, r):
    """Whether the graph with neighbourhood bitmasks ``masks`` has a K_r."""
    return _clique_within(masks, (1 << len(masks)) - 1, r)


def _clique_within(masks, cand, need):
    """Whether the vertices of bitmask ``cand`` hold a K_need: branch and
    bound, first dropping candidates with fewer than need - 1 neighbours
    among the others until none is left to drop."""
    if need == 0:
        return True
    while True:
        keep = rest = cand
        while rest:
            b = rest & -rest
            if (masks[b.bit_length() - 1] & cand).bit_count() < need - 1:
                keep ^= b
            rest ^= b
        if keep == cand:
            break
        cand = keep
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        if _clique_within(masks, cand & masks[b.bit_length() - 1], need - 1):
            return True
    return False


def hom_exists(h, t):
    """Whether some homomorphism H -> T exists.

    The 2-colourings of H and T, each decided once per graph, settle most
    pairs first:

    * a 2-colourable H and a T with an edge give yes, since H -> K2 -> T;
    * an H that is not 2-colourable and a 2-colourable T give no, since
      H -> T -> K2 would 2-colour H.

    Every other pair goes by elimination when its plan fits (polynomial
    where a search is not), else by a backtracker that stops at its first
    map. A homomorphism maps a clique of H injectively onto a clique of T,
    so when T lacks a K_r that H has (r = 1, 2, ... in turn, no deeper than
    the smaller clique number), the answer is no without the search."""
    if h.is_bipartite():
        if t.num_edges:
            return True
    elif t.is_bipartite():
        return False
    counts = _eliminate(h, t.adjacency_matrix(np.float32)[None])
    if counts is not None:
        return counts[0] > 0
    h_masks, t_masks = h.adjacency_masks(), t.adjacency_masks()
    r = 1
    while _has_clique(h_masks, r):
        if not _has_clique(t_masks, r):
            return False
        r += 1
    return _backtrack(h, t_masks, None, first=True) > 0


def hom_count(h, t, max_steps=None):
    """Number of adjacency-preserving maps V(H) -> V(T), exact.

    A cycle or K2 on a target of more than 64 vertices is counted by the
    target's walk kernel (the Gram kernel of a ``CliqueUnion``), which
    ``max_steps`` does not bound; every other pair by elimination on the
    target (the expanded graph of a ``CliqueUnion`` or a ``Biadjacency``),
    with ``max_steps`` bounding the work as in ``hom_counts``: past it,
    ResourceLimitError.
    """
    if t.n > WALK_MIN_ORDER and (h.is_cycle() or (h.n == 2 and h.num_edges == 1)):
        return _walks(t).closed(h.n)
    if isinstance(t, (CliqueUnion, Biadjacency)):
        t = t.graph
    count = hom_counts(h, t.adjacency_matrix(np.float32)[None], max_steps)[0]
    if isinstance(count, ResourceLimitError):
        raise count
    return count


def hom_density(h, t, max_steps=None):
    """t(H, T), exact, for a simple target (hom(H,T) / v(T)^v(H)) or a
    step-graphon ``WeightedTarget``; ``max_steps`` bounds the work."""
    if isinstance(t, WeightedTarget):
        return weighted_hom_density(h, t, max_steps)
    if t.n == 0:
        raise GraphError("empty target")
    return Fraction(hom_count(h, t, max_steps=max_steps), t.n ** h.n)


# ---------------------------------------------------------------------------
# weighted (step-graphon) targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedTarget:
    """Step-graphon target: weighted classes with rational edge densities."""

    weights: tuple  # positive Fractions, one per class
    density: tuple  # symmetric q x q tuple of Fractions in [0, 1]

    def __post_init__(self):
        q = len(self.weights)
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        object.__setattr__(
            self, "density", tuple(tuple(Fraction(d) for d in row) for row in self.density)
        )
        if any(w <= 0 for w in self.weights):
            raise GraphError("class weights must be positive")
        if len(self.density) != q or any(len(row) != q for row in self.density):
            raise GraphError("density matrix shape mismatch")
        for a in range(q):
            for b in range(q):
                d = self.density[a][b]
                if d != self.density[b][a]:
                    raise GraphError("density matrix must be symmetric")
                if not (0 <= d <= 1):
                    raise GraphError("densities must lie in [0, 1]")

    @classmethod
    def from_simple_graph(cls, t):
        if t.n == 0:
            raise GraphError("empty target")
        dens = [[Fraction(0)] * t.n for _ in range(t.n)]
        for u, v in t.edges:
            dens[u][v] = dens[v][u] = Fraction(1)
        return cls(tuple(Fraction(1) for _ in range(t.n)), tuple(map(tuple, dens)))


def weighted_hom_density(h, w, max_steps=None):
    """Exact homomorphism density of H in a step-graphon target.

    With u = weights / total weight and K the density matrix, scaled to
    integers by the least common denominators D_u of u and D_K of K, the
    engine sums prod u * prod K over all class assignments in integers;
    dividing by D_u^v(H) * D_K^e(H) gives the density. Raises
    ResourceLimitError when the plan needs more than ``max_steps``
    multiply-adds or a factor past the entry cap.
    """
    total = sum(w.weights)
    u = [x / total for x in w.weights]
    du = math.lcm(*(x.denominator for x in u))
    dk = math.lcm(*(d.denominator for row in w.density for d in row))
    uu = np.array([[int(x * du) for x in u]], dtype=object)
    kk = np.array([[[int(d * dk) for d in row] for row in w.density]], dtype=object)
    count = _eliminate(h, kk, uu, max_steps)
    if count is None:
        raise ResourceLimitError("weighted density elimination too large")
    return Fraction(count[0], du ** h.n * dk ** h.num_edges)


# ---------------------------------------------------------------------------
# walk-based counts: cycles and single entries of powers
# ---------------------------------------------------------------------------

def _narrowest(x, bound):
    """Non-negative integer array ``x`` in ``exact_dtype(bound)``; a float
    array bound for Python ints goes through int64, which holds it."""
    dtype = exact_dtype(bound)
    if dtype is object and x.dtype.kind == "f":
        x = x.astype(np.int64)
    return x.astype(dtype, copy=False)


def _exact_sum(bound, x, y):
    """Exact sum of the entrywise product of two non-negative integer arrays,
    given a bound on it: one dot product in ``exact_dtype(bound)`` per block
    of a few rows, so that the copies stay small."""
    return sum(int(np.dot(_narrowest(x[r:r + 256], bound).ravel(),
                          _narrowest(y[r:r + 256], bound).ravel()))
               for r in range(0, len(x), 256))


class WalkCounter:
    """Exact closed walks of one simple target from memoised powers of a
    symmetric non-negative integer matrix P, shared by every statistic (so
    tr(A^3) and tr(A^4) share the single product A^2).

    ``WalkCounter(adj)`` takes P = A, the target's 0/1 adjacency matrix
    (``step`` 1). ``from_block`` takes P = B B^T for the biadjacency block B
    of a bipartite target, over its smaller side (``step`` 2): then
    tr(A^(2j)) = 2 tr(P^j), there are no odd closed walks, and the entries
    of A^k are not at hand. P^k counts walks of ``step * k`` steps in a
    graph of maximum degree ``degree``, so its entries are at most
    ``degree ** (step * k - 1)``. Each product, B B^T included, runs in
    ``exact_dtype`` of its bound: the factors are non-negative, so every
    partial sum of a float GEMM is bounded by the final entry.
    """

    def __init__(self, adj, *, step=1, degree=None, num_edges=None):
        """``degree`` and ``num_edges`` default to those of adjacency ``adj``."""
        p = np.asarray(adj)
        self.powers = {1: p}
        self.step = step
        self.degree = int(p.sum(axis=1).max(initial=0)) if degree is None else degree
        self.num_edges = int(np.count_nonzero(p)) // 2 if num_edges is None else num_edges

    @classmethod
    def from_block(cls, block):
        """The counter of the bipartite graph with biadjacency block
        ``block``, without its adjacency matrix. P's entries are codegrees,
        at most the maximum degree, which bounds B B^T."""
        degree = int(max(block.sum(axis=0).max(initial=0), block.sum(axis=1).max(initial=0)))
        b = _narrowest(block, degree)
        if b.shape[0] > b.shape[1]:
            b = b.T
        return cls(b @ b.T, step=2, degree=degree, num_edges=int(np.count_nonzero(block)))

    def bound(self, k):
        return self.degree ** (self.step * k - 1)

    def __getitem__(self, k):
        if k < 1:
            raise GraphError("need a walk length >= 1")
        p = self.powers.get(k)
        if p is None:
            bound = self.bound(k)
            x = _narrowest(self[k // 2], bound)
            # P^k is symmetric, so a square is x @ x.T, which BLAS runs as a SYRK
            p = x @ (x.T if k % 2 == 0 else _narrowest(self[k - k // 2], bound))
            self.powers[k] = p
        return p

    def trace(self, k):
        """tr(P^k) as the entrywise sum of P^(k//2) * P^(k - k//2), k >= 2."""
        lo = k // 2
        return _exact_sum(len(self[1]) * self.bound(k), self[lo], self[k - lo])

    def closed(self, m):
        """tr(A^m), the number of closed walks of length m >= 1."""
        if m < 1:
            raise GraphError("need m >= 1")
        if m <= 2 or m % self.step:
            return 2 * self.num_edges if m == 2 else 0
        return self.step * self.trace(m // self.step)

    def edge_walks(self, a, b):
        """The sum over ordered adjacent pairs (u, v) of A^a[u, v] A^b[u, v]
        (a, b >= 1): 2e terms of at most D^(a+b-2), so every product, A's
        mask included, and partial sum is exact in ``exact_dtype`` of that."""
        if self.step != 1:
            raise GraphError("a block counter holds no powers of A")
        bound = 2 * self.num_edges * self.degree ** (a + b - 2)
        return _exact_sum(bound, _narrowest(self[1], bound) * _narrowest(self[a], bound), self[b])


def _dense_walks(adj):
    """The ``WalkCounter`` of adjacency matrix ``adj`` on its non-isolated
    vertices only: no closed walk visits an isolated vertex."""
    keep = adj.any(axis=1)
    return WalkCounter(adj[np.ix_(keep, keep)])


class GramCounter:
    """Exact closed walks of a ``CliqueUnion`` from its r x r Grams, without
    the n x n adjacency matrix for walks of length up to 4.

    The union's adjacency matrix is A = N N^T - D, N the n x r incidence
    matrix and D = diag(N 1): the identity behind A(L(X)) = B^T B - 2I
    (Godsil and Royle, *Algebraic Graph Theory*, 2001). Expanding
    (N N^T - D)^m and rotating each trace turns tr(A^3) and tr(A^4) into
    traces of products of the Grams G_j = N^T D^j N, with
    tr(G_j) = tr(D^(j+1)):

        tr(A^3) = tr(G0^3) - 3 tr(G0 G1) + 3 tr(G2) - tr(D^3)
        tr(A^4) = tr(G0^4) - 4 tr(G0^2 G1) + 4 tr(G0 G2) + 2 tr(G1^2)
                  - 4 tr(G3) + tr(D^4)

    With k the largest clique and d the largest diagonal entry of D, G_j has
    entries at most k d^j, every row of G0 sums to at most s = k d, so G0^2
    has entries at most k s, and each trace in the expansion of tr(A^m) is
    at most r s^m. These bounds choose each product's arithmetic as in
    ``WalkCounter``. Other walk lengths go to the ``WalkCounter`` of the
    expanded adjacency matrix, built on first use.
    """

    def __init__(self, t):
        self.n, self.cliques = t.n, t.cliques
        inc = t.incidence_matrix(np.float32)
        deg = inc.sum(axis=1, dtype=np.int64)
        k, d, r = max(map(len, t.cliques), default=0), int(deg.max(initial=0)), len(t.cliques)
        s = k * d
        grams = []
        for j in range(3):
            x = _narrowest(inc, k * d ** j)
            grams.append(x.T @ (x if j == 0 else x * _narrowest(deg ** j, k * d ** j)[:, None]))
        g0, g1, g2 = grams
        x = _narrowest(g0, k * s)
        q = x @ x.T  # G0^2, as a SYRK
        degrees = np.bincount(deg).tolist()  # the number of vertices of each degree
        tr_d3, tr_d4 = (sum(c * e ** m for e, c in enumerate(degrees)) for m in (3, 4))
        b3, b4 = r * s ** 3, r * s ** 4
        self.traces = {
            1: 0,
            2: 2 * t.num_edges,
            # 3 tr(G2) - tr(D^3) = 2 tr(D^3), and -4 tr(G3) + tr(D^4) = -3 tr(D^4)
            3: _exact_sum(b3, q, g0) - 3 * _exact_sum(b3, g0, g1) + 2 * tr_d3,
            4: (_exact_sum(b4, q, q) - 4 * _exact_sum(b4, q, g1) + 4 * _exact_sum(b4, g0, g2)
                + 2 * _exact_sum(b4, g1, g1) - 3 * tr_d4),
        }

    @functools.cached_property
    def walks(self):
        """The ``WalkCounter`` of the expanded adjacency matrix on its
        non-isolated vertices."""
        a = np.zeros((self.n, self.n), dtype=np.float32)
        for c in self.cliques:
            a[np.ix_(c, c)] = 1
        np.fill_diagonal(a, 0)
        return _dense_walks(a)

    def closed(self, m):
        """tr(A^m), the number of closed walks of length m >= 1."""
        if m < 1:
            raise GraphError("need m >= 1")
        return self.traces[m] if m in self.traces else self.walks.closed(m)


WALK_MIN_ORDER = 64  # hom_count counts cycles and K2 by walks on larger targets
_walk_counters = weakref.WeakKeyDictionary()


def _walks(t):
    """The walk kernel of target ``t``: a ``GramCounter`` for a
    ``CliqueUnion``, the block's ``WalkCounter`` for a ``Biadjacency``, else
    ``_dense_walks``. One per target, shared by every count on it (so C4
    then C3 build A^2, or the Grams, once) and freed with it."""
    walks = _walk_counters.get(t)
    if walks is None:
        if isinstance(t, CliqueUnion):
            walks = GramCounter(t)
        elif isinstance(t, Biadjacency):
            walks = WalkCounter.from_block(t.block)
        else:
            walks = _dense_walks(t.adjacency_matrix(np.float32))
        _walk_counters[t] = walks
    return walks


def cycle_hom_count(m, t):
    """hom(C_m, T) = tr(A^m), exact big integer (m >= 3), from the target's
    walk kernel."""
    if m < 3:
        raise GraphError("cycle_hom_count needs m >= 3")
    return _walks(t).closed(m)


def closed_walk_counts_dense(adj, lengths):
    """Exact tr(A^m) for each m >= 1 in ``lengths``, from one power chain."""
    walks = WalkCounter(adj)
    return [walks.closed(m) for m in lengths]


# ---------------------------------------------------------------------------
# weighted patterns and the tropical tree-exponent oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedPattern:
    """A base graph with rational exponents on vertices and edges.

    Instantiating at scale n turns vertex v into a class of size n^vexp[v]
    and edge uv into a bundle of n^eexp[uv] edges.
    """

    base: SimpleGraph
    vexp: tuple
    eexp: dict

    def __post_init__(self):
        object.__setattr__(self, "vexp", tuple(Fraction(x) for x in self.vexp))
        object.__setattr__(
            self,
            "eexp",
            {(min(u, v), max(u, v)): Fraction(x) for (u, v), x in self.eexp.items()},
        )
        if len(self.vexp) != self.base.n:
            raise GraphError("one vertex exponent per base vertex")
        if set(self.eexp) != set(self.base.edges):
            raise GraphError("edge exponents must cover exactly the base edges")

    def edge_exponent(self, u, v):
        return self.eexp[(min(u, v), max(u, v))]


def _tropical_subtree(pattern, badj, hadj, v, parent):
    """value[a] = best contribution of the subtree of H at v given phi(v) = a,
    not counting vexp at v itself; None where no map of the subtree exists."""
    value = [Fraction(0)] * len(badj)
    for c in hadj[v]:
        if c == parent:
            continue
        child = _tropical_subtree(pattern, badj, hadj, c, v)
        for a in range(len(badj)):
            if value[a] is not None:
                cands = [pattern.edge_exponent(a, b) - pattern.vexp[a] + child[b]
                         for b in badj[a] if child[b] is not None]
                value[a] = value[a] + max(cands) if cands else None
    return value


def tropical_tree_exponent(h, pattern, root=0):
    """Growth exponent of hom(H, T_n) for a tree H and a blow-up pattern.

    Max-plus DP over H rooted at ``root``: maximize, over homomorphisms
    phi from H to the pattern's base graph,

        vexp(phi(root)) + sum over root-away edges (p, c) of
            eexp(phi(p) phi(c)) - vexp(phi(p)).

    Implementer-verified oracle for biregular instantiations; cross-checked
    numerically in the test suite.
    """
    if not h.is_tree():
        raise GraphError("pattern exponent oracle requires a tree")
    base = pattern.base
    val = _tropical_subtree(pattern, base.adjacency_lists(), h.adjacency_lists(), root, None)
    cands = [pattern.vexp[a] + x for a, x in enumerate(val) if x is not None]
    if not cands:
        raise GraphError("no homomorphism from the tree into the pattern base")
    return max(cands)
