"""Exact homomorphism counting and densities.

All counts are exact Python integers; densities are exact Fractions.
The walk kernel ``WalkCounter`` stays exact on BLAS by choosing each
product's arithmetic from the entry bound A^k[i, j] <= D^(k-1), D the
maximum degree: float32 below 2**24, float64 below 2**53, Python ints
above. Sums of entries run in int64, or in Python ints if it could overflow.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import GraphError, SimpleGraph


class ResourceLimitError(RuntimeError):
    """A counting task exceeded its configured work ceiling."""


# ---------------------------------------------------------------------------
# hom counts for simple targets
# ---------------------------------------------------------------------------

def _bfs_order(g, comp):
    """BFS order of one component starting from a max-degree vertex."""
    start = max(comp, key=g.degree)
    adj = g.adjacency_lists()
    order = [start]
    seen = {start}
    i = 0
    while i < len(order):
        for w in sorted(adj[order[i]], key=lambda x: -g.degree(x)):
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    return order


def _hom_count_tree(h, t_adj_sets, nt):
    """Hom count of a tree by leaf-elimination DP, O(v(H) * e(T))."""
    order = _bfs_order(h, list(range(h.n)))
    pos = {v: i for i, v in enumerate(order)}
    adj = h.adjacency_lists()
    parent = {order[0]: None}
    for v in order[1:]:
        parent[v] = min((w for w in adj[v] if pos[w] < pos[v]), key=pos.get)
    table = {v: [1] * nt for v in range(h.n)}
    for v in reversed(order):
        p = parent[v]
        if p is None:
            continue
        tv = table[v]
        acc = [0] * nt
        for a in range(nt):
            s = 0
            for b in t_adj_sets[a]:
                s += tv[b]
            acc[a] = s
        tp = table[p]
        for a in range(nt):
            tp[a] *= acc[a]
    return sum(table[order[0]])


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self, k=1):
        if self.left is None:
            return
        self.left -= k
        if self.left < 0:
            raise ResourceLimitError("hom counting work ceiling exceeded")


def _hom_count_connected(h, order, t_masks, nt, budget):
    """Backtracking over a BFS order with bitmask candidate pruning."""
    pos = {v: i for i, v in enumerate(order)}
    adj = h.adjacency_lists()
    earlier = [[pos[w] for w in adj[v] if pos[w] < pos[v]] for v in order]
    full = (1 << nt) - 1
    images = [0] * len(order)
    popcount = int.bit_count if hasattr(int, "bit_count") else lambda x: bin(x).count("1")

    def rec(i):
        if i == len(order):
            return 1
        mask = full
        for j in earlier[i]:
            mask &= t_masks[images[j]]
            if not mask:
                return 0
        budget.spend(popcount(mask))
        if i == len(order) - 1:
            return popcount(mask)
        total = 0
        m = mask
        while m:
            b = m & -m
            images[i] = b.bit_length() - 1
            total += rec(i + 1)
            m ^= b
        return total

    return rec(0)


def hom_count(h, t, max_steps=None):
    """Number of adjacency-preserving maps V(H) -> V(T), exact.

    Factorizes over components of H; trees use a DP fast path, other
    components use pruned backtracking. ``max_steps`` caps the total
    number of candidate expansions and raises ResourceLimitError when
    exceeded (never returns a wrong number).
    """
    if h.n == 0:
        return 1
    if t.n == 0:
        return 0
    budget = _Budget(max_steps)
    t_masks = t.adjacency_masks()
    t_adj_sets = [sorted(t.neighbors(v)) for v in range(t.n)]
    total = 1
    for comp in h.components():
        sub = h.subgraph(comp)
        if sub.num_edges == 0:
            total *= t.n
        elif sub.is_tree():
            total *= _hom_count_tree(sub, t_adj_sets, t.n)
        else:
            order = _bfs_order(sub, list(range(sub.n)))
            total *= _hom_count_connected(sub, order, t_masks, t.n, budget)
        if total == 0:
            return 0
    return total


def hom_density(h, t, max_steps=None):
    """t(H,T) = hom(H,T) / v(T)^v(H), exact."""
    if t.n == 0:
        raise GraphError("empty target")
    return Fraction(hom_count(h, t, max_steps=max_steps), t.n ** h.n)


def hom_count_blowup(h, multiplicities, t):
    """hom of the blow-up H'(a_1..a_k) into T without materializing it.

    Recurses class by class in BFS order; for each class it branches on
    the set of distinct images used and multiplies by the number of
    surjections from the class onto that set.
    """
    if len(multiplicities) != h.n:
        raise GraphError("need one multiplicity per vertex")
    nt = t.n
    t_masks = t.adjacency_masks()
    full = (1 << nt) - 1

    def surj(n, k):
        return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))

    total = 1
    adj = h.adjacency_lists()
    for comp in h.components():
        order = _bfs_order(h.subgraph(comp), list(range(len(comp))))
        order = [comp[i] for i in order]
        pos = {v: i for i, v in enumerate(order)}
        chosen = [0] * len(order)  # union bitmask of images per placed class

        def rec(i):
            if i == len(order):
                return 1
            v = order[i]
            mask = full
            for w in adj[v]:
                if w in pos and pos[w] < i:
                    union = chosen[pos[w]]
                    m = union
                    while m:
                        b = m & -m
                        mask &= t_masks[b.bit_length() - 1]
                        m ^= b
            cands = [b for b in range(nt) if (mask >> b) & 1]
            a_v = multiplicities[v]
            out = 0
            for size in range(1, min(a_v, len(cands)) + 1):
                ways = surj(a_v, size)
                for combo in itertools.combinations(cands, size):
                    cm = 0
                    for b in combo:
                        cm |= 1 << b
                    chosen[i] = cm
                    out += ways * rec(i + 1)
            return out

        total *= rec(0)
        if total == 0:
            return 0
    return total


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

    @property
    def num_classes(self):
        return len(self.weights)

    @property
    def total_weight(self):
        return sum(self.weights)

    @classmethod
    def from_simple_graph(cls, t):
        if t.n == 0:
            raise GraphError("empty target")
        dens = [[Fraction(0)] * t.n for _ in range(t.n)]
        for u, v in t.edges:
            dens[u][v] = Fraction(1)
            dens[v][u] = Fraction(1)
        return cls(tuple(Fraction(1) for _ in range(t.n)), tuple(map(tuple, dens)))


def _path_structure(h):
    """If H is a path, its vertex order along the walk, else None."""
    if not h.is_connected() or h.num_edges != h.n - 1:
        return None
    degs = [h.degree(v) for v in range(h.n)]
    if h.n == 1:
        return [0]
    if any(d > 2 for d in degs) or degs.count(1) != 2:
        return None
    start = degs.index(1)
    adj = h.adjacency_lists()
    order = [start]
    prev = None
    while len(order) < h.n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def _cycle_structure(h):
    """If H is a cycle (n >= 3), a vertex order around it, else None."""
    if h.n < 3 or not h.is_connected() or h.num_edges != h.n:
        return None
    if any(h.degree(v) != 2 for v in range(h.n)):
        return None
    adj = h.adjacency_lists()
    order = [0]
    prev = None
    while len(order) < h.n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def _transfer_path_density(m, w):
    """t(P_m, W) by transfer matrix, exact, O(m q^2)."""
    q = w.num_classes
    total = w.total_weight
    u = [wt / total for wt in w.weights]
    vec = list(u)
    for _ in range(m):
        nxt = [Fraction(0)] * q
        for a in range(q):
            va = vec[a]
            if va == 0:
                continue
            row = w.density[a]
            for b in range(q):
                if row[b]:
                    nxt[b] += va * row[b] * u[b]
        vec = nxt
    return sum(vec)


def _transfer_cycle_density(m, w):
    """t(C_m, W) = trace((K D)^m), exact."""
    q = w.num_classes
    total = w.total_weight
    d = [wt / total for wt in w.weights]
    mat = [[w.density[a][b] * d[b] for b in range(q)] for a in range(q)]
    acc = [[Fraction(int(a == b)) for b in range(q)] for a in range(q)]
    for _ in range(m):
        acc = [
            [sum(acc[i][k] * mat[k][j] for k in range(q)) for j in range(q)]
            for i in range(q)
        ]
    return sum(acc[i][i] for i in range(q))


def weighted_hom_density(h, w, max_maps=10 ** 7):
    """Exact homomorphism density of H in a step-graphon target.

    Paths and cycles go through the transfer matrix; anything else is a
    brute-force sum over q^{v(H)} class assignments with a work guard.
    """
    if h.n == 0:
        return Fraction(1)
    q = w.num_classes
    total = Fraction(1)
    for comp in h.components():
        sub = h.subgraph(comp)
        p = _path_structure(sub)
        if p is not None:
            total *= _transfer_path_density(sub.num_edges, w)
            continue
        c = _cycle_structure(sub)
        if c is not None:
            total *= _transfer_cycle_density(sub.n, w)
            continue
        if q ** sub.n > max_maps:
            raise ResourceLimitError("weighted density brute force too large")
        total *= _weighted_brute(sub, w)
    return total


def _weighted_brute(h, w):
    q = w.num_classes
    total_w = w.total_weight
    u = [wt / total_w for wt in w.weights]
    edges = sorted(h.edges)
    acc = Fraction(0)
    for phi in itertools.product(range(q), repeat=h.n):
        term = Fraction(1)
        for v in range(h.n):
            term *= u[phi[v]]
        for a, b in edges:
            d = w.density[phi[a]][phi[b]]
            if d == 0:
                term = Fraction(0)
                break
            term *= d
        acc += term
    return acc


# ---------------------------------------------------------------------------
# walk-based counts: paths, cycles, rooted cycles
# ---------------------------------------------------------------------------

def _exact(x, wide):
    """Integer-valued array ``x`` as int64, or as Python ints when ``wide``."""
    if x.dtype.kind == "f":
        x = np.rint(x).astype(np.int64)
    return x.astype(object if wide else np.int64, copy=False)


def _narrowest(x, bound):
    """Non-negative integer array ``x`` in the narrowest dtype whose matrix
    products stay exact while every result entry is below ``bound``."""
    if bound < 2 ** 24:
        return x.astype(np.float32, copy=False)
    if bound < 2 ** 53:
        return x.astype(np.float64, copy=False)
    return _exact(x, True)


def _exact_sum(bound, *arrays):
    """Exact sum of the entrywise product of non-negative integer arrays,
    given a bound on it: in int64 unless that could overflow, a few rows at
    a time so that the integer copies stay small."""
    wide = bound >= 2 ** 63
    return sum(int(math.prod(_exact(x[r:r + 256], wide) for x in arrays).sum())
               for r in range(0, len(arrays[0]), 256))


class _PowerChain:
    """Memoised powers of a symmetric non-negative integer matrix P.

    P^k counts walks of ``step * k`` steps in a graph of maximum degree
    ``degree``, so its entries are at most ``degree ** (step * k - 1)``.
    Each product runs in the narrowest exact arithmetic for that bound:
    the factors are non-negative, so every partial sum of a float GEMM is
    bounded by the final entry.
    """

    def __init__(self, base, degree, step):
        self.powers = {1: base}
        self.degree = degree
        self.step = step

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


class WalkCounter:
    """Exact walk statistics of one simple target from a shared power chain.

    Built from the target's 0/1 adjacency matrix A. Every statistic reuses
    the powers of A that earlier ones built, so tr(A^3) and tr(A^4) share
    the single product A^2. On a bipartite target, closed walks use the
    half-size block M = B B^T of A^2 instead: tr(A^(2j)) = 2 tr(M^j), and
    there are no odd closed walks.
    """

    def __init__(self, adj):
        a = np.asarray(adj, dtype=np.float32)
        self.num_edges = int(np.count_nonzero(a)) // 2
        self.full = _PowerChain(a, int(a.sum(axis=1).max(initial=0)), 1)

    @functools.cached_property
    def half(self):
        """The chain of M = B B^T (entries <= D, exact in float32) if the
        target is bipartite, else None."""
        a = self.full[1]
        colour = np.where(a.any(axis=1), -1, 0).astype(np.int8)
        while (todo := np.flatnonzero(colour < 0)).size:
            frontier, c = todo[:1], 0
            while frontier.size:
                colour[frontier] = c
                reach = a[frontier].any(axis=0)
                if (colour[reach] == c).any():
                    return None
                frontier, c = np.flatnonzero(reach & (colour < 0)), 1 - c
        small, large = sorted((np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)), key=len)
        b = a[np.ix_(small, large)]
        return _PowerChain(b @ b.T, self.full.degree, 2)

    def closed(self, m):
        """tr(A^m), the number of closed walks of length m >= 1."""
        if m < 1:
            raise GraphError("need m >= 1")
        if m <= 2:
            return 2 * self.num_edges if m == 2 else 0
        if self.half is not None:
            return 0 if m % 2 else 2 * self.half.trace(m // 2)
        return self.full.trace(m)

    def total(self, m):
        """1^T A^m 1, the number of walks of length m >= 1."""
        am = self.full[m]
        return _exact_sum(len(am) * self.full.degree ** m, am)

    def entries(self, k, rows, cols):
        """The entries A^k[rows[i], cols[i]] for k >= 1, as Python ints."""
        return [int(x) for x in self.full[k][rows, cols].tolist()]


def path_hom_count(m, t):
    """hom(P_m, T) = 1^T A^m 1, exact big integer."""
    return WalkCounter(t.adjacency_matrix(np.float32)).total(m)


def cycle_hom_count(m, t):
    """hom(C_m, T) = tr(A^m), exact big integer (m >= 3)."""
    if m < 3:
        raise GraphError("cycle_hom_count needs m >= 3")
    return WalkCounter(t.adjacency_matrix(np.float32)).closed(m)


def closed_walk_counts_dense(adj, lengths):
    """Exact tr(A^m) for each m >= 1 in ``lengths``, from one power chain."""
    walks = WalkCounter(adj)
    return [walks.closed(m) for m in lengths]


def rooted_cycle_hom(a, t, root_edge):
    """Homomorphisms of C_a sending the labeled adjacent pair to (u, v)."""
    if a < 3:
        raise GraphError("need a >= 3")
    u, v = root_edge
    if not t.has_edge(u, v):
        raise GraphError(f"root {root_edge} is not an edge of the target")
    return WalkCounter(t.adjacency_matrix(np.float32)).entries(a - 1, [v], [u])[0]


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
    badj = base.adjacency_lists()
    hadj = h.adjacency_lists()
    neg_inf = None

    def sub(v, parent):
        # value[a] = best contribution of the subtree at v given phi(v) = a,
        # not counting vexp at v itself.
        value = [Fraction(0)] * base.n
        for c in hadj[v]:
            if c == parent:
                continue
            child = sub(c, v)
            for a in range(base.n):
                if value[a] is neg_inf:
                    continue
                best = neg_inf
                for b in badj[a]:
                    if child[b] is neg_inf:
                        continue
                    cand = pattern.edge_exponent(a, b) - pattern.vexp[a] + child[b]
                    if best is neg_inf or cand > best:
                        best = cand
                value[a] = neg_inf if best is neg_inf else value[a] + best
        return value

    val = sub(root, None)
    best = neg_inf
    for a in range(base.n):
        if val[a] is neg_inf:
            continue
        cand = pattern.vexp[a] + val[a]
        if best is neg_inf or cand > best:
            best = cand
    if best is neg_inf:
        raise GraphError("no homomorphism from the tree into the pattern base")
    return best
