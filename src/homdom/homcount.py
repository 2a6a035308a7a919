"""Exact homomorphism counting and densities.

All counts are exact Python integers; densities are exact Fractions.
One engine counts hom(H, T) by variable elimination: the vertices of H
are summed out one at a time along a min-fill order, each by a single
``np.einsum`` over the factors that contain it, for a whole stack of
targets of one order at once. It runs in int64 while the a priori bound
on every intermediate entry fits, on Python ints above. A plan that needs
more work than the caller allows falls back to a budgeted backtracker.
Cycles and K2 on targets of more than 64 vertices are counted instead
by the target's walk kernel ``WalkCounter``, which stays exact on BLAS by
choosing each product's arithmetic from the entry bound
A^k[i, j] <= D^(k-1), D the maximum degree: float32 below 2**24, float64
below 2**53, Python ints above. Sums of entries run in int64, or in
Python ints if it could overflow.
"""
from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import GraphError, SimpleGraph


class ResourceLimitError(RuntimeError):
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
    number of isolated vertices).

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
    hom(H, T)). Returns B Python ints, or None when the plan needs more
    than ``max_steps`` multiply-adds per target or a factor larger than
    the entry cap.

    Every intermediate entry is a partial sum of the final one, so all of
    them are at most (sum u)^v(H) * (max m)^e(H); the pass runs in int64
    below 2**63 and on Python ints above.
    """
    plans, isolated = _plan(h, u is not None)
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
    dtype = np.int64 if bound < 2 ** 63 else object
    m = m.astype(dtype, copy=False)
    u = None if u is None else u.astype(dtype, copy=False)
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
                counts[i] *= x
    return counts


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


def _backtrack(h, adj, max_steps, first=False):
    """hom(H, T) from T's adjacency matrix, backtracking over a BFS order of
    each component of H with bitmask candidate pruning. Raises
    ResourceLimitError once more than ``max_steps`` candidates are expanded.
    With ``first``, each component stops at its first map: the result is
    then positive iff hom(H, T) is."""
    nt = len(adj)
    t_masks = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adj]
    left = math.inf if max_steps is None else max_steps
    total = 1
    for comp in h.components():
        order = _bfs_order(h, comp)
        pos = {v: i for i, v in enumerate(order)}
        earlier = [[pos[w] for w in h.neighbors(v) if pos[w] < pos[v]] for v in order]
        images = [0] * len(order)

        def rec(i):
            nonlocal left
            mask = (1 << nt) - 1
            for j in earlier[i]:
                mask &= t_masks[images[j]]
            left -= mask.bit_count()
            if left < 0:
                raise ResourceLimitError("hom counting work ceiling exceeded")
            if i == len(order) - 1:
                return mask.bit_count()
            count = 0
            while mask and not (first and count):
                b = mask & -mask
                images[i] = b.bit_length() - 1
                count += rec(i + 1)
                mask ^= b
            return count

        total *= rec(0) if len(comp) > 1 else nt
        if total == 0:
            return 0
    return total


def hom_counts(h, adjs, max_steps=None):
    """hom(H, T) for every target of a (B, n, n) stack of 0/1 adjacency
    matrices of one order, in one elimination pass.

    When the plan needs more than ``max_steps`` multiply-adds per target,
    or a factor past the entry cap, each target is counted by the
    backtracker instead, which stops once it has expanded ``max_steps``
    candidates (never returning a wrong number). Then, after every target
    has been tried, the first stopped target's ResourceLimitError is
    raised with ``counts``: each target's count, or the error that
    stopped it.
    """
    counts = _eliminate(h, adjs, max_steps=max_steps)
    if counts is None:
        counts = []
        for a in adjs:
            try:
                counts.append(_backtrack(h, a, max_steps))
            except ResourceLimitError as exc:
                counts.append(exc)
        failed = [c for c in counts if isinstance(c, ResourceLimitError)]
        if failed:
            failed[0].counts = counts
            raise failed[0]
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


def _clique_number(masks):
    """The order of a largest clique of the graph with bitmasks ``masks``."""
    r = 0
    while _has_clique(masks, r + 1):
        r += 1
    return r


def hom_exists(h, t):
    """Whether some homomorphism H -> T exists: by elimination when its
    plan fits (polynomial where a search is not, e.g. an odd cycle into a
    bipartite target), else by a backtracker that stops at its first map.
    A homomorphism maps a clique of H injectively onto a clique of T, so
    when T lacks a K_r that H has, the answer is no without the search."""
    counts = _eliminate(h, t.adjacency_matrix()[None])
    if counts is not None:
        return counts[0] > 0
    if not _has_clique(t.adjacency_masks(), _clique_number(h.adjacency_masks())):
        return False
    return _backtrack(h, t.adjacency_matrix(), None, first=True) > 0


def hom_count(h, t, max_steps=None):
    """Number of adjacency-preserving maps V(H) -> V(T), exact.

    A cycle or K2 on a target of more than 64 vertices is counted by the
    target's walk kernel, which ``max_steps`` does not bound; every other
    pair by elimination, with ``max_steps`` bounding the work as in
    ``hom_counts``.
    """
    if t.n > WALK_MIN_ORDER and (h.is_cycle() or (h.n == 2 and h.num_edges == 1)):
        return _walks(t).closed(h.n)
    return hom_counts(h, t.adjacency_matrix()[None], max_steps)[0]


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


def weighted_hom_density(h, w, max_steps=None):
    """Exact homomorphism density of H in a step-graphon target.

    With u = weights / total weight and K the density matrix, scaled to
    integers by the least common denominators D_u of u and D_K of K, the
    engine sums prod u * prod K over all class assignments in integers;
    dividing by D_u^v(H) * D_K^e(H) gives the density. Raises
    ResourceLimitError when the plan needs more than ``max_steps``
    multiply-adds or a factor past the entry cap.
    """
    total = w.total_weight
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

    def entries(self, k, rows, cols):
        """The entries A^k[rows[i], cols[i]] for k >= 1, as Python ints."""
        return [int(x) for x in self.full[k][rows, cols].tolist()]


WALK_MIN_ORDER = 64  # hom_count counts cycles and K2 by walks on larger targets
_walk_counters = weakref.WeakKeyDictionary()


def _walks(t):
    """The walk kernel of simple target ``t``: one per target, shared by
    every count on it (so C4 then C3 build A^2 once) and freed with it."""
    walks = _walk_counters.get(t)
    if walks is None:
        walks = _walk_counters[t] = WalkCounter(t.adjacency_matrix(np.float32))
    return walks


def cycle_hom_count(m, t):
    """hom(C_m, T) = tr(A^m), exact big integer (m >= 3)."""
    if m < 3:
        raise GraphError("cycle_hom_count needs m >= 3")
    return WalkCounter(t.adjacency_matrix(np.float32)).closed(m)


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
