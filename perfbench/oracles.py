"""Computations made apart from homdom, used to check its outputs.

Nothing here imports homdom. Graphs are plain ``(n, edges)`` pairs with
``edges`` a sorted tuple of ``(u, v)`` with ``u < v``; adjacency comes in as
a numpy boolean matrix or as Python sets.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# OEIS A000088: graphs on n unlabeled nodes, n = 0..6.
A000088 = (1, 1, 2, 4, 11, 34, 156)


# ---------------------------------------------------------------------------
# graph classes, canonical forms and graph6
# ---------------------------------------------------------------------------

def _pair_index(n):
    return {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}


def _perm_bit_tables(n):
    """For each vertex permutation, the image bit of every pair bit."""
    idx = _pair_index(n)
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append([idx[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
                       for (u, v) in idx])
    return tables


def _apply(x, table):
    y = 0
    for i, j in enumerate(table):
        if (x >> i) & 1:
            y |= 1 << j
    return y


def _bits_to_edges(n, x):
    return tuple(p for i, p in enumerate(itertools.combinations(range(n), 2))
                 if (x >> i) & 1)


def _edges_to_bits(n, edges):
    idx = _pair_index(n)
    x = 0
    for e in edges:
        x |= 1 << idx[e]
    return x


def graph_classes(n):
    """One edge tuple per isomorphism class on n vertices, by orbit marking."""
    if n <= 1:
        return [()]
    tables = _perm_bit_tables(n)
    seen = set()
    reps = []
    for x in range(1 << (n * (n - 1) // 2)):
        if x in seen:
            continue
        orbit = {_apply(x, t) for t in tables}
        seen |= orbit
        reps.append(_bits_to_edges(n, min(orbit)))
    return reps


class CanonicalForms:
    """Minimum-over-permutations canonical form for graphs with n <= 6."""

    def __init__(self):
        self._tables = {}

    def __call__(self, n, edges):
        if n <= 1:
            return (n, 0)
        if n not in self._tables:
            self._tables[n] = _perm_bit_tables(n)
        x = _edges_to_bits(n, edges)
        return (n, min(_apply(x, t) for t in self._tables[n]))


def is_connected(n, edges):
    if n <= 1:
        return True
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def graph6(n, edges):
    """graph6 text for n <= 62."""
    es = set(edges)
    bits = [1 if (u, v) in es else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def relabel(edges, perm):
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def brute_hom_count(h_n, h_edges, t_adj):
    """hom(H, T) by testing every one of v(T)^v(H) maps."""
    t_n = t_adj.shape[0]
    if h_n == 0:
        return 1
    if t_n == 0:
        return 0
    maps = np.indices((t_n,) * h_n).reshape(h_n, -1)
    ok = np.ones(maps.shape[1], dtype=bool)
    for u, v in h_edges:
        ok &= t_adj[maps[u], maps[v]]
    return int(ok.sum())


def codegree_walks(n, edge_list):
    """Exact (tr A^2, tr A^3, tr A^4) from codegrees, in Python integers.

    tr A^2 = sum of degrees; tr A^3 = sum over ordered edges of the
    codegree; tr A^4 = sum over ordered vertex pairs of codegree squared.
    """
    nbr = [set() for _ in range(n)]
    for u, v in edge_list:
        nbr[u].add(v)
        nbr[v].add(u)
    tr2 = sum(len(s) for s in nbr)
    tr3 = 0
    tr4 = 0
    for u in range(n):
        for v in range(n):
            c = len(nbr[u] & nbr[v])
            tr4 += c * c
            if v in nbr[u]:
                tr3 += c
    return tr2, tr3, tr4


def k4e_hom_count(n, edge_list):
    """hom(K4 - e, T): the shared edge maps to an ordered edge (u, v) and
    each of the two other vertices to a common neighbour of u and v."""
    nbr = [set() for _ in range(n)]
    for u, v in edge_list:
        nbr[u].add(v)
        nbr[v].add(u)
    return sum(2 * len(nbr[u] & nbr[v]) ** 2 for u, v in edge_list)


def square_codegrees(rows, cols, n_rows, n_cols):
    """M = B B^T as int64 for a 0/1 block B given by its nonzero entries.

    The float32 product is exact: each entry is a sum of at most n_cols ones,
    far below 2**24.
    """
    if n_cols >= 1 << 24:
        raise ValueError("float32 codegree product would not be exact")
    b = np.zeros((n_rows, n_cols), dtype=np.float32)
    b[rows, cols] = 1.0
    return np.rint(b @ b.T).astype(np.int64)


def even_walk_traces(m):
    """Exact (tr M, tr M^2, tr M^3) of a symmetric non-negative int64 matrix,
    summed row by row into Python ints."""
    top = int(m.max()) if m.size else 0
    if m.shape[0] * top * top >= 1 << 53:
        raise ValueError("entries too large for an exact float64 square")
    m2 = np.rint(m.astype(np.float64) @ m.astype(np.float64)).astype(np.int64)
    tr1 = int(np.trace(m))
    tr2 = sum(int(r) for r in (m * m).sum(axis=1))
    tr3 = sum(int(r) for r in (m * m2).sum(axis=1))
    return tr1, tr2, tr3


# ---------------------------------------------------------------------------
# weighted targets and closed forms
# ---------------------------------------------------------------------------

def weighted_path_density(m, weights, density):
    """t(P_m, W) for a step graphon, by a plain vector recursion."""
    total = sum(weights)
    u = [Fraction(w) / total for w in weights]
    q = len(u)
    vec = list(u)
    for _ in range(m):
        vec = [sum(vec[a] * density[a][b] for a in range(q)) * u[b] for b in range(q)]
    return sum(vec)


def fractional_matching_number(n, edges):
    """nu*(H) as the best half-integral fractional matching.

    The fractional matching polytope has half-integral vertices, so the
    maximum over weights in {0, 1/2, 1} is the LP optimum.
    """
    if not edges:
        raise ValueError("no edges")
    inc = np.zeros((n, len(edges)), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        inc[u, j] = 1
        inc[v, j] = 1
    weights = np.array(list(itertools.product((0, 1, 2), repeat=len(edges))),
                       dtype=np.int64)  # in halves
    feasible = (weights @ inc.T <= 2).all(axis=1)
    return Fraction(int(weights[feasible].sum(axis=1).max()), 2)


def has_path_cover(n, edges):
    """Can V(H) be split into vertex-disjoint paths of at least two edges?"""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def paths_from(v, free):
        out = []
        stack = [(v,)]
        while stack:
            p = stack.pop()
            out.append(p)
            for w in adj[p[-1]]:
                if w in free and w not in p:
                    stack.append(p + (w,))
        return out

    def cover(free):
        if not free:
            return True
        v = min(free)
        # v is an endpoint or an inner vertex; an inner v joins two arms
        for p in paths_from(v, free):
            for q in paths_from(v, free - set(p[1:])):
                path = set(p) | set(q)
                if len(path) == len(p) + len(q) - 1 and len(path) >= 3:
                    if cover(free - path):
                        return True
        return False

    return cover(frozenset(range(n)))


def path_exponent(k, ell):
    """C(P_k, P_ell) by the paper's four cases (P_k has k edges)."""
    if k == ell:
        return Fraction(1)
    if k % 2 == 1 and ell % 2 == 0:
        return Fraction(k + 1, ell)
    if k > ell:
        return Fraction(k, ell)
    if k % 2 == 0:
        return Fraction(k + 1, ell + 1)
    r = ell % (k + 1)
    a = ell // (k + 1)
    return Fraction(k + ell - r, (a + 1) * ell)


def hom_exists(g, h):
    """Is there a homomorphism G -> H?  Plain backtracking over V(G)."""
    (gn, gedges), (hn, hedges) = g, h
    gadj = [set() for _ in range(gn)]
    for u, v in gedges:
        gadj[u].add(v)
        gadj[v].add(u)
    hadj = [set() for _ in range(hn)]
    for u, v in hedges:
        hadj[u].add(v)
        hadj[v].add(u)
    order = []
    for s in range(gn):   # depth-first order, so each vertex meets a placed neighbour
        if s in order:
            continue
        stack = [s]
        while stack:
            v = stack.pop()
            if v not in order:
                order.append(v)
                stack.extend(gadj[v])
    image = {}

    def place(i):
        if i == gn:
            return True
        v = order[i]
        for x in range(hn):
            if all(image[w] in hadj[x] for w in gadj[v] if w in image):
                image[v] = x
                if place(i + 1):
                    return True
                del image[v]
        return False

    return place(0)
