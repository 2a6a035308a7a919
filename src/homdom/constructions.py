"""Generators for the lower-bound target families and the ratio estimator.

Each family is a deterministic function of its parameters and a seed.
Randomized families use PCG64 streams derived from SeedSequence entropy
so corpora are reproducible bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import (Biadjacency, CliqueUnion, GraphError, SimpleGraph, complete_graph,
                     cycle_graph, disjoint_union)
from .homcount import (
    ResourceLimitError,
    WeightedPattern,
    WeightedTarget,
    hom_density,
)


# ---------------------------------------------------------------------------
# path blow-up patterns
# ---------------------------------------------------------------------------

def path_blowup_pattern(k, l, m):
    """Weighted blow-up pattern of the path with 2kl+1 edges.

    Parameters follow the classical construction with b = 2l+1, s = 2l and
    indicator d_i = 1 iff k divides i. Requires 1 <= m <= k and l >= 1.
    The left-half rules leave the edge {kl-1, kl} implicit when kl is even;
    it is filled with the generic value s, which is what the mirror rule
    forces for consistency.
    """
    if not (1 <= m <= k) or l < 1:
        raise GraphError("need 1 <= m <= k and l >= 1")
    b = 2 * l + 1
    s = 2 * l
    kl = k * l
    d = [1 if i % k == 0 else 0 for i in range(kl + 1)]

    nv = 2 * kl + 2
    p_v = {0: Fraction(b), 1: Fraction(b - s)}
    for u in range(1, (kl - 1) // 2 + 1):
        p_v[2 * u + 1] = Fraction(d[0] + 2 * sum(d[1:u + 1]))
    for u in range(1, kl // 2 + 1):
        p_v[2 * u] = Fraction(s - d[0] - 2 * sum(d[1:u]))
    for u in range(0, kl + 1):
        p_v[2 * kl + 1 - u] = p_v[u]

    p_e = {}
    for u in range(0, (kl - 1) // 2 + 1):
        p_e[(2 * u, 2 * u + 1)] = Fraction(s + d[u])
    for u in range(1, kl // 2 + 1):
        edge = (2 * u - 1, 2 * u)
        if edge != (kl, kl + 1):
            p_e[edge] = Fraction(s)
    if kl % 2 == 0:
        p_e[(kl, kl + 1)] = Fraction(s + d[kl // 2])
    else:
        p_e[(kl, kl + 1)] = p_v[kl] + p_v[kl + 1]
    for u in range(0, kl):
        p_e[(2 * kl - u, 2 * kl + 1 - u)] = p_e[(u, u + 1)]

    base = SimpleGraph(nv, frozenset((i, i + 1) for i in range(nv - 1)))
    vexp = tuple(p_v[i] for i in range(nv))
    eexp = {(i, i + 1): p_e[(i, i + 1)] for i in range(nv - 1)}
    return WeightedPattern(base, vexp, eexp)


def instantiate_weighted(pattern, n):
    """Evaluate a blow-up pattern at a concrete scale n as a step graphon.

    Class v gets weight n^vexp(v); edge uv gets density
    n^(eexp(uv) - vexp(u) - vexp(v)). Raises if any density exceeds 1
    (n too small for this pattern).
    """
    n = Fraction(n)
    if n <= 1:
        raise GraphError("need scale n > 1")

    def power(base, expo):
        ex = Fraction(expo)
        if ex.denominator != 1:
            raise GraphError("non-integer exponents need an integer-power scale")
        return base ** ex.numerator

    g = pattern.base
    weights = tuple(power(n, e) for e in pattern.vexp)
    q = g.n
    dens = [[Fraction(0)] * q for _ in range(q)]
    for (u, v), ee in pattern.eexp.items():
        expo = ee - pattern.vexp[u] - pattern.vexp[v]
        dval = power(n, expo)
        if dval > 1:
            raise GraphError(f"density > 1 on edge {(u, v)} at n={n}; n too small")
        dens[u][v] = dens[v][u] = dval
    return WeightedTarget(weights, tuple(map(tuple, dens)))


# ---------------------------------------------------------------------------
# projective planes and red-line graphs
# ---------------------------------------------------------------------------

def _is_prime(p):
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def projective_plane(p):
    """The projective plane PG(2, p) for prime p.

    Points are normalized homogeneous triples over F_p, in the order
    (1, x, y), (0, 1, y), (0, 0, 1); point (1, x, y) has index x*p + y and
    (0, 1, y) has index p^2 + y. Lines are the triples of dual coordinates
    in the same order, each returned as the ascending tuple of its incident
    point indices. p^2+p+1 points and lines, p+1 points per line.
    """
    if not _is_prime(p):
        raise GraphError(f"{p} is not prime")
    points = [_point(i, p) for i in range(p * p + p + 1)]
    return points, [_line(a, b, c, p) for a, b, c in points]


def _point(i, p):
    """The normalized triple of point i of PG(2, p), which is also the triple
    of dual coordinates of line i."""
    if i < p * p:
        return 1, i // p, i % p
    if i < p * p + p:
        return 0, 1, i - p * p
    return 0, 0, 1


def _line(a, b, c, p):
    """Indices of the points of the line aX + bY + cZ = 0, ascending."""
    if c:  # one point (1, x, y) per x, then the point (0, 1, -b/c)
        ci = pow(c, -1, p)
        return tuple(x * p + (-(a + b * x) * ci) % p for x in range(p)) + (p * p + (-b * ci) % p,)
    if b:  # every (1, -a/b, y), then (0, 0, 1)
        x = (-a * pow(b, -1, p)) % p
        return tuple(range(x * p, x * p + p)) + (p * p + p,)
    return tuple(range(p * p, p * p + p + 1))  # the line at infinity


@dataclass(frozen=True)
class ProjectivePlaneSpec:
    """Red-line construction parameters: prime order p, pattern parameter k."""

    p: int
    k: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise GraphError(f"{self.p} is not prime")
        if self.k < 2:
            raise GraphError("need k >= 2")

    @property
    def num_points(self):
        return self.p ** 2 + self.p + 1

    @property
    def alpha(self):
        return Fraction(self.k, 2 * self.k - 1)

    @property
    def red_line_count(self):
        n = self.num_points
        a = self.alpha
        # floor(n^alpha) for rational alpha = floor((n^num)^(1/den))
        target = n ** a.numerator
        lo = int(round(n ** (a.numerator / a.denominator)))
        while lo ** a.denominator > target:
            lo -= 1
        while (lo + 1) ** a.denominator <= target:
            lo += 1
        return lo


def red_line_graph(spec, seed):
    """Union of cliques on a seeded-random choice of ``spec.red_line_count``
    red lines, as a ``CliqueUnion`` of the chosen lines in the order drawn.
    Only the chosen lines are built."""
    n = spec.num_points
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, spec.p, spec.k])))
    chosen = rng.choice(n, size=spec.red_line_count, replace=False)
    return CliqueUnion(n, tuple(_line(*_point(int(li), spec.p), spec.p) for li in chosen))


# ---------------------------------------------------------------------------
# bipartite power targets
# ---------------------------------------------------------------------------

# the most vertices of a random bipartite power target or a Behrend graph
MAX_TARGET_VERTICES = 50_000


def bipartite_power_target(i, n, mode="weighted", seed=0):
    """Bipartite target with parts of size n^(i+1) and edge density n^-i.

    ``random`` mode draws a seeded random bipartite graph, kept as its
    part x part ``Biadjacency`` block (the mode that exhibits the
    degenerate-walk exponents); ``weighted`` returns the two-class step
    graphon with the same density (kept as a contrast fixture: its
    even-cycle exponents are -2ji for every j).
    """
    if i < 1 or n < 2:
        raise GraphError("need i >= 1 and n >= 2")
    part = n ** (i + 1)
    if mode == "weighted":
        d = Fraction(1, n ** i)
        return WeightedTarget(
            (Fraction(part), Fraction(part)),
            ((Fraction(0), d), (d, Fraction(0))),
        )
    if mode != "random":
        raise GraphError(f"unknown mode {mode!r}")
    if 2 * part > MAX_TARGET_VERTICES:
        raise ResourceLimitError("bipartite power target too large to materialize")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, n])))
    block = np.empty((part, part), dtype=bool)
    for rows in np.split(block, range(64, part, 64)):  # one (part, part) draw's stream
        rows[...] = rng.random(rows.shape) < 1.0 / n ** i
    block.flags.writeable = False  # handed over, not copied
    return Biadjacency(block)


# ---------------------------------------------------------------------------
# Behrend (Ruzsa-Szemeredi) graphs
# ---------------------------------------------------------------------------

def ap3_free_set(n):
    """A large 3-term-progression-free subset of {1, .., n}.

    Sphere-digit construction: numbers whose base-q digits are at most
    (q-1)//2 and lie on a sphere of fixed squared radius. The base and the
    radius are chosen by direct search to maximize the set size.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    if n <= 3:
        return [1] if n < 3 else [1, 2]
    best = []
    for q in range(3, 13):
        h = (q - 1) // 2
        ndigits = 1
        while q ** ndigits <= n:
            ndigits += 1
        spheres = {}
        stack = [(0, 0, 0)]  # (digit index, value, norm)
        while stack:
            di, val, norm = stack.pop()
            if di == ndigits:
                if 1 <= val <= n:
                    spheres.setdefault(norm, []).append(val)
                continue
            for dig in range(h + 1):
                nval = val + dig * q ** di
                if nval <= n:
                    stack.append((di + 1, nval, norm + dig * dig))
        for members in spheres.values():
            if len(members) > len(best):
                best = members
    return sorted(best)


def behrend_graph(n):
    """Tripartite union of n*|S| edge-disjoint triangles, no other triangles.

    Parts of sizes n, 2n, 3n; for x in [0, n) and d in S the triangle is
    (x, x+d, x+2d) across the parts. S is the AP3-free set for n.
    """
    if n < 3:
        raise GraphError("need n >= 3")
    if 6 * n > MAX_TARGET_VERTICES:
        raise ResourceLimitError(f"behrend graph on {6 * n} vertices exceeds the cap")
    s = ap3_free_set(n)
    edges = set()
    for x in range(n):
        for d in s:
            b, c = n + x + d, 3 * n + x + 2 * d  # b < c
            edges.update(((x, b), (b, c), (x, c)))
    return SimpleGraph(6 * n, frozenset(edges))


def behrend_triangle_hom_count(n):
    """Closed-form hom(K_3, behrend_graph(n)) = 6 n |S| (also hom(K_4 - e))."""
    return 6 * n * len(ap3_free_set(n))


# ---------------------------------------------------------------------------
# the simple families of the basic lower bounds
# ---------------------------------------------------------------------------

def simple_family(kind, n):
    """The named elementary scaling families.

    clique_plus_isolated is K_n plus n isolated vertices; two_cliques is
    two disjoint copies of K_n; single_edge is one edge on n vertices.
    """
    if n < 2:
        raise GraphError("need n >= 2")
    if kind == "clique_plus_isolated":
        return SimpleGraph(2 * n, complete_graph(n).edges)
    if kind == "two_cliques":
        g = complete_graph(n)
        return disjoint_union(g, g)
    if kind == "single_edge":
        return SimpleGraph(n, frozenset([(0, 1)]))
    raise GraphError(f"unknown simple family {kind!r}")


# ---------------------------------------------------------------------------
# scaling families and the log-ratio estimator
# ---------------------------------------------------------------------------

# each family kind and the parameters it reads, all required
FAMILY_PARAMS = {"path_blowup": ("k", "l", "m"), "projective": ("k",), "bipartite_power": ("i",),
                 "two_cliques": (), "clique_plus_isolated": (), "single_edge": (), "behrend": ()}


@dataclass(frozen=True)
class ScalingFamily:
    """A named target family addressable by kind + params; pure given a seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def build(self, size):
        p = self.params
        if self.kind not in FAMILY_PARAMS:
            raise GraphError(f"unknown family kind {self.kind!r}")
        needs = FAMILY_PARAMS[self.kind]
        missing = [key for key in needs if key not in p]
        if missing:
            raise GraphError(f"family {self.kind!r} needs parameter(s) {', '.join(missing)}")
        extra = [key for key in p if key not in needs]
        if extra:
            raise GraphError(f"family {self.kind!r} reads no parameter(s) {', '.join(extra)}")
        if self.kind == "path_blowup":
            pattern = path_blowup_pattern(p["k"], p["l"], p["m"])
            return instantiate_weighted(pattern, size)
        if self.kind == "projective":
            spec = ProjectivePlaneSpec(p=size, k=p["k"])
            return red_line_graph(spec, self.seed)
        if self.kind == "bipartite_power":
            return bipartite_power_target(p["i"], size, mode="random", seed=self.seed)
        if self.kind in ("two_cliques", "clique_plus_isolated", "single_edge"):
            return simple_family(self.kind, size)
        return behrend_graph(size)


def log_fraction(x):
    """Natural log of a positive Fraction, accurate for huge numerators."""
    x = Fraction(x)
    if x <= 0:
        raise GraphError("log of nonpositive value")
    return math.log(x.numerator) - math.log(x.denominator)


def estimate_ratio(g, h, family, sizes, max_steps=None):
    """Per-size log-density ratios log t(G,T)/log t(H,T) for a family.

    Returns a dict with the (size, ratio) list, the last value as the
    (deliberately naive) extrapolation, and a monotone-trend flag. Raises
    if any instantiation has t(H,T) outside (0, 1); ``max_steps`` bounds
    the work of each density as in ``hom_density``.
    """
    ratios = []
    for size in sorted(sizes):
        target = family.build(size)
        tg = hom_density(g, target, max_steps)
        th = hom_density(h, target, max_steps)
        if not (0 < th < 1):
            raise GraphError(f"degenerate family: t(H,T)={th} at size {size}")
        if tg == 0:
            raise GraphError(f"degenerate family: t(G,T)=0 at size {size}")
        ratios.append((size, log_fraction(tg) / log_fraction(th)))
    vals = [r for _, r in ratios]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    monotone = all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
    return {"ratios": ratios, "extrapolated": vals[-1], "monotone": monotone}


def exponent_vector_estimate(target, cycle_lengths, scale):
    """log t(C_m, T)/log(scale) per cycle length m >= 2 (C_2 = K2), each
    density counted exactly by ``hom_density``."""
    return [log_fraction(hom_density(cycle_graph(m), target)) / math.log(scale)
            for m in cycle_lengths]
