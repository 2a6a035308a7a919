"""Corpus construction and exact inequality verification.

Every verdict is decided on integer counts: with t(G,T) = a/da and
t(H,T) = b/db, t(G,T) >= t(H,T)^(p/q) is decided as a^q db^p >= b^p da^q.
Floats appear nowhere in a verdict, and a Fraction is built only for what
a report prints. Targets that trip a resource cap are reported as
skipped, never silently dropped.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constructions import ProjectivePlaneSpec, behrend_graph, red_line_graph, simple_family
from .graphs import (
    GraphError,
    SimpleGraph,
    cycle_graph,
    cycle_with_chord,
    disjoint_union,
    encode_graph,
    enumerate_graphs,
)
from .homcount import (WALK_MIN_ORDER, ResourceLimitError, WalkCounter, hom_count,
                       hom_counts, hom_density)

GNP_CONTRACT = "gnp-pcg64-v1"


def gnp_graph(n, p, seed, index):
    """Seeded G(n,p): PCG64 stream SeedSequence([seed, index]); one uniform
    draw per vertex pair in lexicographic order. This layout is the
    versioned contract GNP_CONTRACT."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    p = float(p)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return SimpleGraph(n, frozenset(edges))


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus recipe; seeds are part of the spec."""

    exhaustive_n: int = 0
    dedup: bool = True
    gnp_count: int = 0
    gnp_n: int = 10
    gnp_p: Fraction = Fraction(1, 2)
    gnp_seed: int = 7
    include_constructions: bool = False


@dataclass(frozen=True)
class Corpus:
    entries: tuple  # of (tag, target)

    @functools.cached_property
    def stacks(self):
        """Simple targets of 1 to WALK_MIN_ORDER vertices grouped by order:
        n -> (entry indices, their adjacency matrices stacked as one
        (B, n, n) int64 array). Larger targets are left to ``hom_density``,
        which counts cycles and K2 on them by walks."""
        groups = {}
        for i, (_, t) in enumerate(self.entries):
            if isinstance(t, SimpleGraph) and 0 < t.n <= WALK_MIN_ORDER:
                groups.setdefault(t.n, []).append(i)
        return {n: (idx, np.stack([self.entries[i][1].adjacency_matrix() for i in idx]))
                for n, idx in groups.items()}

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def build_corpus(spec):
    entries = []
    if spec.exhaustive_n:
        if spec.exhaustive_n > (6 if spec.dedup else 7):
            raise ResourceLimitError("exhaustive corpus capped at n <= 6 (dedup)")
        for n in range(1, spec.exhaustive_n + 1):
            for i, g in enumerate(enumerate_graphs(n, dedup=spec.dedup)):
                entries.append((f"exhaustive-n{n}-{i}", g))
    for i in range(spec.gnp_count):
        g = gnp_graph(spec.gnp_n, spec.gnp_p, spec.gnp_seed, i)
        entries.append((f"gnp(n={spec.gnp_n},p={spec.gnp_p},seed={spec.gnp_seed},i={i})", g))
    if spec.include_constructions:
        entries.append(("red_line(p=5,k=2)", red_line_graph(ProjectivePlaneSpec(5, 2), seed=1)))
        entries.append(("behrend(30)", behrend_graph(30)))
        for kind in ("two_cliques", "clique_plus_isolated", "single_edge"):
            for n in (4, 6, 8):
                entries.append((f"{kind}({n})", simple_family(kind, n)))
    return Corpus(tuple(entries))


# ---------------------------------------------------------------------------
# density evaluation and cross-powered verdicts
# ---------------------------------------------------------------------------

def target_density(pattern, target, max_steps=None):
    """The same as ``hom_density``."""
    return hom_density(pattern, target, max_steps=max_steps)


@dataclass
class VerificationReport:
    descriptor: dict
    results: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    min_slack: dict = None

    @property
    def ok(self):
        return not self.violations

    @property
    def exit_code(self):
        if self.violations:
            return 1
        if self.skipped:
            return 4
        return 0

    def to_json(self):
        return json.dumps({
            "descriptor": self.descriptor,
            "num_targets": len(self.results) + len(self.skipped),
            "violations": self.violations,
            "skipped": self.skipped,
            "min_slack": self.min_slack,
            "ok": self.ok,
            "complete": not self.skipped,
        }, default=str)


def _witness(target):
    if isinstance(target, SimpleGraph):
        return encode_graph(target, "graph6")
    return "weighted-target"


def _corpus_densities(pattern, corpus, max_steps):
    """t(pattern, T) for every corpus target as an exact pair (count,
    denominator), or the ResourceLimitError that stopped it. Densities
    multiply over disjoint unions, so each distinct component is counted
    once, under its own ``max_steps``: in one batch per order n of simple
    targets, giving hom(pattern, T) over n^v(pattern), else by
    ``hom_density``, giving the product of its numerators and denominators."""
    parts = Counter(pattern.subgraph(c) for c in pattern.components())
    out = [None] * len(corpus)
    for n, (idx, adjs) in corpus.stacks.items():
        totals, scale = [1] * len(idx), n ** pattern.n
        for part, k in parts.items():
            try:
                counts = hom_counts(part, adjs, max_steps=max_steps)
            except ResourceLimitError as exc:
                counts = exc.counts
            totals = counts if len(parts) == k == 1 else [
                t if isinstance(t, ResourceLimitError) else
                c if isinstance(c, ResourceLimitError) else t * c ** k
                for t, c in zip(totals, counts)]
        for i, t in zip(idx, totals):
            out[i] = t if isinstance(t, ResourceLimitError) else (t, scale)
    for i, (_, target) in enumerate(corpus):
        if out[i] is None:
            count = scale = 1
            try:
                for part, k in parts.items():
                    density = hom_density(part, target, max_steps=max_steps)
                    count *= density.numerator ** k
                    scale *= density.denominator ** k
            except ResourceLimitError as exc:
                out[i] = exc
            else:
                out[i] = (count, scale)
    return out


def check_inequality(g, h, c, corpus, max_steps=2 * 10 ** 8):
    """Exact check of t(G,T) >= t(H,T)^c over every corpus target."""
    c = Fraction(c)
    if c < 0:
        raise GraphError(f"exponent c must be nonnegative, got {c}")
    p, q = c.numerator, c.denominator
    return _verdicts({
        "kind": "domination",
        "g": encode_graph(g, "graph6"),
        "h": encode_graph(h, "graph6"),
        "c": f"{p}/{q}",
    }, g, h, p, q, corpus, max_steps)


def _verdicts(descriptor, g, h, p, q, corpus, max_steps):
    """The report, under ``descriptor``, of t(G,T)^q >= t(H,T)^p over
    every corpus target. With t(G,T) = a/da and t(H,T) = b/db the slack is
    (a^q db^p - b^p da^q) / (da^q db^p); its sign is the verdict, and the
    first target of least slack becomes ``min_slack``. Only a new least
    slack and a violation's densities are built as Fractions."""
    report = VerificationReport(descriptor)
    g_dens = _corpus_densities(g, corpus, max_steps)
    h_dens = _corpus_densities(h, corpus, max_steps)
    g_scales, h_scales = {}, {}  # da -> da^q and db -> db^p, each powered once
    least_num, least_den = 0, 0
    for (tag, target), tg, th in zip(corpus, g_dens, h_dens):
        failed = [x for x in (tg, th) if isinstance(x, ResourceLimitError)]
        if failed:
            report.skipped.append({"target": tag, "reason": str(failed[0])})
            continue
        (a, da), (b, db) = tg, th
        if da not in g_scales:
            g_scales[da] = da ** q
        if db not in h_scales:
            h_scales[db] = db ** p
        num = a ** q * h_scales[db] - b ** p * g_scales[da]
        den = g_scales[da] * h_scales[db]
        report.results.append({"target": tag, "verdict": "ok" if num >= 0 else "violation"})
        if num < 0:
            report.violations.append({"target": tag, "witness": _witness(target),
                                      "t_g": str(Fraction(a, da)), "t_h": str(Fraction(b, db))})
        if report.min_slack is None or num * least_den < least_num * den:
            slack = Fraction(num, den)
            least_num, least_den = slack.numerator, slack.denominator
            report.min_slack = {"target": tag, "slack": str(slack), "witness": _witness(target)}
    return report


HARVEST_MAX_DENOMINATOR = 3600


def _farey_below(r):
    """The largest fraction below r > 0 with denominator <= the limit: such
    neighbours a/b < p/q have pb - aq = 1 and b + q > the limit."""
    p, q, limit = r.numerator, r.denominator, HARVEST_MAX_DENOMINATOR
    b = limit - (limit - pow(p, -1, q)) % q
    return Fraction((p * b - 1) // q, b)


def harvest_lower(g, h, corpus):
    """(bound, witness graph6): a lower bound on C(G,H) from one corpus
    target, or None. A T with 0 < t(G,T) = a/da and t(H,T) = b/db < 1 gives
    C(G,H) >= log t(G,T) / log t(H,T). On the T of the largest float ratio,
    the largest p/q <= it (nudged up by 2^-40, not to miss an exact rational
    ratio) with q <= HARVEST_MAX_DENOMINATOR is certified as a^q db^p <= b^p
    da^q; a p/q that fails the check gives way to the next smaller one."""
    best = None
    for (_, t), (a, da), (b, db) in zip(corpus, _corpus_densities(g, corpus, None),
                                        _corpus_densities(h, corpus, None)):
        if 0 < a < da and 0 < b < db:
            ratio = (math.log(a) - math.log(da)) / (math.log(b) - math.log(db))
            if best is None or ratio > best[0]:
                best = (ratio, a, da, b, db, t)
    if best is None:
        return None
    ratio, a, da, b, db, t = best
    x = Fraction(ratio * (1 + 2 ** -40))
    r = x.limit_denominator(HARVEST_MAX_DENOMINATOR)
    r = _farey_below(r) if r > x else r
    while r > 0:
        p, q = r.numerator, r.denominator
        if a ** q * db ** p <= b ** p * da ** q:
            return r, _witness(t)
        r = _farey_below(r)
    return None


# ---------------------------------------------------------------------------
# the open-problem inequality and the chorded-cycle identity
# ---------------------------------------------------------------------------

def problem6_exponents(i, j):
    """Integer exponents of t(C_2j)^2 t(C_{2i+1})^{2i-1-2j} >= t(C_{2i-1})^{2i+1-2j}."""
    if not i > j >= 1:
        raise ValueError("need i > j >= 1")
    return 2, 2 * i - 1 - 2 * j, 2 * i + 1 - 2 * j


def search_problem6(i, j, corpus, max_steps=2 * 10 ** 8):
    """Exact corpus check of the conjectured odd/even cycle inequality.

    Densities multiply over disjoint unions, so the inequality is
    t(G,T) >= t(H,T) for G = e1 C_2j + e2 C_{2i+1} and H = e3 C_{2i-1},
    checked as in ``check_inequality``: each of the three cycles is
    counted once per target, under its own ``max_steps``. The unions are
    never encoded; the descriptor names the inequality instead.
    """
    e1, e2, e3 = problem6_exponents(i, j)
    g = disjoint_union(*[cycle_graph(2 * j)] * e1, *[cycle_graph(2 * i + 1)] * e2)
    h = disjoint_union(*[cycle_graph(2 * i - 1)] * e3)
    return _verdicts({
        "kind": "problem6", "i": i, "j": j,
        "inequality": f"t(C_{2 * j})^{e1} t(C_{2 * i + 1})^{e2} >= t(C_{2 * i - 1})^{e3}",
    }, g, h, 1, 1, corpus, max_steps)


def check_eq_main(k, ell, target):
    """hom(C+_{2k+1}, T) = sum over ordered edges (u,v) of the two rooted
    arc-closures: walks of length 2l and 2k+1-2l between the chord ends."""
    if not k > ell >= 1:
        raise ValueError("need k > ell >= 1")
    chorded = cycle_with_chord(k, ell)
    lhs = hom_count(chorded, target)
    walks = WalkCounter(target.adjacency_matrix(np.float32))
    us, vs = zip(*target.edges) if target.edges else ((), ())
    left = walks.entries(2 * ell, us, vs)
    right = walks.entries(2 * k + 1 - 2 * ell, us, vs)
    # powers of A are symmetric, so both orientations of an edge count alike
    return lhs == 2 * sum(x * y for x, y in zip(left, right))
