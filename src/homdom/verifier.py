"""Corpus construction and exact inequality verification.

Every verdict is produced by exact cross-powered rational comparison:
t(G,T) >= t(H,T)^(p/q) is decided as t(G,T)^q >= t(H,T)^p over Fraction.
Floats appear nowhere in a verdict. Targets that trip a resource cap are
reported as skipped, never silently dropped.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constructions import behrend_graph, log_fraction, red_line_graph, simple_family
from .constructions import ProjectivePlaneSpec
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
    _least: Fraction = field(default=None, init=False, repr=False)

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

    def _record(self, tag, target, slack, **densities):
        """One target's verdict from its exact slack (>= 0 means the
        inequality holds); a violation lists ``densities`` as fraction
        strings, and the first target of least slack becomes ``min_slack``."""
        holds = slack >= 0
        self.results.append({"target": tag, "verdict": "ok" if holds else "violation"})
        if not holds:
            self.violations.append({"target": tag, "witness": _witness(target),
                                    **{k: str(v) for k, v in densities.items()}})
        if self._least is None or slack < self._least:
            self._least = slack
            self.min_slack = {"target": tag, "slack": str(slack), "witness": _witness(target)}


def _witness(target):
    if isinstance(target, SimpleGraph):
        return encode_graph(target, "graph6")
    return "weighted-target"


def _corpus_densities(pattern, corpus, max_steps):
    """t(pattern, T) for every corpus target, or the ResourceLimitError
    that stopped it. Densities multiply over disjoint unions, so each
    distinct component is counted once, under its own ``max_steps``: in
    one batch per order of simple targets, else by ``hom_density``."""
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
            out[i] = t if isinstance(t, ResourceLimitError) else Fraction(t, scale)
    for i, (_, target) in enumerate(corpus):
        if out[i] is None:
            try:
                out[i] = math.prod(hom_density(part, target, max_steps=max_steps) ** k
                                   for part, k in parts.items())
            except ResourceLimitError as exc:
                out[i] = exc
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
    every corpus target."""
    report = VerificationReport(descriptor)
    g_dens = _corpus_densities(g, corpus, max_steps)
    h_dens = _corpus_densities(h, corpus, max_steps)
    for (tag, target), tg, th in zip(corpus, g_dens, h_dens):
        failed = [x for x in (tg, th) if isinstance(x, ResourceLimitError)]
        if failed:
            report.skipped.append({"target": tag, "reason": str(failed[0])})
            continue
        report._record(tag, target, tg ** q - th ** p, t_g=tg, t_h=th)
    return report


def ratio_certified_lower(g, h, target, max_denominator=60):
    """A certified rational lower bound on C(G,H) from one target.

    For any T with 0 < t(H,T) < 1 and t(G,T) > 0, C(G,H) >= log t(G,T) /
    log t(H,T). A rational r below that ratio is certified exactly by
    t(G,T)^q <= t(H,T)^p; the float ratio only steers the choice of r.
    """
    try:
        tg = hom_density(g, target)
        th = hom_density(h, target)
    except ResourceLimitError:
        return None
    if not (0 < th < 1) or tg <= 0 or tg >= 1:
        return None
    ratio = log_fraction(tg) / log_fraction(th)
    r = Fraction(ratio).limit_denominator(max_denominator)
    step = Fraction(1, max_denominator ** 2)
    for _ in range(4 * max_denominator):
        if r <= 0:
            return None
        if tg ** r.denominator <= th ** r.numerator:
            return r
        r -= step
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
    g = functools.reduce(disjoint_union, [cycle_graph(2 * j)] * e1 + [cycle_graph(2 * i + 1)] * e2)
    h = functools.reduce(disjoint_union, [cycle_graph(2 * i - 1)] * e3)
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
