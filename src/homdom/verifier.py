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
    MAX_DEDUP_N,
    GraphError,
    HomdomError,
    SimpleGraph,
    cycle_graph,
    cycle_with_chord,
    disjoint_union,
    encode_graph,
    enumerate_graphs,
)
from .homcount import WALK_MIN_ORDER, ResourceLimitError, WalkCounter, hom_counts, hom_density
from .ratlp import frac_to_str

GNP_CONTRACT = "gnp-pcg64-v1"
COUNT_TABLE_KEYS = 4096  # keys of one corpus's count table
MAX_GNP_N = 2000  # gnp_graph draws one uniform per pair: about 2e6 at the cap
MAX_CROSS_POWER_BITS = 1 << 17  # a target whose da^q or db^p could pass 2^this is skipped


def gnp_graph(n, p, seed, index):
    """Seeded G(n,p): PCG64 stream SeedSequence([seed, index]); one uniform
    draw per vertex pair in lexicographic order, drawn as one array. This
    layout is the versioned contract GNP_CONTRACT."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    us, vs = np.triu_indices(n, 1)
    hit = rng.random(len(us)) < float(p)
    return SimpleGraph(n, frozenset(zip(us[hit].tolist(), vs[hit].tolist())))


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus recipe; seeds are part of the spec."""

    exhaustive_n: int = 0
    gnp_count: int = 0
    gnp_n: int = 10
    gnp_p: Fraction = Fraction(1, 2)
    gnp_seed: int = 7
    include_constructions: bool = False

    def __post_init__(self):
        for key in ("exhaustive_n", "gnp_count", "gnp_n", "gnp_seed"):
            if (value := getattr(self, key)) < 0:
                raise GraphError(f"corpus spec {key} must be nonnegative, got {value}")
        if self.gnp_n > MAX_GNP_N:
            raise GraphError(f"corpus spec gnp_n capped at {MAX_GNP_N}, got {self.gnp_n}")
        if self.gnp_count and not self.gnp_n:
            raise GraphError("corpus spec gnp_n must be positive when gnp_count > 0")
        if not 0 <= self.gnp_p <= 1:
            raise GraphError(f"corpus spec gnp_p must lie in [0, 1], got {self.gnp_p}")


@dataclass(frozen=True)
class Corpus:
    entries: tuple  # of (tag, target)

    @functools.cached_property
    def stacks(self):
        """Simple targets of 1 to WALK_MIN_ORDER vertices grouped by order:
        n -> (entry indices, their adjacency matrices stacked as one
        (B, n, n) float32 array). Larger targets are left to ``hom_density``,
        which counts cycles and K2 on them by walks."""
        groups = {}
        for i, (_, t) in enumerate(self.entries):
            if isinstance(t, SimpleGraph) and 0 < t.n <= WALK_MIN_ORDER:
                groups.setdefault(t.n, []).append(i)
        return {n: (idx, np.stack([self.entries[i][1].adjacency_matrix(np.float32) for i in idx]))
                for n, idx in groups.items()}

    @functools.cached_property
    def singles(self):
        """Indices of the targets not in ``stacks``, each a group of its own."""
        return sorted(set(range(len(self))).difference(*(idx for idx, _ in self.stacks.values())))

    @functools.cached_property
    def counts(self):
        """The count table: (connected component, max_steps, order n) -> a
        row (counts, stopped) aligned with ``stacks[n]``: counts[j] is
        hom(component, T), None while uncounted, or 0 where stopped[j] holds
        the ResourceLimitError met filling it. COUNT_TABLE_KEYS keys at most."""
        return {}

    def count_row(self, part, max_steps, n):
        """The table's row for (part, max_steps, n), made on first use."""
        key = (part, max_steps, n)
        row = self.counts.get(key)
        if row is None:
            if len(self.counts) >= COUNT_TABLE_KEYS:
                del self.counts[next(iter(self.counts))]
            row = self.counts[key] = ([None] * len(self.stacks[n][0]), {})
        return row

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def build_corpus(spec):
    entries = []
    if spec.exhaustive_n:
        if spec.exhaustive_n > MAX_DEDUP_N:
            raise ResourceLimitError(f"exhaustive corpus capped at n <= {MAX_DEDUP_N} (dedup)")
        for n in range(1, spec.exhaustive_n + 1):
            for i, g in enumerate(enumerate_graphs(n, dedup=True)):
                entries.append((f"exhaustive-n{n}-{i}", g))
    for i in range(spec.gnp_count):
        g = gnp_graph(spec.gnp_n, spec.gnp_p, spec.gnp_seed, i)
        entries.append((f"gnp(n={spec.gnp_n},p={spec.gnp_p},seed={spec.gnp_seed},i={i})", g))
    if spec.include_constructions:
        red_line = red_line_graph(ProjectivePlaneSpec(5, 2), seed=1)
        entries.append(("red_line(p=5,k=2)", red_line.graph))
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
    results: list = field(default_factory=list)  # decided targets' tags, in corpus order
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

    def to_data(self):
        """The report's JSON fields."""
        return {
            "descriptor": self.descriptor,
            "num_targets": len(self.results) + len(self.skipped),
            "violations": self.violations,
            "skipped": self.skipped,
            "min_slack": self.min_slack,
            "ok": self.ok,
            "complete": not self.skipped,
        }

    def to_json(self):
        return json.dumps(self.to_data())


def _witness(target):
    if isinstance(target, SimpleGraph):
        return encode_graph(target, "graph6")
    return "weighted-target"


def _shown(x):
    """``frac_to_str(x)``, or for a rational too long for it a fixed text
    naming its sign and the bit lengths of its terms."""
    try:
        return frac_to_str(x)
    except HomdomError:
        return (f"elided {'negative' if x < 0 else 'positive'} rational: numerator of "
                f"{abs(x.numerator).bit_length()} bits, denominator of "
                f"{x.denominator.bit_length()} bits")


def _corpus_densities(pattern, corpus, max_steps, skip=frozenset()):
    """t(pattern, T) over the corpus as groups (corpus indices, counts,
    scale, stopped): T = entries[indices[j]] has density counts[j] / scale,
    and stopped maps a target's index to the ResourceLimitError that
    stopped it; a target in ``skip`` is in neither. A stacked order n is a
    group of scale n^v(pattern) whose counts multiply those of the distinct
    components, each counted under its own ``max_steps`` in one batch on its
    row's None targets (``Corpus.counts``), not where an earlier one was
    stopped; a connected pattern's counts are its row itself. Any other
    target is a group of one, from ``hom_density``."""
    parts = Counter(pattern.subgraph(c) for c in pattern.components())
    groups = []
    for n, (idx, adjs) in corpus.stacks.items():
        live = [j for j, i in enumerate(idx) if i not in skip] if skip else range(len(idx))
        rows, stopped = [], {}
        for part, k in parts.items():
            counts, failed = corpus.count_row(part, max_steps, n)
            if None in counts and (todo := [j for j in live if counts[j] is None]):
                stack = adjs if len(todo) == len(idx) else adjs[todo]
                for j, count in zip(todo, hom_counts(part, stack, max_steps=max_steps)):
                    if isinstance(count, ResourceLimitError):
                        failed[j], count = count, 0
                    counts[j] = count
            if failed:
                stopped.update((idx[j], failed[j]) for j in live if j in failed)
                live = [j for j in live if j not in failed]
            rows.append((counts, k))
        if len(live) < len(idx):
            idx, rows = [idx[j] for j in live], [([c[j] for j in live], k) for c, k in rows]
        rows = [c if k == 1 else [x ** k for x in c] for c, k in rows] or [[1] * len(idx)]
        totals = rows[0] if len(rows) == 1 else [math.prod(x) for x in zip(*rows)]
        groups.append((idx, totals, n ** pattern.n, stopped))
    for i in corpus.singles:
        group = ([], [], 1, {})
        try:
            if i not in skip:
                dens = [(hom_density(part, corpus.entries[i][1], max_steps), k)
                        for part, k in parts.items()]
                group = ([i], [math.prod(d.numerator ** k for d, k in dens)],
                         math.prod(d.denominator ** k for d, k in dens), {})
        except ResourceLimitError as exc:
            group = ([], [], 1, {i: exc})
        groups.append(group)
    return groups


def _paired(g, h, corpus, max_steps, skipped):
    """Per group, (corpus indices, G's counts, da, H's counts, db) on the
    targets both were counted on. Any other target goes into ``skipped``
    with its error's text: G's, as H is not counted where G was stopped."""
    g_groups = _corpus_densities(g, corpus, max_steps)
    skipped.update((i, str(exc)) for *_, stopped in g_groups for i, exc in stopped.items())
    h_groups = _corpus_densities(h, corpus, max_steps, skip=set(skipped))
    for (gi, ga, da, _), (hi, hb, db, stopped) in zip(g_groups, h_groups):
        skipped.update((i, str(exc)) for i, exc in stopped.items())
        if stopped:  # H stopped where G was counted
            ga = [a for i, a in zip(gi, ga) if i not in stopped]
        if hi:
            yield hi, ga, da, hb, db


def check_inequality(g, h, c, corpus, max_steps=2 * 10 ** 8):
    """Exact check of t(G,T) >= t(H,T)^c over every corpus target."""
    c = Fraction(c)
    if c < 0:
        raise GraphError(f"exponent c must be nonnegative, got {c}")
    p, q = c.numerator, c.denominator
    if max(p, q) > MAX_CROSS_POWER_BITS:  # da, db >= 2 on every target of 2+ vertices
        raise GraphError(f"exponent c passes the cross-power cap of {MAX_CROSS_POWER_BITS} bits")
    return _verdicts({
        "kind": "domination",
        "g": encode_graph(g, "graph6"),
        "h": encode_graph(h, "graph6"),
        "c": f"{p}/{q}",
    }, g, h, p, q, corpus, max_steps)


def _verdicts(descriptor, g, h, p, q, corpus, max_steps):
    """The report, under ``descriptor``, of t(G,T)^q >= t(H,T)^p, one group
    of ``_corpus_densities`` at a time: with t(G,T) = a/da, t(H,T) = b/db the
    slack is (a^q db^p - b^p da^q) / (da^q db^p), da^q and db^p are powered
    once per group (skipped past 2^MAX_CROSS_POWER_BITS), and a group's least
    slack is its first least numerator. Groups compare as exact rationals, a
    tie going to the lower corpus index; the lists are in corpus order."""
    skipped, found, least = {}, {}, None  # found: index -> (a, da, b, db)
    for idx, ga, da, hb, db in _paired(g, h, corpus, max_steps, skipped):
        if max(q * (da - 1).bit_length(), p * (db - 1).bit_length()) > MAX_CROSS_POWER_BITS:
            skipped.update(dict.fromkeys(idx, "cross-powers past the cap of "
                                              f"{MAX_CROSS_POWER_BITS} bits"))
            continue
        gs, hs = da ** q, db ** p
        nums = [a ** q * hs - b ** p * gs for a, b in zip(ga, hb)]
        if (low := min(nums)) < 0:
            found.update((idx[j], (ga[j], da, hb[j], db)) for j, x in enumerate(nums) if x < 0)
        j, den = nums.index(low), gs * hs
        if least is None or (low * least[1], idx[j]) < (least[0] * den, least[2]):
            least = (low, den, idx[j])
    entries = corpus.entries
    return VerificationReport(
        descriptor, [tag for i, (tag, _) in enumerate(entries) if i not in skipped],
        [{"target": entries[i][0], "witness": _witness(entries[i][1]),
          "t_g": _shown(Fraction(a, da)), "t_h": _shown(Fraction(b, db))}
         for i, (a, da, b, db) in sorted(found.items())],
        [{"target": entries[i][0], "reason": reason} for i, reason in sorted(skipped.items())],
        least and dict(target=entries[least[2]][0], slack=_shown(Fraction(*least[:2])),
                       witness=_witness(entries[least[2]][1])))


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
    C(G,H) >= log t(G,T) / log t(H,T). On the T of the largest float ratio
    (the earliest on a tie), the largest p/q <= it (nudged up by 2^-40, not
    to miss an exact rational ratio) with q <= HARVEST_MAX_DENOMINATOR is
    certified as a^q db^p <= b^p da^q; a p/q that fails the check gives
    way to the next smaller one."""
    best = None  # (ratio, -corpus index, a, da, b, db): the largest wins
    for idx, ga, da, hb, db in _paired(g, h, corpus, None, {}):
        log_da, log_db = math.log(da), math.log(db)
        ratios = [(math.log(a) - log_da) / (math.log(b) - log_db) if 0 < a < da and 0 < b < db
                  else -math.inf for a, b in zip(ga, hb)]
        j = ratios.index(top := max(ratios))
        if top > -math.inf and (best is None or (top, -idx[j]) > best[:2]):
            best = (top, -idx[j], ga[j], da, hb[j], db)
    if best is None:
        return None
    ratio, i, a, da, b, db = best
    x = Fraction(ratio * (1 + 2 ** -40))
    r = x.limit_denominator(HARVEST_MAX_DENOMINATOR)
    r = _farey_below(r) if r > x else r
    while r > 0:
        p, q = r.numerator, r.denominator
        if a ** q * db ** p <= b ** p * da ** q:
            return r, _witness(corpus.entries[-i][1])
        r = _farey_below(r)
    return None


# ---------------------------------------------------------------------------
# the open-problem inequality and the chorded-cycle identity
# ---------------------------------------------------------------------------

def problem6_exponents(i, j):
    """Integer exponents of t(C_2j)^2 t(C_{2i+1})^{2i-1-2j} >= t(C_{2i-1})^{2i+1-2j}."""
    if not i > j >= 1:
        raise GraphError("need i > j >= 1")
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
    """hom(C+_{2k+1}, T) = sum over ordered edges (u,v) of the numbers of u-v
    walks of length 2l times 2k+1-2l, both sides from one matrix of T."""
    if not k > ell >= 1:
        raise GraphError("need k > ell >= 1")
    adj = target.adjacency_matrix(np.float32)
    lhs = hom_counts(cycle_with_chord(k, ell), adj[None])[0]
    return lhs == WalkCounter(adj).edge_walks(2 * ell, 2 * k + 1 - 2 * ell)
