import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from homdom.graphs import (
    GraphError,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    decode_graph,
    encode_graph,
    enumerate_graphs,
    k4_minus_e,
    path_graph,
)
from homdom import homcount, verifier
from homdom.homcount import WALK_MIN_ORDER, WalkCounter, WeightedTarget, hom_count, hom_density
from homdom.constructions import simple_family
from homdom.formulas import fractional_matching, odd_cycle_bounds, path_exponent
from homdom.verifier import (
    GNP_CONTRACT,
    MAX_CROSS_POWER_BITS,
    Corpus,
    CorpusSpec,
    _corpus_densities,
    build_corpus,
    check_eq_main,
    check_inequality,
    gnp_graph,
    harvest_lower,
    problem6_exponents,
    search_problem6,
)


def per_target(groups, size):
    """``_corpus_densities``' groups as one entry per corpus target: the
    pair (count, scale), the error that stopped it, or None where it was
    skipped. Each index sits in one group, in ascending order."""
    out, seen = [None] * size, []
    for idx, counts, scale, stopped in groups:
        assert len(idx) == len(counts) and list(idx) == sorted(idx)
        assert all(isinstance(e, homcount.ResourceLimitError) for e in stopped.values())
        for i, count in zip(idx, counts):
            out[i] = (count, scale)
        for i, exc in stopped.items():
            out[i] = exc
        seen += [*idx, *stopped]
    assert len(seen) == len(set(seen))
    return out


class TestGnp:
    def test_contract_name(self):
        assert GNP_CONTRACT == "gnp-pcg64-v1"

    def test_reproducible(self):
        a = gnp_graph(12, Fraction(1, 2), seed=7, index=3)
        b = gnp_graph(12, Fraction(1, 2), seed=7, index=3)
        assert a == b
        assert a != gnp_graph(12, Fraction(1, 2), seed=7, index=4)
        assert a != gnp_graph(12, Fraction(1, 2), seed=8, index=3)

    def test_extremes(self):
        assert gnp_graph(6, 0, 1, 0).num_edges == 0
        assert gnp_graph(6, 1, 1, 0).num_edges == 15


class TestCorpus:
    def test_counts(self):
        corpus = build_corpus(CorpusSpec(exhaustive_n=4))
        # 1 + 2 + 4 + 11 deduplicated graphs on 1..4 vertices
        assert len(corpus) == 18
        corpus = build_corpus(CorpusSpec(exhaustive_n=3, gnp_count=5))
        assert len(corpus) == 7 + 5
        # A000088 for 1..7 vertices
        assert len(build_corpus(CorpusSpec(exhaustive_n=7))) == 1 + 2 + 4 + 11 + 34 + 156 + 1044

    def test_deterministic(self):
        spec = CorpusSpec(exhaustive_n=3, gnp_count=4, gnp_seed=9)
        a = build_corpus(spec)
        b = build_corpus(spec)
        assert [(t, g) for t, g in a] == [(t, g) for t, g in b]

    def test_cap(self):
        from homdom.homcount import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            build_corpus(CorpusSpec(exhaustive_n=8))

    def test_constructions_included(self):
        corpus = build_corpus(CorpusSpec(include_constructions=True))
        tags = [t for t, _ in corpus]
        assert "red_line(p=5,k=2)" in tags
        assert "behrend(30)" in tags
        assert "single_edge(8)" in tags

    def test_gnp_n_zero_refused_with_gnp_targets(self):
        with pytest.raises(GraphError, match="gnp_n must be positive when gnp_count > 0"):
            CorpusSpec(gnp_count=2, gnp_n=0)
        assert len(build_corpus(CorpusSpec(exhaustive_n=2, gnp_n=0))) == 3

    def test_constructions_distinct(self):
        targets = [t for _, t in build_corpus(CorpusSpec(include_constructions=True))]
        assert len(set(targets)) == len(targets)


class TestCheckInequality:
    def setup_method(self):
        self.corpus = build_corpus(CorpusSpec(exhaustive_n=5))

    def test_true_inequality_passes(self):
        c = path_exponent(5, 13)
        report = check_inequality(path_graph(5), path_graph(13), c, self.corpus)
        assert report.ok and report.exit_code == 0
        assert not report.skipped
        assert report.min_slack is not None

    def test_violation_found(self):
        # C(K_2, K_3) = 2/3, so c = 1/2 fails on K_n plus isolated vertices:
        # t(K_2)=1/25 < t(K_3)^(1/2) with t(K_3)=6/1000 at n=5... use exact
        target = simple_family("clique_plus_isolated", 5)
        corpus = Corpus((("witness", target),))
        report = check_inequality(complete_graph(2), complete_graph(3),
                                  Fraction(1, 2), corpus)
        assert not report.ok and report.exit_code == 1
        assert report.violations[0]["target"] == "witness"

    def test_sharp_constant_passes(self):
        # the exact exponent passes on the very family that witnesses it
        target = simple_family("clique_plus_isolated", 8)
        corpus = Corpus((("w", target),))
        report = check_inequality(complete_graph(2), complete_graph(3),
                                  Fraction(2, 3), corpus)
        assert report.ok

    def test_json_shape(self):
        report = check_inequality(cycle_graph(4), complete_graph(2),
                                  4, self.corpus)
        doc = report.to_data()
        assert doc["ok"] is True and doc["complete"] is True
        assert doc["num_targets"] == len(self.corpus)
        assert json.loads(report.to_json()) == doc

    def test_cross_powers_past_the_cap_skipped(self):
        # t(K2, T) = a / n^2 and t(K3, T) = b / n^3 with c = 1/q: at
        # q = cap/2, 4^q fits under 2^cap on 2 vertices and 9^q on 3 does not;
        # at q = cap/2 + 1 only K1 (da = db = 1) is checked
        corpus = build_corpus(CorpusSpec(exhaustive_n=3))
        reason = f"cross-powers past the cap of {MAX_CROSS_POWER_BITS} bits"
        for q, most in ((MAX_CROSS_POWER_BITS // 2, 2), (MAX_CROSS_POWER_BITS // 2 + 1, 1)):
            report = check_inequality(complete_graph(2), complete_graph(3), Fraction(1, q), corpus)
            tags = [tag for tag, t in corpus if t.n <= most]
            assert report.results == tags and report.ok
            assert report.skipped == [{"target": tag, "reason": reason}
                                      for tag, _ in corpus if tag not in tags]
            assert report.exit_code == 4

    def test_skip_policy(self):
        # K4 on a target past the work ceiling cannot be densified exactly:
        # skipped, exit code 4
        big = simple_family("two_cliques", 40)  # 80 vertices
        corpus = Corpus((("big", big),))
        report = check_inequality(complete_graph(4), complete_graph(2),
                                  1, corpus, max_steps=10)
        assert report.skipped and report.exit_code == 4
        # cycles and paths on more than 64 vertices are walk counts, which
        # the ceiling does not bound
        report = check_inequality(complete_graph(3), complete_graph(2),
                                  3, corpus, max_steps=10)
        assert not report.skipped and report.exit_code == 0


def fraction_oracle(g, h, c, corpus):
    """results (the decided tags), violations and min_slack of
    t(G,T)^q >= t(H,T)^p with every density a Fraction and every slack
    t_g^q - t_h^p subtracted target by target; the first target of least
    slack wins."""
    p, q = c.numerator, c.denominator
    results, violations, least = [], [], None
    for tag, t in corpus:
        witness = encode_graph(t, "graph6") if isinstance(t, SimpleGraph) else "weighted-target"
        tg, th = hom_density(g, t), hom_density(h, t)
        slack = tg ** q - th ** p
        results.append(tag)
        if slack < 0:
            violations.append({"target": tag, "witness": witness, "t_g": str(tg), "t_h": str(th)})
        if least is None or slack < least[0]:
            least = (slack, tag, witness)
    return results, violations, {"target": least[1], "slack": str(least[0]), "witness": least[2]}


class TestIntegerVerdicts:
    """check_inequality decides on integer counts what the Fraction
    formula decides, on stacked, weighted and large targets alike."""

    CORPUS = Corpus(
        build_corpus(CorpusSpec(exhaustive_n=4, gnp_count=6, gnp_n=6, gnp_seed=61)).entries
        + build_corpus(CorpusSpec(gnp_count=2, gnp_n=WALK_MIN_ORDER + 4,
                                  gnp_p=Fraction(1, 5), gnp_seed=62)).entries
        + (("w-half", WeightedTarget((Fraction(1),), ((Fraction(1, 2),),))),
           ("w-three", WeightedTarget((Fraction(1), Fraction(2), Fraction(3)),
                                      ((0, Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 3), 0),
                                       (1, 0, Fraction(2, 5)))))))

    CASES = [
        (complete_graph(2), complete_graph(3), Fraction(1)),
        (complete_graph(3), complete_graph(2), Fraction(1)),
        (complete_graph(2), complete_graph(3), Fraction(1, 2)),
        (cycle_graph(4), complete_graph(2), Fraction(4)),
        (path_graph(5), path_graph(13), path_exponent(5, 13)),
        (k4_minus_e(), complete_graph(3), Fraction(2)),
        (disjoint_union(cycle_graph(3), path_graph(2)), cycle_graph(5), Fraction(3, 2)),
        (complete_graph(2), cycle_graph(4), Fraction(0)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_fraction_oracle(self, case):
        g, h, c = self.CASES[case]
        report = check_inequality(g, h, c, self.CORPUS)
        assert not report.skipped
        want = fraction_oracle(g, h, c, self.CORPUS)
        assert (report.results, report.violations, report.min_slack) == want

    def test_cases_cover_violations_and_ties(self):
        # K3 vs K2 at c = 1 fails on every target with an edge; C4 vs K2 at
        # c = 4 is tight (slack 0) on the edgeless and regular targets, so the
        # least slack is tied and the first tied target must be reported
        violated = check_inequality(complete_graph(3), complete_graph(2), 1, self.CORPUS)
        assert violated.violations and violated.exit_code == 1
        tied = check_inequality(cycle_graph(4), complete_graph(2), 4, self.CORPUS)
        assert tied.min_slack["slack"] == "0"
        zero = [tag for tag, t in self.CORPUS
                if hom_density(cycle_graph(4), t) == hom_density(complete_graph(2), t) ** 4]
        assert len(zero) > 1 and tied.min_slack["target"] == zero[0]
        assert {t.n for _, t in self.CORPUS if isinstance(t, SimpleGraph)} >= {1, 4, 6,
                                                                              WALK_MIN_ORDER + 4}


def random_graph(rng, n, p):
    return SimpleGraph(n, frozenset(
        e for e in itertools.combinations(range(n), 2) if rng.random() < p))


def reference_density(pattern, target, max_steps):
    """(t(pattern, T), the verifier's denominator) from ``hom_density``
    component by component, raising the first component's error: the
    denominator is n^v(pattern) on a stacked target, else the product of
    the components' denominators."""
    density, den = Fraction(1), 1
    for part, k in Counter(pattern.subgraph(c) for c in pattern.components()).items():
        d = hom_density(part, target, max_steps=max_steps)
        density, den = density * d ** k, den * d.denominator ** k
    stacked = isinstance(target, SimpleGraph) and target.n <= WALK_MIN_ORDER
    return density, target.n ** pattern.n if stacked else den


def shown(x):
    """A report's text of the rational x: str(x), or the fixed text of one
    with a term of 4300 or more digits."""
    if max(abs(x.numerator), x.denominator) < 10 ** 4299:
        return str(x)
    return (f"elided {'negative' if x < 0 else 'positive'} rational: numerator of "
            f"{abs(x.numerator).bit_length()} bits, denominator of "
            f"{x.denominator.bit_length()} bits")


def reference_report(g, h, p, q, corpus, max_steps):
    """(results (the decided tags), violations, skipped, min_slack) of
    t(G,T)^q >= t(H,T)^p, target by target on Fractions: a target is skipped
    with the first error of G, then of H, or when da^q or db^p could pass
    the cap; the first target of least slack wins."""
    results, violations, skipped, least = [], [], [], None
    for tag, t in corpus:
        witness = encode_graph(t, "graph6") if isinstance(t, SimpleGraph) else "weighted-target"
        try:
            (tg, da), (th, db) = [reference_density(x, t, max_steps) for x in (g, h)]
        except homcount.ResourceLimitError as exc:
            skipped.append({"target": tag, "reason": str(exc)})
            continue
        if max(q * (da - 1).bit_length(), p * (db - 1).bit_length()) > MAX_CROSS_POWER_BITS:
            skipped.append({"target": tag, "reason": "cross-powers past the cap of "
                                                     f"{MAX_CROSS_POWER_BITS} bits"})
            continue
        slack = tg ** q - th ** p
        results.append(tag)
        if slack < 0:
            violations.append({"target": tag, "witness": witness, "t_g": shown(tg),
                               "t_h": shown(th)})
        if least is None or slack < least[0]:
            least = (slack, {"target": tag, "slack": shown(slack), "witness": witness})
    return results, violations, skipped, least and least[1]


class TestGroupedVerdicts:
    """``check_inequality`` and ``search_problem6`` decide one group of
    targets at a time; on seeded mixed corpora they agree with a target
    by target Fraction reference."""

    PIECES = [SimpleGraph(1), complete_graph(2), path_graph(2), cycle_graph(3), cycle_graph(4),
              cycle_graph(5), k4_minus_e()]
    # C4 >= K2^4 is tight on edgeless targets: the 3-vertex group is read
    # first and finds slack 0 at "e3", but "e70" and "e5" come before it
    TIE = (("p2", path_graph(2)), ("e70", SimpleGraph(70)), ("e5", SimpleGraph(5)),
           ("e3", SimpleGraph(3)))
    CAP = MAX_CROSS_POWER_BITS // 2 + 1

    def corpus(self, rng):
        entries = [(f"g{i}", random_graph(rng, rng.randint(1, 7), rng.random()))
                   for i in range(12)]
        extra = [("large", random_graph(rng, WALK_MIN_ORDER + 6, Fraction(1, 8))),
                 ("w", WeightedTarget((1, 2, 3, 4), [[Fraction(u + v, 8) for v in range(4)]
                                                     for u in range(4)])),
                 ("w-half", WeightedTarget((Fraction(1),), ((Fraction(1, 2),),))), *self.TIE]
        for entry in extra:
            entries.insert(rng.randint(0, len(entries)), entry)
        return Corpus(tuple(entries))

    def pattern(self, rng):
        return functools.reduce(disjoint_union, rng.choices(self.PIECES, k=rng.randint(1, 3)))

    def check(self, report, want):
        assert (report.results, report.violations, report.skipped, report.min_slack) == want
        return report

    def test_check_inequality_matches_reference(self):
        rng = random.Random(25)
        reports = []
        for _ in range(6):
            corpus = self.corpus(rng)
            for _ in range(8):
                g, h, steps = self.pattern(rng), self.pattern(rng), rng.choice((None, 60, 400))
                c = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(11, 5),
                                Fraction(1, self.CAP), Fraction(self.CAP)))
                want = reference_report(g, h, c.numerator, c.denominator, corpus, steps)
                reports.append(self.check(check_inequality(g, h, c, corpus, steps), want))
        reasons = {s["reason"] for r in reports for s in r.skipped}
        assert {"hom counting work ceiling exceeded", "weighted density elimination too large",
                f"cross-powers past the cap of {MAX_CROSS_POWER_BITS} bits"} <= reasons
        assert any(r.violations for r in reports) and any(r.ok and not r.skipped for r in reports)

    def test_search_problem6_matches_reference(self):
        rng = random.Random(26)
        for i, j in ((2, 1), (3, 1), (3, 2)):
            corpus = self.corpus(rng)
            e1, e2, e3 = problem6_exponents(i, j)
            g = disjoint_union(*[cycle_graph(2 * j)] * e1, *[cycle_graph(2 * i + 1)] * e2)
            h = disjoint_union(*[cycle_graph(2 * i - 1)] * e3)
            for steps in (None, 60):
                self.check(search_problem6(i, j, corpus, steps),
                           reference_report(g, h, 1, 1, corpus, steps))

    def test_h_stopped_between_counted_targets(self):
        # under a ceiling of 200, C5 is stopped on some targets with a
        # triangle and counted on others, K2 on all: G's counts are read
        # past the gaps, and t(K2) >= t(C5)^(1/5) fails on some
        corpus = build_corpus(CorpusSpec(exhaustive_n=5))
        c5, k2 = cycle_graph(5), complete_graph(2)
        report = self.check(check_inequality(k2, c5, Fraction(1, 5), corpus, 200),
                            reference_report(k2, c5, 1, 5, corpus, 200))
        stopped = [tag in {s["target"] for s in report.skipped} for tag, _ in corpus]
        assert stopped.index(True) < len(stopped) - 1 - stopped[::-1].index(False)
        assert report.violations

    @pytest.mark.parametrize("tags, first", [(("p2", "e70", "e5", "e3"), "e70"),
                                             (("p2", "e5", "e3"), "e5")])
    def test_least_slack_tie_goes_to_the_earlier_target(self, tags, first):
        corpus = Corpus(tuple(e for e in self.TIE if e[0] in tags))
        report = check_inequality(cycle_graph(4), complete_graph(2), 4, corpus)
        want = reference_report(cycle_graph(4), complete_graph(2), 4, 1, corpus, None)
        assert self.check(report, want).min_slack["target"] == first
        assert report.min_slack["slack"] == "0"


class TestDisjointUnions:
    """Densities multiply over disjoint unions, and the corpus checkers
    count each distinct component of a pattern once."""

    PARTS = (cycle_graph(3), cycle_graph(3), path_graph(2), cycle_graph(4), SimpleGraph(1))

    def product(self, target):
        out = Fraction(1)
        for part in self.PARTS:
            out *= hom_density(part, target)
        return out

    def test_simple_targets(self):
        # each target's pair (count, denominator) is exact: hom(union, T)
        # over n^v(union) for a stacked target, some pair of that value else
        union = functools.reduce(disjoint_union, self.PARTS)
        small = build_corpus(CorpusSpec(exhaustive_n=3, gnp_count=6, gnp_n=7, gnp_seed=51))
        large = build_corpus(CorpusSpec(gnp_count=2, gnp_n=WALK_MIN_ORDER + 4,
                                        gnp_p=Fraction(1, 5), gnp_seed=52))
        corpus = Corpus(small.entries + large.entries)
        want = [self.product(t) for _, t in corpus]
        got = per_target(_corpus_densities(union, corpus, None), len(corpus))
        assert [Fraction(a, d) for a, d in got] == want
        assert [hom_density(union, t) for _, t in corpus] == want
        for (_, t), pair in zip(corpus, got):
            if t.n <= WALK_MIN_ORDER:
                assert pair == (hom_count(union, t), t.n ** union.n)

    def test_weighted_target(self):
        union = functools.reduce(disjoint_union, self.PARTS)
        w = WeightedTarget((Fraction(1), Fraction(2), Fraction(3)),
                           ((0, Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 3), 0),
                            (1, 0, Fraction(2, 5))))
        [(idx, [a], d, stopped)] = _corpus_densities(union, Corpus((("w", w),)), None)
        assert idx == [0] and not stopped
        assert Fraction(a, d) == self.product(w)
        assert hom_density(union, w) == self.product(w)

    def test_each_component_has_its_own_ceiling(self):
        # C_5 alone fits a ceiling of 400 on the 4-vertex targets; the
        # union's plan as one pattern would need twice that
        c5 = cycle_graph(5)
        corpus = build_corpus(CorpusSpec(exhaustive_n=4))
        report = check_inequality(disjoint_union(c5, c5), c5, 2, corpus, max_steps=400)
        assert not report.skipped and report.ok


class TestCountTable:
    """``Corpus.counts`` keeps hom(component, T) per (component, max_steps,
    order), so a corpus counts no component twice on a target."""

    CONNECTED = [g for n in range(1, 5) for g in enumerate_graphs(n, dedup=True)
                 if g.is_connected()]

    def test_matches_fresh_corpus_and_oracle(self):
        rng = random.Random(20)
        entries = build_corpus(CorpusSpec(exhaustive_n=5, gnp_count=6, gnp_seed=21)).entries
        patterns = [functools.reduce(disjoint_union, rng.choices(self.CONNECTED, k=rng.randint(1, 3)))
                    for _ in range(10)]
        cases = [(p, steps, frozenset(rng.sample(range(len(entries)), 5)) if rng.random() < 0.3
                  else frozenset()) for p in patterns for steps in (None, 60, 2 * 10 ** 8)]
        rng.shuffle(cases)
        warm = Corpus(entries)

        def shown(xs):  # errors do not compare equal; their texts do
            return [str(x) if isinstance(x, homcount.ResourceLimitError) else x for x in xs]

        for pattern, steps, skip in cases:
            got = per_target(_corpus_densities(pattern, warm, steps, skip), len(entries))
            assert shown(got) == shown(per_target(
                _corpus_densities(pattern, Corpus(entries), steps, skip), len(entries)))
            for i, ((_, t), x) in enumerate(zip(entries, got)):
                if i in skip:
                    assert x is None
                elif not isinstance(x, homcount.ResourceLimitError):
                    assert Fraction(*x) == hom_density(pattern, t)
                else:
                    assert steps == 60  # no count stopped under 60 is reused under None
        rows = warm.counts.items()
        for (_, _, n), (counts, stopped) in rows:
            # a stopped target holds 0 in counts and its error in stopped
            assert len(counts) == len(warm.stacks[n][0])
            assert all(counts[j] == 0 and isinstance(e, homcount.ResourceLimitError)
                       for j, e in stopped.items())
        assert any(s == 60 and stopped for (_, s, _), (_, stopped) in rows)
        assert not any(stopped for (_, s, _), (_, stopped) in rows if s is None)

    def test_bounded_oldest_key_dropped_first(self, monkeypatch):
        monkeypatch.setattr(verifier, "COUNT_TABLE_KEYS", 4)
        corpus = build_corpus(CorpusSpec(exhaustive_n=3))  # orders 1, 2 and 3
        k2, p2 = complete_graph(2), path_graph(2)
        _corpus_densities(k2, corpus, None)
        assert list(corpus.counts) == [(k2, None, n) for n in (1, 2, 3)]
        got = per_target(_corpus_densities(p2, corpus, None), len(corpus))
        assert list(corpus.counts) == [(k2, None, 3)] + [(p2, None, n) for n in (1, 2, 3)]
        assert [Fraction(*x) for x in got] == [hom_density(p2, t) for _, t in corpus]
        for (_, _, n), (counts, stopped) in corpus.counts.items():
            assert len(counts) == len(corpus.stacks[n][0]) and None not in counts and not stopped
        # a dropped key is counted again, and gives the same densities
        assert [Fraction(*x) for x in per_target(_corpus_densities(k2, corpus, None),
                                                  len(corpus))] == \
            [hom_density(k2, t) for _, t in corpus]

    @staticmethod
    def recorded(monkeypatch):
        """The (component, max_steps, target) triples counted, one per target."""
        calls = []

        def counted(h, adjs, max_steps=None):
            calls.extend((h, max_steps, a.tobytes()) for a in adjs)
            return hom_counts(h, adjs, max_steps=max_steps)

        hom_counts = verifier.hom_counts
        monkeypatch.setattr(verifier, "hom_counts", counted)
        return calls

    def test_rules_count_each_part_once(self, monkeypatch):
        # the edge rule and then the P2 rule on the same H count H's
        # components once per order, and K2 and P2 once per target
        corpus = build_corpus(CorpusSpec(exhaustive_n=5))
        calls = self.recorded(monkeypatch)
        hs = [path_graph(4), cycle_graph(5), k4_minus_e(),
              disjoint_union(cycle_graph(3), path_graph(1)), disjoint_union(path_graph(2), path_graph(2))]
        for h in hs:
            assert check_inequality(complete_graph(2), h, 1 / fractional_matching(h), corpus).ok
            assert check_inequality(path_graph(2), h, Fraction(3, h.n), corpus).ok
        assert calls and len(calls) == len(set(calls))
        parts = {h.subgraph(c) for h in hs for c in h.components()}
        assert {h for h, _, _ in calls} == parts | {complete_graph(2), path_graph(2)}

    def test_problem6_counts_no_cycle_again(self, monkeypatch):
        corpus = build_corpus(CorpusSpec(exhaustive_n=5, gnp_count=8, gnp_seed=22))
        c3, c4, c5 = cycle_graph(3), cycle_graph(4), cycle_graph(5)
        check_inequality(c5, c3, Fraction(11, 5), corpus)
        check_inequality(c4, c3, Fraction(8, 5), corpus)
        calls = self.recorded(monkeypatch)
        report = search_problem6(2, 1, corpus)
        assert report.ok and not report.skipped
        # only C2 = K2 is new
        assert {h for h, _, _ in calls} == {cycle_graph(2)}
        assert len(calls) == len(set(calls)) == len(corpus)


class TestRatioCertifiedLower:
    """``harvest_lower`` on one-target corpora and on a small corpus."""

    def test_edge_vs_triangle(self):
        target = simple_family("clique_plus_isolated", 8)
        k2, k3 = complete_graph(2), complete_graph(3)
        bound, witness = harvest_lower(k2, k3, Corpus((("t", target),)))
        assert witness == encode_graph(target, "graph6")
        assert Fraction(1, 2) < bound <= Fraction(2, 3)
        # certified: t_g^q <= t_h^p exactly
        tg, th = hom_density(k2, target), hom_density(k3, target)
        assert tg ** bound.denominator <= th ** bound.numerator

    def test_degenerate_none(self):
        # t(K_3, C_4) = 0: no usable ratio
        assert harvest_lower(complete_graph(2), complete_graph(3),
                             Corpus((("c4", cycle_graph(4)),))) is None

    def test_exact_rational_ratio_is_kept(self):
        # on a regular target t(P2) = t(K2)^2, so the ratio is exactly 2 or 1/2
        corpus = Corpus((("c5", cycle_graph(5)),))
        assert harvest_lower(path_graph(2), path_graph(1), corpus)[0] == 2
        assert harvest_lower(path_graph(1), path_graph(2), corpus)[0] == Fraction(1, 2)

    def test_no_fraction_under_the_denominator_limit(self, monkeypatch):
        # t(K2, K4) = 3/4 and t(P3, K4) = 27/64, so the ratio is 1/3; with
        # denominators up to 2 no positive fraction lies at or below it
        monkeypatch.setattr(verifier, "HARVEST_MAX_DENOMINATOR", 2)
        corpus = Corpus((("k4", complete_graph(4)),))
        assert harvest_lower(complete_graph(2), path_graph(3), corpus) is None
        monkeypatch.setattr(verifier, "HARVEST_MAX_DENOMINATOR", 3)
        assert harvest_lower(complete_graph(2), path_graph(3), corpus)[0] == Fraction(1, 3)

    def test_largest_certified_fraction(self):
        # the bound certifies and the next fraction up (q <= 3600) does not
        corpus = build_corpus(CorpusSpec(exhaustive_n=5))
        limit = verifier.HARVEST_MAX_DENOMINATOR
        for g, h in [(path_graph(3), complete_graph(3)), (cycle_graph(5), complete_graph(3)),
                     (k4_minus_e(), cycle_graph(4))]:
            bound, witness = harvest_lower(g, h, corpus)
            t = decode_graph(witness, "graph6")
            tg, th = hom_density(g, t), hom_density(h, t)
            assert tg ** bound.denominator <= th ** bound.numerator
            above = min(Fraction(bound * q // 1 + 1, q) for q in range(1, limit + 1))
            assert tg ** above.denominator > th ** above.numerator

    def test_steps_down_past_a_float_overshoot(self, monkeypatch):
        # a float ratio pushed above the true one, by a log that reads
        # log hom(K2, T) low, starts above the bound: the exact check
        # rejects each fraction until it reaches the same bound
        g, h = complete_graph(2), complete_graph(3)
        corpus = Corpus((("t", simple_family("clique_plus_isolated", 8)),))
        want = harvest_lower(g, h, corpus)
        count, steps = hom_count(g, corpus.entries[0][1]), []
        real_below = verifier._farey_below

        def below(r):
            steps.append(r)
            return real_below(r)

        monkeypatch.setattr(verifier.math, "log", lambda x, log=math.log:
                            log(x) * (1 - 1e-6) if x == count else log(x))
        monkeypatch.setattr(verifier, "_farey_below", below)
        assert harvest_lower(g, h, corpus) == want
        assert len(steps) >= 2 and steps[-1] > want[0]

    def test_tie_goes_to_the_earliest_target(self):
        # a step graphon copy of K2 + K1 has the same pairs (count,
        # denominator) as K2 + K1, 2/9 for K2 and 2/27 for P2 in lowest
        # terms, so their ratios tie exactly; the graphon's group of one is
        # read after the stacked order 3 wherever it stands in the corpus
        t = SimpleGraph(3, frozenset({(0, 1)}))
        w = WeightedTarget((1, 1, 1), [[int({u, v} == {0, 1}) for v in range(3)]
                                       for u in range(3)])
        k2, p2 = complete_graph(2), path_graph(2)
        assert hom_density(k2, w) == hom_density(k2, t) == Fraction(2, 9)
        assert hom_density(p2, w) == hom_density(p2, t) == Fraction(2, 27)
        assert harvest_lower(k2, p2, Corpus((("w", w), ("t", t))))[1] == "weighted-target"
        assert harvest_lower(k2, p2, Corpus((("t", t), ("w", w))))[1] == encode_graph(t, "graph6")

    def test_farey_below_matches_fractions(self):
        limit = verifier.HARVEST_MAX_DENOMINATOR
        for r in [Fraction(1, 7), Fraction(2), Fraction(3601, 3600).limit_denominator(limit),
                  Fraction(1575, 1216), Fraction(355, 113), Fraction(1, limit), Fraction(17)]:
            want = max(Fraction((r * q).__ceil__() - 1, q) for q in range(1, limit + 1))
            assert verifier._farey_below(r) == want


def problem6_walk_oracle(i, j, corpus):
    """The decided tags, the violated tags and the least slack (first
    target on ties) of the problem-6 inequality, from closed-walk counts
    tr(A^m)."""
    e1, e2, e3 = problem6_exponents(i, j)
    tags, violated, least = [], [], None
    for tag, t in corpus:
        walks = WalkCounter(t.adjacency_matrix())
        c2j, c_hi, c_lo = (walks.closed(m) for m in (2 * j, 2 * i + 1, 2 * i - 1))
        slack = (Fraction(c2j ** e1 * c_hi ** e2, t.n ** (2 * j * e1 + (2 * i + 1) * e2))
                 - Fraction(c_lo ** e3, t.n ** ((2 * i - 1) * e3)))
        tags.append(tag)
        if slack < 0:
            violated.append(tag)
        if least is None or slack < least[0]:
            least = (slack, tag, encode_graph(t, "graph6"))
    return tags, violated, {"target": least[1], "slack": str(least[0]), "witness": least[2]}


def walk_checked(report):
    """What ``problem6_walk_oracle`` gives, as read from a report."""
    return report.results, [v["target"] for v in report.violations], report.min_slack


class TestProblem6:
    def test_exponents(self):
        assert problem6_exponents(2, 1) == (2, 1, 3)
        assert problem6_exponents(3, 1) == (2, 3, 5)
        assert problem6_exponents(3, 2) == (2, 1, 3)
        with pytest.raises(ValueError):
            problem6_exponents(1, 1)

    def test_search_no_counterexample_small(self):
        corpus = build_corpus(CorpusSpec(exhaustive_n=5))
        for i, j in ((2, 1), (3, 1), (3, 2)):
            report = search_problem6(i, j, corpus)
            assert report.ok, (i, j, report.violations)
            assert not report.skipped

    @pytest.mark.parametrize("i,j", [(2, 1), (3, 1), (3, 2)])
    def test_matches_walk_oracle(self, i, j):
        # dense G(8, 1/2) targets have a positive least slack; the sparser
        # mixed-order corpus has ties at zero, where the first target counts
        dense = build_corpus(CorpusSpec(gnp_count=20, gnp_n=8, gnp_seed=41))
        sparse = Corpus(build_corpus(CorpusSpec(exhaustive_n=3)).entries + build_corpus(
            CorpusSpec(gnp_count=20, gnp_n=6, gnp_p=Fraction(2, 5), gnp_seed=43)).entries)
        reports = [search_problem6(i, j, corpus) for corpus in (dense, sparse)]
        assert Fraction(reports[0].min_slack["slack"]) > 0
        for corpus, report in zip((dense, sparse), reports):
            assert not report.skipped
            assert walk_checked(report) == problem6_walk_oracle(i, j, corpus)

    def test_step_ceiling_skips(self):
        corpus = build_corpus(CorpusSpec(exhaustive_n=4))
        report = search_problem6(2, 1, corpus, max_steps=10)
        assert report.skipped and report.exit_code == 4
        assert len(report.results) + len(report.skipped) == len(corpus)
        assert {s["reason"] for s in report.skipped} == {"hom counting work ceiling exceeded"}

    def test_large_targets_counted_by_walks(self, monkeypatch):
        # targets of more than WALK_MIN_ORDER vertices are not stacked for
        # elimination: hom_density counts their cycles by walks, so a small
        # ceiling neither skips them nor sends them to the backtracker
        def no_backtrack(*args):
            raise AssertionError("backtracker called")

        monkeypatch.setattr(homcount, "_backtrack", no_backtrack)
        corpus = build_corpus(CorpusSpec(gnp_count=2, gnp_n=WALK_MIN_ORDER + 6, gnp_seed=5))
        report = search_problem6(2, 1, corpus, max_steps=10)
        assert not report.skipped
        assert walk_checked(report) == problem6_walk_oracle(2, 1, corpus)

    def test_exponents_vertex_balanced(self):
        # both sides have as many vertices, so the density and hom-number
        # forms of the inequality agree on every target
        for i in range(2, 13):
            for j in range(1, i):
                e1, e2, e3 = problem6_exponents(i, j)
                assert e1 * 2 * j + e2 * (2 * i + 1) == e3 * (2 * i - 1), (i, j)

    def test_weighted_targets_evaluated(self):
        # constant 1/2: t(C_2)^2 t(C_5) - t(C_3)^3 = 2^-7 - 2^-9
        w = WeightedTarget((Fraction(1),), ((Fraction(1, 2),),))
        report = search_problem6(2, 1, Corpus((("w", w),)))
        assert (report.results, report.violations) == (["w"], [])
        assert report.exit_code == 0 and report.min_slack["slack"] == "3/512"

    def test_each_pair_backtracked_once(self, monkeypatch):
        # the plans of C_5 on 3 and 4 vertices and of C_3 on 4 vertices
        # need more than 60 multiply-adds, so those targets are backtracked,
        # and the batch that trips the ceiling is not counted again; nor is
        # H = 3 C_3 counted on a target where G's C_5 tripped it (which
        # would make 26 calls)
        calls = []

        def counted(h, masks, max_steps, first=False):
            calls.append((h, masks))
            return backtrack(h, masks, max_steps, first)

        backtrack = homcount._backtrack
        monkeypatch.setattr(homcount, "_backtrack", counted)
        report = search_problem6(2, 1, build_corpus(CorpusSpec(exhaustive_n=4)), max_steps=60)
        assert report.skipped and calls
        assert len(calls) == len(set(calls)) == 22

    def test_later_components_skip_stopped_targets(self, monkeypatch):
        # C_5 trips a ceiling of 60 on some 4-vertex targets, and C_3 is
        # then not counted there (which would make 26 backtracker calls)
        calls = []

        def counted(h, masks, max_steps, first=False):
            calls.append(h)
            return backtrack(h, masks, max_steps, first)

        backtrack = homcount._backtrack
        monkeypatch.setattr(homcount, "_backtrack", counted)
        pattern = disjoint_union(cycle_graph(5), cycle_graph(3))
        corpus = build_corpus(CorpusSpec(exhaustive_n=4))
        got = per_target(_corpus_densities(pattern, corpus, 60), len(corpus))
        monkeypatch.undo()
        stopped = [isinstance(x, homcount.ResourceLimitError) for x in got]
        assert any(stopped) and len(calls) == 22
        assert [Fraction(*x) for x, s in zip(got, stopped) if not s] == \
            [hom_density(pattern, t) for (_, t), s in zip(corpus, stopped) if not s]

    def test_unions_not_encoded(self, monkeypatch):
        # at i = 40 both unions have 6241 vertices; the report names the
        # inequality, so only corpus targets (as witnesses) are encoded
        encoded = []

        def recording(g, fmt):
            encoded.append(g.n)
            return encode_graph(g, fmt)

        monkeypatch.setattr(verifier, "encode_graph", recording)
        report = search_problem6(40, 1, build_corpus(CorpusSpec(exhaustive_n=4)))
        assert report.descriptor["kind"] == "problem6" and report.min_slack
        assert encoded and max(encoded) <= 4


class TestChordedCycleIdentity:
    @pytest.mark.parametrize("k,ell", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_identity_on_cliques(self, k, ell):
        for n in (3, 4, 5):
            assert check_eq_main(k, ell, complete_graph(n))

    def test_identity_on_corpus(self):
        corpus = build_corpus(CorpusSpec(exhaustive_n=5))
        for tag, target in corpus:
            assert check_eq_main(2, 1, target), tag

    @pytest.mark.parametrize("n", [200, 251])
    def test_identity_past_float64(self, n):
        # on K200 and K251 the right side for C+_7 is about 1.2e16 and 6.1e16,
        # past 2^53, so edge_walks sums it in int64 (on K251 a float64 sum is
        # 22 off); both sides against Python-int closed forms
        k, ell = 3, 1

        def cycle(m):  # hom(C_m, K_n), the chromatic polynomial of C_m
            return (n - 1) ** m + (-1) ** m * (n - 1)

        def off(m):  # A^m[u, v] of K_n for u != v
            return ((n - 1) ** m - (-1) ** m) // n

        right = n * (n - 1) * off(2 * ell) * off(2 * k + 1 - 2 * ell)
        assert right > 2 ** 53
        # C+_7 is C3 and C6 glued along the chord
        assert cycle(2 * ell + 1) * cycle(2 * k - 2 * ell + 2) == n * (n - 1) * right
        t = complete_graph(n)
        assert WalkCounter(t.adjacency_matrix()).edge_walks(2 * ell, 2 * k + 1 - 2 * ell) == right
        assert check_eq_main(k, ell, t)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            check_eq_main(1, 1, complete_graph(3))
