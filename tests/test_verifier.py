import functools
import json
import math
from fractions import Fraction

import pytest

from homdom.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    decode_graph,
    encode_graph,
    k4_minus_e,
    path_graph,
)
from homdom import homcount, verifier
from homdom.homcount import WALK_MIN_ORDER, WalkCounter, WeightedTarget, hom_count, hom_density
from homdom.constructions import simple_family
from homdom.formulas import odd_cycle_bounds, path_exponent
from homdom.verifier import (
    GNP_CONTRACT,
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
        doc = json.loads(report.to_json())
        assert doc["ok"] is True and doc["complete"] is True
        assert doc["num_targets"] == len(self.corpus)

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
    """results, violations and min_slack of t(G,T)^q >= t(H,T)^p with
    every density a Fraction and every slack t_g^q - t_h^p subtracted
    target by target; the first target of least slack wins."""
    p, q = c.numerator, c.denominator
    results, violations, least = [], [], None
    for tag, t in corpus:
        witness = encode_graph(t, "graph6") if isinstance(t, SimpleGraph) else "weighted-target"
        tg, th = hom_density(g, t), hom_density(h, t)
        slack = tg ** q - th ** p
        results.append({"target": tag, "verdict": "ok" if slack >= 0 else "violation"})
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
        got = _corpus_densities(union, corpus, None)
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
        [(a, d)] = _corpus_densities(union, Corpus((("w", w),)), None)
        assert Fraction(a, d) == self.product(w)
        assert hom_density(union, w) == self.product(w)

    def test_each_component_has_its_own_ceiling(self):
        # C_5 alone fits a ceiling of 400 on the 4-vertex targets; the
        # union's plan as one pattern would need twice that
        c5 = cycle_graph(5)
        corpus = build_corpus(CorpusSpec(exhaustive_n=4))
        report = check_inequality(disjoint_union(c5, c5), c5, 2, corpus, max_steps=400)
        assert not report.skipped and report.ok


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

    def test_farey_below_matches_fractions(self):
        limit = verifier.HARVEST_MAX_DENOMINATOR
        for r in [Fraction(1, 7), Fraction(2), Fraction(3601, 3600).limit_denominator(limit),
                  Fraction(1575, 1216), Fraction(355, 113), Fraction(1, limit), Fraction(17)]:
            want = max(Fraction((r * q).__ceil__() - 1, q) for q in range(1, limit + 1))
            assert verifier._farey_below(r) == want


def problem6_walk_oracle(i, j, corpus):
    """Per-target verdicts and the least slack (first target on ties) of
    the problem-6 inequality, from closed-walk counts tr(A^m)."""
    e1, e2, e3 = problem6_exponents(i, j)
    verdicts, least = [], None
    for tag, t in corpus:
        walks = WalkCounter(t.adjacency_matrix())
        c2j, c_hi, c_lo = (walks.closed(m) for m in (2 * j, 2 * i + 1, 2 * i - 1))
        slack = (Fraction(c2j ** e1 * c_hi ** e2, t.n ** (2 * j * e1 + (2 * i + 1) * e2))
                 - Fraction(c_lo ** e3, t.n ** ((2 * i - 1) * e3)))
        verdicts.append({"target": tag, "verdict": "ok" if slack >= 0 else "violation"})
        if least is None or slack < least[0]:
            least = (slack, tag, encode_graph(t, "graph6"))
    return verdicts, {"target": least[1], "slack": str(least[0]), "witness": least[2]}


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
            assert (report.results, report.min_slack) == problem6_walk_oracle(i, j, corpus)

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
        assert (report.results, report.min_slack) == problem6_walk_oracle(2, 1, corpus)

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
        assert report.results == [{"target": "w", "verdict": "ok"}]
        assert report.exit_code == 0 and report.min_slack["slack"] == "3/512"

    def test_each_pair_backtracked_once(self, monkeypatch):
        # the plans of C_5 on 3 and 4 vertices and of C_3 on 4 vertices
        # need more than 60 multiply-adds, so those targets are backtracked,
        # and the batch that trips the ceiling is not counted again
        calls = []

        def counted(h, adj, max_steps, first=False):
            calls.append((h, adj.tobytes()))
            return backtrack(h, adj, max_steps, first)

        backtrack = homcount._backtrack
        monkeypatch.setattr(homcount, "_backtrack", counted)
        report = search_problem6(2, 1, build_corpus(CorpusSpec(exhaustive_n=4)), max_steps=60)
        assert report.skipped and calls
        assert len(calls) == len(set(calls))

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

    def test_bad_params(self):
        with pytest.raises(ValueError):
            check_eq_main(1, 1, complete_graph(3))
