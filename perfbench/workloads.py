"""The three workloads: inputs made from a seed, one round of operations,
the exact text of each output, and the checks run on a round's outputs.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations is the same in every run. Each operation is
a thunk that looks homdom functions up through module attributes when it
runs, so the tracer's wrappers are the ones called.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

import oracles
from homdom import cli, constructions, graphs, homcount, verifier


def _graph(n, edges):
    return graphs.SimpleGraph(n, frozenset(edges))


def _cycle(m):
    return tuple(sorted((min(i, (i + 1) % m), max(i, (i + 1) % m)) for i in range(m)))


def _path(m):
    return tuple((i, i + 1) for i in range(m))


def _adj(t):
    a = np.zeros((t.n, t.n), dtype=bool)
    for u, v in t.edges:
        a[u, v] = a[v, u] = True
    return a


class Workload:
    name = ""
    min_rounds = 1   # enough rounds for at least 40 operation samples per run

    def prepare(self, seed):
        raise NotImplementedError

    def round(self, inputs):
        """Yield (operation name, thunk)."""
        raise NotImplementedError

    def render(self, name, result):
        """The exact output of one operation as text (for the digest)."""
        raise NotImplementedError

    def failed(self, name, result):
        return False

    def check(self, inputs, outputs):
        """Problems found in one round's [(name, result)], as strings."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# corpus-verify: the criterion-9 corpus and its inequality families
# ---------------------------------------------------------------------------

FIXED_PAIRS = (
    ("C5>=C3^(11/5)", (5, _cycle(5)), (3, _cycle(3)), Fraction(11, 5)),
    ("C4>=C3^(8/5)", (4, _cycle(4)), (3, _cycle(3)), Fraction(8, 5)),
    ("K4-e>=K3^2", (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))), (3, _cycle(3)), Fraction(2)),
    ("paw>=K3^(3/2)", (4, ((0, 1), (0, 2), (0, 3), (1, 2))), (3, _cycle(3)), Fraction(3, 2)),
)
CORPUS_SAMPLE_PAIRS = 40


class CorpusVerify(Workload):
    name = "corpus-verify"
    min_rounds = 2

    def prepare(self, seed):
        spec = verifier.CorpusSpec(exhaustive_n=6, gnp_count=200, gnp_seed=seed)
        small = [(n, e) for n in range(2, 6) for e in oracles.graph_classes(n) if e]
        ineqs = [(label, g, h, c) for label, g, h, c in FIXED_PAIRS]
        for n, e in small:
            nu = oracles.fractional_matching_number(n, e)
            ineqs.append((f"edge-rule:{oracles.graph6(n, e)}", (2, ((0, 1),)), (n, e), 1 / nu))
        for n, e in small:
            if oracles.has_path_cover(n, e):
                ineqs.append((f"p2-rule:{oracles.graph6(n, e)}", (3, _path(2)), (n, e),
                              Fraction(3, n)))
        return {
            "seed": seed,
            "spec": spec,
            "ineqs": [(label, g, h, c, _graph(*g), _graph(*h)) for label, g, h, c in ineqs],
        }

    def round(self, inputs):
        box = {}

        def build():
            box["corpus"] = verifier.build_corpus(inputs["spec"])
            return box["corpus"]

        yield "build_corpus", build
        for label, _, _, c, g, h in inputs["ineqs"]:
            yield label, (lambda g=g, h=h, c=c: verifier.check_inequality(g, h, c, box["corpus"]))
        yield "search_problem6(2,1)", lambda: verifier.search_problem6(2, 1, box["corpus"])
        yield "check_eq_main(2,1)", lambda: [verifier.check_eq_main(2, 1, t)
                                             for _, t in box["corpus"]]

    def render(self, name, result):
        if name == "build_corpus":
            return "\n".join(f"{tag} {oracles.graph6(t.n, sorted(t.edges))}" for tag, t in result)
        if name == "check_eq_main(2,1)":
            return "".join("1" if ok else "0" for ok in result)
        return result.to_json()

    def check(self, inputs, outputs):
        problems = []
        out = dict(outputs)
        corpus = out["build_corpus"]
        targets = dict(corpus.entries)
        problems += _check_corpus(corpus)
        for label, g, h, c, _, _ in inputs["ineqs"]:
            rep = out[label]
            if not rep.ok or rep.skipped or len(rep.results) != len(corpus):
                problems.append(f"{label}: ok={rep.ok} skipped={len(rep.skipped)}")
                continue
            # recompute the reported minimum slack by brute force
            t = targets[rep.min_slack["target"]]
            a = _adj(t)
            tg = Fraction(oracles.brute_hom_count(*g, a), t.n ** g[0])
            th = Fraction(oracles.brute_hom_count(*h, a), t.n ** h[0])
            slack = tg ** c.denominator - th ** c.numerator
            if str(slack) != rep.min_slack["slack"]:
                problems.append(f"{label}: min slack {rep.min_slack['slack']} != {slack}")
        rep = out["search_problem6(2,1)"]
        if not rep.ok or rep.skipped or len(rep.results) != len(corpus):
            problems.append("search_problem6(2,1) found a violation or skipped targets")
        eq = out["check_eq_main(2,1)"]
        if len(eq) != len(corpus) or not all(eq):
            problems.append("check_eq_main(2,1) failed on some target")
        # hom counts on a seeded sample of (pattern, target) pairs
        rng = random.Random(inputs["seed"])
        patterns = sorted({p for _, g, h, _, _, _ in inputs["ineqs"] for p in (g, h)})
        for _ in range(CORPUS_SAMPLE_PAIRS):
            hn, he = rng.choice(patterns)
            tag, t = corpus.entries[rng.randrange(len(corpus))]
            got = homcount.hom_count(_graph(hn, he), t)
            want = oracles.brute_hom_count(hn, he, _adj(t))
            if got != want:
                problems.append(f"hom_count({oracles.graph6(hn, he)}, {tag}) = {got} != {want}")
        return problems


def _check_corpus(corpus):
    problems = []
    if len(corpus) != 408:
        problems.append(f"corpus has {len(corpus)} targets, expected 408")
    canon = oracles.CanonicalForms()
    by_n = {}
    for tag, t in corpus:
        if tag.startswith("exhaustive-"):
            by_n.setdefault(t.n, []).append(t)
        elif t.n != 10:
            problems.append(f"{tag} has {t.n} vertices")
    for n in range(1, 7):
        gs = by_n.get(n, [])
        forms = {canon(n, sorted(t.edges)) for t in gs}
        if len(gs) != oracles.A000088[n] or len(forms) != len(gs):
            problems.append(f"n={n}: {len(gs)} graphs, {len(forms)} classes, "
                            f"A000088 says {oracles.A000088[n]}")
    return problems


# ---------------------------------------------------------------------------
# family-estimates: log-ratio estimates over the scaling families
# ---------------------------------------------------------------------------

PROJECTIVE_P = (11, 17, 23, 31, 41)
BIPARTITE_N = (12, 16, 20, 24, 30)
PATH_BLOWUP_SIZES = (10 ** 2, 10 ** 4, 10 ** 6)
BEHREND_N = tuple(range(3, 11))
RATIO_RTOL = 1e-12


class FamilyEstimates(Workload):
    name = "family-estimates"
    min_rounds = 2

    def prepare(self, seed):
        return {
            "seed": seed,
            "c3": _graph(3, _cycle(3)), "c4": _graph(4, _cycle(4)),
            "p5": _graph(6, _path(5)), "p13": _graph(14, _path(13)),
            "k3": _graph(3, _cycle(3)),
            "k4e": _graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
            "projective": constructions.ScalingFamily("projective", {"k": 2}, seed=seed),
            "path_blowup": constructions.ScalingFamily("path_blowup", {"k": 3, "l": 2, "m": 1}),
            "behrend": constructions.ScalingFamily("behrend"),
        }

    def round(self, inputs):
        x = inputs
        for p in PROJECTIVE_P:
            yield f"projective:p={p}", (lambda p=p: constructions.estimate_ratio(
                x["c4"], x["c3"], x["projective"], [p]))
        for n in BIPARTITE_N:
            yield f"bipartite_power:n={n}", (lambda n=n: constructions.exponent_vector_estimate(
                constructions.bipartite_power_target(1, n, mode="random", seed=x["seed"]),
                [2, 4, 6], scale=n))
        for s in PATH_BLOWUP_SIZES:
            yield f"path_blowup:n={s}", (lambda s=s: constructions.estimate_ratio(
                x["p5"], x["p13"], x["path_blowup"], [s]))
        for n in BEHREND_N:
            yield f"behrend:n={n}", (lambda n=n: constructions.estimate_ratio(
                x["k4e"], x["k3"], x["behrend"], [n]))

    def render(self, name, result):
        if isinstance(result, dict):
            return json.dumps({"ratios": result["ratios"], "monotone": result["monotone"]})
        return json.dumps(result)

    def check(self, inputs, outputs):
        problems = []
        out = dict(outputs)

        def ratio_of(name):
            return out[name]["ratios"][0][1]

        def close(name, got, want):
            if not math.isclose(got, want, rel_tol=RATIO_RTOL):
                problems.append(f"{name}: {got!r} != {want!r}")

        for i, p in enumerate(PROJECTIVE_P):
            name = f"projective:p={p}"
            t = inputs["projective"].build(p)
            tr3, tr4 = _walk_traces_34(t)
            if i == 0:
                tr2x, tr3x, tr4x = oracles.codegree_walks(t.n, t.edges)
                if (tr2x, tr3x, tr4x) != (2 * t.num_edges, tr3, tr4):
                    problems.append(f"{name}: codegree recount {tr2x, tr3x, tr4x} disagrees")
            t3 = Fraction(tr3, t.n ** 3)
            t4 = Fraction(tr4, t.n ** 4)
            if not t4 ** 5 >= t3 ** 8:
                problems.append(f"{name}: t(C4)^5 < t(C3)^8")
            close(name, ratio_of(name), _log_ratio(t4, t3))
        for n in BIPARTITE_N:
            name = f"bipartite_power:n={n}"
            t = constructions.bipartite_power_target(1, n, mode="random", seed=inputs["seed"])
            part = t.n // 2
            rows, cols = zip(*((u, v - part) for u, v in t.edges))
            _, tr2, tr3 = oracles.even_walk_traces(
                oracles.square_codegrees(list(rows), list(cols), part, part))
            counts = (2 * t.num_edges, 2 * tr2, 2 * tr3)   # tr A^2, A^4, A^6
            ts = [Fraction(c, t.n ** m) for c, m in zip(counts, (2, 4, 6))]
            # the even-cycle cone rows: log-convexity, saturation, Sidorenko
            if not (ts[0] * ts[2] >= ts[1] ** 2 and ts[1] ** 6 >= ts[2] ** 4
                    and ts[2] >= ts[0] ** 6):
                problems.append(f"{name}: cycle densities leave the even-cycle cone")
            for got, tm in zip(out[name], ts):
                close(name, got, _log(tm) / math.log(n))
        for s in PATH_BLOWUP_SIZES:
            name = f"path_blowup:n={s}"
            w = inputs["path_blowup"].build(s)
            t5 = oracles.weighted_path_density(5, w.weights, w.density)
            t13 = oracles.weighted_path_density(13, w.weights, w.density)
            close(name, ratio_of(name), _log_ratio(t5, t13))
        errs = [abs(ratio_of(f"path_blowup:n={s}") - 17 / 39) for s in PATH_BLOWUP_SIZES]
        if not (errs[0] >= errs[1] >= errs[2] and errs[2] <= 0.02):
            problems.append(f"path_blowup ratios do not approach 17/39: {errs}")
        for n in BEHREND_N:
            name = f"behrend:n={n}"
            t = inputs["behrend"].build(n)
            tri = oracles.codegree_walks(t.n, t.edges)[1]
            k4e = oracles.k4e_hom_count(t.n, t.edges)
            if tri != k4e:
                problems.append(f"{name}: hom(K3) = {tri} but hom(K4-e) = {k4e}")
            close(name, ratio_of(name),
                  _log_ratio(Fraction(k4e, t.n ** 4), Fraction(tri, t.n ** 3)))
        return problems


def _log(x):
    return math.log(x.numerator) - math.log(x.denominator)


def _log_ratio(a, b):
    return _log(a) / _log(b)


def _walk_traces_34(t):
    """Exact tr A^3 and tr A^4 from an exact float32 codegree matrix."""
    rows, cols = zip(*(e for u, v in t.edges for e in ((u, v), (v, u))))
    a = np.zeros((t.n, t.n), dtype=np.float32)
    a[list(rows), list(cols)] = 1.0
    m = np.rint(a @ a).astype(np.int64)   # entries <= n < 2**24: exact
    tr3 = sum(int(r) for r in (m * a.astype(np.int64)).sum(axis=1))
    tr4 = sum(int(r) for r in (m * m).sum(axis=1))
    return tr3, tr4


# ---------------------------------------------------------------------------
# exponent-queries: the CLI run in-process
# ---------------------------------------------------------------------------

NAMED = tuple(f"P{k}" for k in range(1, 13)) + tuple(f"C{m}" for m in range(3, 13))
DIAGONAL_MAX_ORDER = 7
KNOWN_FAULT = (("P9", "P9"), ("C9", "C9"))
KNOWN_FAULT_TEXT = "canonical form capped at n=8"
KR_RANGE = tuple(range(2, 13))
CONE_RANGE = tuple(range(2, 9))


def _named(s):
    m = int(s[1:])
    return (m + 1, _path(m)) if s[0] == "P" else (m, _cycle(m))


def _order(s):
    return _named(s)[0]


class ExponentQueries(Workload):
    name = "exponent-queries"
    min_rounds = 1

    def prepare(self, seed):
        rng = random.Random(seed)
        classes = [(n, e) for n in range(2, 6) for e in oracles.graph_classes(n)
                   if oracles.is_connected(n, e)]
        text = []
        for n, e in classes:
            perm = list(range(n))
            rng.shuffle(perm)
            text.append(oracles.graph6(n, oracles.relabel(e, perm)))
        queries = []
        for i, gi in enumerate(classes):
            for j, hj in enumerate(classes):
                queries.append((f"exponent:c{i}:c{j}", gi, hj,
                                ["exponent", "--g", text[i], "--h", text[j]]))
        for a in NAMED:
            for b in NAMED:
                # paths with paths and cycles with cycles; the diagonal only
                # while the canonical form is cheap
                if a[0] == b[0] and (a != b or _order(a) <= DIAGONAL_MAX_ORDER):
                    queries.append((f"exponent:{a}:{b}", _named(a), _named(b),
                                    ["exponent", "--g", a, "--h", b]))
        for a, b in KNOWN_FAULT:
            queries.append((f"exponent:{a}:{b}", _named(a), _named(b),
                            ["exponent", "--g", a, "--h", b]))
        for i in KR_RANGE:
            queries.append((f"lp:kr={i}", i, None, ["lp", "--kr", str(i)]))
        for k in CONE_RANGE:
            queries.append((f"cone:even={k}", k, None, ["cone", "--even", str(k)]))
        return {"seed": seed, "queries": queries, "classes": classes}

    def round(self, inputs):
        for name, _, _, argv in inputs["queries"]:
            yield name, (lambda argv=argv: _run_cli(argv))

    def render(self, name, result):
        rc, out, err = result
        return f"{rc}\n{out}\n{err}"

    def failed(self, name, result):
        return result[0] == 2

    def check(self, inputs, outputs):
        problems = []
        known = {f"exponent:{a}:{b}" for a, b in KNOWN_FAULT}
        exists = {}
        nu = {}
        for (name, g, h, _), (_, (rc, out, err)) in zip(inputs["queries"], outputs):
            if name in known:
                if rc != 2 or KNOWN_FAULT_TEXT not in err:
                    problems.append(f"{name}: rc={rc} (the known fault changed)")
                continue
            if rc not in (0, 3):
                problems.append(f"{name}: rc={rc} {err.strip()}")
                continue
            res = json.loads(out)["result"]
            if name.startswith("lp:"):
                if res["status"] != "optimal" or Fraction(res["optimum"]) != 2 * g - 1 \
                        or res["certificate_checked"] is not True:
                    problems.append(f"{name}: {res.get('optimum')} != {2 * g - 1}")
                continue
            if name.startswith("cone:"):
                if res["equality"] is not True or res["rays_ok"] is not True:
                    problems.append(f"{name}: cone and hull differ")
                continue
            if (g, h) not in exists:
                exists[g, h] = oracles.hom_exists(g, h)
            if (rc == 0) != exists[g, h]:
                problems.append(f"{name}: rc={rc} but hom exists is {exists[g, h]}")
                continue
            if rc == 3:
                continue
            lower = Fraction(res["lower"])
            upper = None if res["upper"] == "unbounded" else Fraction(res["upper"])
            if upper is not None and lower > upper:
                problems.append(f"{name}: lower {lower} > upper {upper}")
            if res["exact"] and lower != upper:
                problems.append(f"{name}: exact but {lower} != {upper}")
            want = _expected_exponent(name, g, h, nu)
            if want is not None and not (res["exact"] and lower == want):
                problems.append(f"{name}: got {res['lower']}..{res['upper']}, want {want}")
        return problems


def _expected_exponent(name, g, h, nu):
    """A value the paper fixes: C(G,G) = 1, C(K2,H) = 1/nu*(H), paths."""
    if g == h:
        return Fraction(1)
    if g[0] == 2:
        if h not in nu:
            nu[h] = oracles.fractional_matching_number(*h)
        return 1 / nu[h]
    parts = name.split(":")
    if parts[1].startswith("P") and parts[2].startswith("P"):
        return oracles.path_exponent(int(parts[1][1:]), int(parts[2][1:]))
    return None


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (CorpusVerify(), FamilyEstimates(), ExponentQueries())}
