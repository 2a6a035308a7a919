import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from homdom import cli
from homdom.cli import main, parse_corpus_spec, parse_fraction, parse_graph_arg
from homdom.graphs import (GraphError, complete_graph, cycle_graph, decode_graph, k4_minus_e,
                           path_graph, star_graph)
from homdom.homcount import hom_density
from homdom.verifier import CorpusSpec, build_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python_m(*argv):
    """``python -m homdom`` with argv, run on this checkout's source."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "homdom", *argv], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)


class TestParsing:
    def test_graph_arg_shorthand(self):
        assert parse_graph_arg("K4-e") == k4_minus_e()
        assert parse_graph_arg("C5") == cycle_graph(5)
        assert parse_graph_arg("P13") == path_graph(13)

    def test_graph_arg_json_and_graph6(self):
        assert parse_graph_arg('{"n":3,"edges":[[0,1],[1,2],[0,2]]}') == \
            complete_graph(3)
        assert parse_graph_arg("Bw") == complete_graph(3)

    def test_graph_arg_file(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n":2,"edges":[[0,1]]}')
        assert parse_graph_arg(str(f)) == complete_graph(2)

    def test_corpus_spec(self):
        spec = parse_corpus_spec("exhaustive_n=4,gnp_count=3,gnp_seed=11")
        assert spec.exhaustive_n == 4 and spec.gnp_count == 3
        assert spec.gnp_seed == 11
        with pytest.raises(Exception):
            parse_corpus_spec("bogus_key=1")

    @pytest.mark.parametrize("val, flag", [("0", False), ("1", True), ("false", False),
                                           ("true", True), ("False", False), ("True", True)])
    def test_corpus_spec_constructions_spellings(self, val, flag):
        assert parse_corpus_spec(f"constructions={val}").include_constructions is flag


class TestExponentCommand:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "exponent", "--g", "P5", "--h", "P13")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lower"] == "17/39"
        assert doc["result"]["exact"] is True
        assert doc["config"]["command"] == "exponent"

    def test_nonexistent_exit_3(self, capsys):
        code, out, _ = run(capsys, "exponent", "--g", "K3", "--h", "K2")
        assert code == 3
        assert json.loads(out)["result"]["lower"] == "nonexistent"

    def test_cliques_answer_quickly(self, capsys):
        # existence stops at the first of the 13! maps K12 -> K13
        start = time.perf_counter()
        code, out, _ = run(capsys, "exponent", "--g", "K12", "--h", "K13")
        assert time.perf_counter() - start < 10
        assert code == 0 and json.loads(out)["result"]["upper"] == "1"

    def test_missing_clique_exit_3(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "exponent", "--g", "K13", "--h", "K12")
        assert time.perf_counter() - start < 10
        assert code == 3 and json.loads(out)["result"]["lower"] == "nonexistent"

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "exponent", "--g", "C5", "--h", "C3")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["lower"] == "15/7" and doc["upper"] == "11/5"

    def test_long_even_cycle_union(self):
        # C802 + C4 against C4 is read off the 401 rays of even_cycle_cone(401);
        # as a cone LP it has 402 rows, past ratlp.MAX_LP_DIM
        g = json.dumps({"n": 806, "edges": [[i, (i + 1) % 802] for i in range(802)]
                        + [[802 + i, 802 + (i + 1) % 4] for i in range(4)]})
        proc = python_m("exponent", "--g", g, "--h", "C4")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["result"] == {
            "lower": "322001/1201", "upper": "322001/1201", "exact": True,
            "provenance": ["even-cycle-union-lp"]}


class TestIsomorphismCost:
    # results as printed when every isomorphism test reached the canonical
    # form; C(P3, C8) is exact because its bounds meet
    RESULTS = {
        ("P3", "C8"): {"lower": "1/2", "upper": "1/2", "exact": True, "provenance": [
            "simple-lower", "crude-upper", "subgraph-upper",
            "composition(path-formula*even-cycle-formula)",
            "composition(path-formula*kruskal-katona)",
            "composition(kruskal-katona*even-cycle-formula)"]},
        ("P7", "C3"): {"lower": "7/2", "upper": "48/13", "exact": False, "provenance": [
            "simple-lower", "crude-upper",
            "composition(path-formula*even-cycle-formula)",
            "composition(path-formula*p2-path-cover)",
            "composition(kruskal-katona*even-cycle-formula)"]},
    }

    def test_no_canonical_form_on_eight_vertices(self, capsys, monkeypatch):
        # the composition catalog holds C8 and P7; invariants must settle
        # every isomorphism test against them
        from homdom import graphs
        orders = []
        real = graphs.canonical_form

        def counted(g):
            orders.append(g.n)
            return real(g)

        monkeypatch.setattr(graphs, "canonical_form", counted)
        for (g, h), want in self.RESULTS.items():
            code, out, _ = run(capsys, "exponent", "--g", g, "--h", h)
            assert code == 0 and json.loads(out)["result"] == want
        assert 8 not in orders

    @pytest.mark.parametrize("g, h", [("P8", "C9"), ("P9", "C10"), ("C10", "P9"),
                                      ("P10", "C11"), ("P11", "C12"), ("C12", "P11")])
    def test_invariants_answer_past_the_cap(self, capsys, g, h):
        # different edge counts: no canonical form is needed above n = 8
        code, out, err = run(capsys, "exponent", "--g", g, "--h", h)
        assert code == 0 and err == "" and "lower" in json.loads(out)["result"]


class TestHarvest:
    def test_witness_certifies_the_bound(self, capsys):
        argv = ("exponent", "--harvest", "--g", "P3", "--h", "K1,4")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and run(capsys, *argv) == (code, out, "")
        result = json.loads(out)["result"]
        bound = Fraction(result["lower"])
        assert bound > Fraction(4, 5)
        [witness] = [p[len("harvested("):-1] for p in result["provenance"]
                     if p.startswith("harvested(")]
        t = decode_graph(witness, "graph6")
        tg, th = hom_density(path_graph(3), t), hom_density(star_graph(4), t)
        assert tg ** bound.denominator <= th ** bound.numerator


class TestParserReuse:
    """main builds its parser once; no call may see state from an earlier one."""

    def fresh(self, capsys, *argv):
        cli._parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize("first, second", [
        (("exponent", "--harvest", "--g", "C5", "--h", "C3"),
         ("exponent", "--g", "C5", "--h", "C3")),
        (("exponent", "--g", "C5", "--h", "C3"),
         ("exponent", "--harvest", "--g", "C5", "--h", "C3")),
        (("--seed", "5", "exponent", "--g", "P2", "--h", "P3"),
         ("exponent", "--g", "P2", "--h", "P3")),
        (("lp", "--kr", "2"), ("cone", "--even", "2")),
    ])
    def test_consecutive_calls(self, capsys, first, second):
        want = self.fresh(capsys, *second)
        run(capsys, *first)
        assert run(capsys, *second) == want

    def test_bad_argument_then_good(self, capsys):
        want = self.fresh(capsys, "exponent", "--g", "P5", "--h", "P13")
        code, out, err = run(capsys, "exponent", "--g", "P5")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--h" in err
        assert run(capsys, "exponent", "--g", "P5", "--h", "P13") == want

    def test_built_once(self, monkeypatch, capsys):
        cli._parser.cache_clear()
        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        for _ in range(3):
            run(capsys, "exponent", "--g", "P2", "--h", "P3")
        assert calls == [1]
        cli._parser.cache_clear()

    def test_handler_looked_up_at_call_time(self, monkeypatch, capsys):
        # main finds cmd_exponent on the module when it runs, so a wrapper
        # installed after the table was built is the one called
        run(capsys, "exponent", "--g", "P2", "--h", "P3")
        calls, real = [], cli.cmd_exponent
        monkeypatch.setattr(cli, "cmd_exponent", lambda args: calls.append(args.g) or real(args))
        want = run(capsys, "exponent", "--g", "P5", "--h", "P13")
        assert calls == ["P5"]
        monkeypatch.undo()
        assert run(capsys, "exponent", "--g", "P5", "--h", "P13") == want


VERB_OPTIONS = [  # each verb with values for its options; a None value marks a flag
    ("exponent", [("--g", "P5"), ("--h", "P13"), ("--harvest", None)]),
    ("verify", [("--g", "C4"), ("--h", "K2"), ("--c", "-1"),
                ("--corpus-spec", "gnp_count=1,gnp_p=1/2")]),
    ("search-p6", [("--i", "2"), ("--j", "-1"), ("--corpus-spec", "exhaustive_n=3")]),
    ("construct", [("--family", "path_blowup"), ("--params", "k=3,l=2,m=1"), ("--size", "10"),
                   ("--emit", None)]),
    ("cone", [("--even", "3"), ("--literal-text", None)]),
    ("cone", [("--all", "4")]),
    ("lp", [("--kr", "3")]),
    ("lp", [("--file", "--kr")]),
    ("estimate", [("--g", "K2"), ("--h", "--g=K3"), ("--family", "clique_plus_isolated"),
                  ("--sizes", "4,8")]),
]


def spaced(pairs):
    return [tok for opt, val in pairs for tok in ((opt,) if val is None else (opt, val))]


def joined(pairs):
    return [opt if val is None else f"{opt}={val}" for opt, val in pairs]


class TestArgumentReading:
    """main reads argv against one verb table; a usage error is one line."""

    @pytest.mark.parametrize("verb, pairs", VERB_OPTIONS)
    def test_any_order_either_form(self, verb, pairs):
        want = cli._read_args(["--seed", "3", verb, *spaced(pairs)])
        assert want.command == verb and want.seed == 3
        for opt, val in pairs:
            dest, kind, _ = cli.build_parser()[verb][1][opt]
            assert getattr(want, dest) == (True if val is None else kind(val))
        for argv in (["--seed=3", verb, *joined(pairs[::-1])],
                     ["--seed", "3", verb, *spaced(pairs[1::2] + pairs[::2])],
                     ["--seed", "9", "--seed", "3", verb,
                      *spaced([(o, "0") for o, v in pairs if v is not None] + pairs)]):
            assert vars(cli._read_args(argv)) == vars(want)

    def test_every_option_covered(self):
        for verb, entry in cli.build_parser().items():
            covered = {opt for v, pairs in VERB_OPTIONS if v == verb for opt, _ in pairs}
            assert covered == set(entry[1])

    def test_defaults(self):
        args = cli._read_args(["search-p6", "--i", "2", "--j", "1"])
        assert (args.seed, args.max_hom_steps, args.out) == (cli.DEFAULT_SEED, 2 * 10 ** 8, "")
        assert args.corpus_spec == "exhaustive_n=5"
        args = cli._read_args(["cone", "--all", "3"])
        assert (args.even, args.all, args.literal_text) == (None, 3, False)

    @pytest.mark.parametrize("argv, message", [
        ((), "missing verb"),
        (("--seed", "3"), "missing verb"),
        (("expo",), "unknown verb 'expo'"),
        (("--g", "P5", "exponent"), "unknown option '--g' before the verb"),
        (("-x", "lp", "--kr", "2"), "unknown option '-x' before the verb"),
        (("exponent", "--har", "--g", "P5", "--h", "P5"), "unknown option '--har' for exponent"),
        (("exponent", "--g=P5", "--x=1", "--h", "P5"), "unknown option '--x=1' for exponent"),
        (("lp", "--k", "2"), "unknown option '--k' for lp"),
        (("exponent", "--g", "P5", "--h"), "--h needs a value"),
        (("--seed",), "--seed needs a value"),
        (("exponent", "--g", "P5"), "exponent needs --h"),
        (("verify", "--g", "P5", "--h", "P3"), "verify needs --c"),
        (("construct", "--family", "behrend"), "construct needs --size"),
        (("estimate", "--g", "K2", "--h", "K3", "--family", "x"), "estimate needs --sizes"),
        (("cone",), "cone needs exactly one of --even, --all"),
        (("cone", "--even", "3", "--all", "4"), "cone needs exactly one of --even, --all"),
        (("lp",), "lp needs exactly one of --kr, --file"),
        (("lp", "--kr", "2", "--file", "x"), "lp needs exactly one of --kr, --file"),
        (("exponent", "--g", "P5", "--h", "P13", "--seed", "3"), "--seed goes before the verb"),
        (("lp", "--kr", "2", "--out=x"), "--out goes before the verb"),
        (("exponent", "--g", "P5", "--h", "P13", "P2"), "unexpected argument 'P2' for exponent"),
        (("construct", "--family", "behrend", "--size", "x"),
         "--size must be an integer, got 'x'"),
        (("search-p6", "--i", "two", "--j", "1"), "--i must be an integer, got 'two'"),
        (("lp", "--kr=2.5"), "--kr must be an integer, got '2.5'"),
        (("--max-hom-steps", "1e9", "lp", "--kr", "2"),
         "--max-hom-steps must be an integer, got '1e9'"),
        (("exponent", "--g", "P5", "--h", "P13", "--harvest=x"),
         "--harvest takes no value, got '--harvest=x'"),
        (("construct", "--family", "behrend", "--size", "30", "--emit="),
         "--emit takes no value, got '--emit='"),
    ])
    def test_refusal_is_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert message in err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help(self, capsys, flag):
        table = cli.build_parser()
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for name in (*table, *cli.GLOBAL_OPTIONS, "64 vertices"):
            assert name in out
        for verb, entry in table.items():
            code, out, err = run(capsys, "--seed", "1", verb, flag)
            assert (code, err) == (0, "")
            assert all(opt in out for opt in entry[1])


class TestGraphReuse:
    """Equal graph text parses to one graph object across main calls; a
    file is read again on every call, and a refusal is never remembered."""

    def test_equal_text_same_object(self):
        for text in ("C5", "Bw", '{"n":3,"edges":[[0,1],[1,2]]}'):
            assert parse_graph_arg(text) is parse_graph_arg(f"  {text}\n")
        assert parse_graph_arg("C5") is not parse_graph_arg("C6")

    def test_rewritten_file_parsed_again(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("C5\n")
        code, out, _ = run(capsys, "exponent", "--g", str(f), "--h", "K2")
        assert code == 3 and json.loads(out)["result"]["lower"] == "nonexistent"
        f.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
        code, out, _ = run(capsys, "exponent", "--g", str(f), "--h", "K2")
        assert code == 0 and json.loads(out)["result"]["lower"] == "2"  # C(P2, K2) = 2

    def test_refusal_not_remembered(self, capsys, tmp_path):
        for _ in range(3):
            code, out, err = run(capsys, "exponent", "--g", "C2x", "--h", "K2")
            assert (code, out) == (2, "") and "cannot parse graph shorthand" in err
        f = tmp_path / "g.txt"
        f.write_text("C2x")
        assert run(capsys, "exponent", "--g", str(f), "--h", "K2")[0] == 2
        f.write_text("C4")
        assert run(capsys, "exponent", "--g", str(f), "--h", "K2")[0] == 0


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "C4", "--h", "K2",
                           "--c", "4", "--corpus-spec", "exhaustive_n=5")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["ok"] is True and doc["complete"] is True

    def test_exhaustive_corpus_stops_at_seven(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "C4", "--h", "K2",
                           "--c", "4", "--corpus-spec", "exhaustive_n=7")
        assert code == 0 and json.loads(out)["result"]["num_targets"] == 1252
        code, out, err = run(capsys, "verify", "--g", "C4", "--h", "K2",
                             "--c", "4", "--corpus-spec", "exhaustive_n=8")
        assert (code, out) == (2, "") and "exhaustive corpus capped at n <= 7" in err

    def test_violation_exit_1(self, capsys):
        # the clique-plus-isolated-vertices targets in the constructions
        # corpus witness that c = 1/2 is too small for C(K_2, K_3)
        code, out, _ = run(capsys, "verify", "--g", "K2", "--h", "K3",
                           "--c", "1/2", "--corpus-spec", "constructions=1")
        assert code == 1
        doc = json.loads(out)["result"]
        assert doc["violations"]


class TestSearchP6Command:
    def test_no_counterexample(self, capsys):
        code, out, _ = run(capsys, "search-p6", "--i", "2", "--j", "1",
                           "--corpus-spec", "exhaustive_n=4")
        assert code == 0
        assert json.loads(out)["result"]["ok"] is True

    def test_step_ceiling_skips(self, capsys):
        code, out, _ = run(capsys, "--max-hom-steps", "10", "search-p6", "--i", "2",
                           "--j", "1", "--corpus-spec", "exhaustive_n=4")
        assert code == 4
        doc = json.loads(out)["result"]
        assert doc["skipped"] and doc["complete"] is False and doc["ok"] is True
        assert doc["skipped"][0]["reason"] == "hom counting work ceiling exceeded"
        assert doc["num_targets"] == 18


PROJECTIVE_5 = """{
  "config": {
    "command": "construct",
    "seed": 7,
    "max_hom_steps": 200000000,
    "out": ""
  },
  "result": {
    "family": "projective",
    "params": {
      "k": 2
    },
    "size": 5,
    "seed": 7,
    "target": {
      "format": "graph6",
      "graph": "^~}`O?OWDKCBOFNj_@}[uH?O??@`i@COAc[Q????SA_MVYWH?Q?dISh????@SidOXCu@_aG@CFo^???",
      "n": 31,
      "edges": 135
    }
  }
}
"""


class TestConstructCommand:
    def test_behrend(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "behrend",
                           "--size", "10")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["target"]["n"] == 60

    def test_weighted_family(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "path_blowup",
                           "--params", "k=1,l=1,m=1", "--size", "10")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["target"]["format"] == "weighted"
        assert doc["target"]["weights"] == ["1000", "10", "10", "1000"]

    def test_projective_prints_the_expanded_graph(self, capsys):
        # the red-line target is a clique union; its payload encodes the
        # expanded graph, byte for byte as when it was built edge by edge
        code, out, _ = run(capsys, "construct", "--family", "projective",
                           "--params", "k=2", "--size", "5")
        assert code == 0
        assert out == PROJECTIVE_5

    @pytest.mark.parametrize("argv, digest", [
        (("construct", "--family", "bipartite_power", "--params", "i=1", "--size", "5"),
         "4b364d5d530cf44eb73121a7b307f6b3b97d14820295f39aa05f1c4b7e57e0f6"),
        (("construct", "--family", "bipartite_power", "--params", "i=1", "--size", "5", "--emit"),
         "1c9cbdfdf1100835cfe2e77b0f8a763319cdb14bba0fea9141b85371a6ac2b90"),
        (("estimate", "--g", "C4", "--h", "K2", "--family", "bipartite_power:i=1",
          "--sizes", "5,8,10"),
         "b05b53805e124b2695cee579d63ed6d0d70d91ead92d26a65132cd89f1662c25"),
    ])
    def test_bipartite_power_output_pinned(self, capsys, argv, digest):
        # the random target is a biadjacency block; construct prints its
        # expanded graph, and both verbs print byte for byte what they did
        # when it was built edge by edge (sha256 of stdout)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "nope",
                           "--size", "4")
        assert code == 2 and "error" in err


class TestErrorExits:
    @pytest.mark.parametrize("argv, message", [
        (("lp", "--kr", "1"), "need i >= 2"),
        (("cone", "--even", "1"), "need k >= 2"),
        (("construct", "--family", "path_blowup", "--size", "10"),
         "family 'path_blowup' needs parameter(s) k, l, m"),
        (("verify", "--g", "C4", "--h", "K2", "--c", "-1"),
         "exponent c must be nonnegative, got -1"),
        (("verify", "--g", "C4", "--h", "K2", "--c", "1/0"),
         "zero denominator in '1/0'"),
        (("verify", "--g", "C4", "--h", "K2", "--c", "1",
          "--corpus-spec", "gnp_count=1,gnp_p=1/0"), "zero denominator in '1/0'"),
        (("exponent", "--g", '{"n":2,"edges":[[0,1.0]]}', "--h", "K3"),
         "bad edge [0, 1.0]"),
        (("exponent", "--g", '{"n":true,"edges":[]}', "--h", "K3"),
         "n must be an integer"),
        (("--max-hom-steps", "1000", "estimate", "--g", "K4", "--h", "K3",
          "--family", "projective:k=2", "--sizes", "11"), "hom counting work ceiling exceeded"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "exhaustive_n=-1"),
         "corpus spec exhaustive_n must be nonnegative, got -1"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "gnp_count=-3"),
         "corpus spec gnp_count must be nonnegative, got -3"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "gnp_count=1,gnp_n=-2"),
         "corpus spec gnp_n must be nonnegative, got -2"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "gnp_p=3/2"),
         "corpus spec gnp_p must lie in [0, 1], got 3/2"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "gnp_p=-1/2"),
         "corpus spec gnp_p must lie in [0, 1], got -1/2"),
        (("--max-hom-steps", "-1", "verify", "--g", "K2", "--h", "C3", "--c", "1",
          "--corpus-spec", "exhaustive_n=2"), "--max-hom-steps must be at least 1, got -1"),
        (("--max-hom-steps", "0", "exponent", "--g", "K2", "--h", "K3"),
         "--max-hom-steps must be at least 1, got 0"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "dedup=0"),
         "unknown corpus spec key 'dedup'"),
        (("cone", "--all", "100000"), "all-cycle cone capped at m=60, got 100000"),
        (("construct", "--family", "behrend", "--size", "100000000"),
         "behrend graph on 600000000 vertices exceeds the cap"),
        (("construct", "--family", "bipartite_power", "--params", "k=x", "--size", "3"),
         "parameter 'k' must be an integer, got 'x'"),
        (("estimate", "--g", "K2", "--h", "K3", "--family", "clique_plus_isolated",
          "--sizes", "4,x"), "--sizes entry must be an integer, got 'x'"),
        (("verify", "--g", "C4", "--h", "K2", "--c", "abc"), "not a rational number: 'abc'"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "gnp_n=x"),
         "corpus spec gnp_n must be an integer, got 'x'"),
        (("--seed", "-1", "exponent", "--g", "K2", "--h", "K3"),
         "--seed must be nonnegative, got -1"),
        (("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec",
          "gnp_count=1,gnp_seed=-1"), "corpus spec gnp_seed must be nonnegative, got -1"),
        (("search-p6", "--i", "1", "--j", "1"), "need i > j >= 1"),
        (("exponent", "--g", "Cx+", "--h", "K2"), "cannot parse graph shorthand 'Cx+'"),
        (("exponent", "--g", "C+", "--h", "K2"), "cannot parse graph shorthand 'C+'"),
        pytest.param(("exponent", "--g", "C" + "9" * 5000 + "+", "--h", "K2"),
                     f"cannot parse graph shorthand {'C' + '9' * 39!r}... (5002 chars)",
                     id="argv28-cannot parse a 5000-digit shorthand"),
        (("exponent", "--g", '{"n": 2, "edges": ' + "[" * 100000, "--h", "K2"),
         "malformed graph JSON: nested too deeply"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1", "--corpus-spec",
          "gnp_count=1,gnp_n=10000000000"), "corpus spec gnp_n capped at 2000, got 10000000000"),
        (("exponent", "--g", "", "--h", "K2"), "empty graph6 string"),
        (("exponent", "--g", "~~??", "--h", "K2"), "unsupported graph6 size form"),
        (("exponent", "--g", "C~~", "--h", "K2"), "graph6 body length mismatch"),
        (("exponent", "--g", "Ao", "--h", "K2"), "nonzero padding bits in graph6 input"),
        (("exponent", "--g", "{bad", "--h", "K2"), "malformed graph JSON: Expecting property "
         "name enclosed in double quotes: line 1 column 2 (char 1)"),
        (("exponent", "--g", '{"n": 2}', "--h", "K2"), "malformed graph JSON: 'edges'"),
        (("exponent", "--g", '{"n": 2, "edges": [[0, 1], [1, 0]]}', "--h", "K2"),
         "duplicate edge [1, 0]"),
        (("cone", "--all", "1"), "need m >= 2"),
        (("cone", "--even", "11"), "dimension cap for hull computation"),
        (("construct", "--family", "projective", "--params", "k=2", "--size", "4"),
         "4 is not prime"),
        (("construct", "--family", "projective", "--params", "k=1", "--size", "5"),
         "need k >= 2"),
        (("construct", "--family", "bipartite_power", "--params", "i=0", "--size", "5"),
         "need i >= 1 and n >= 2"),
        (("construct", "--family", "behrend", "--size", "2"), "need n >= 3"),
        (("construct", "--family", "two_cliques", "--size", "1"), "need n >= 2"),
        (("construct", "--family", "path_blowup", "--params", "k=3,l=2,m=1", "--size", "1"),
         "need scale n > 1"),
        (("construct", "--family", "path_blowup", "--params", "k=3,l=2,m=1", "--size", "10",
          "--emit"), "--emit writes graph6; family 'path_blowup' builds a weighted target"),
        (("construct", "--family", "two_cliques", "--params", "k=3", "--size", "4"),
         "family 'two_cliques' reads no parameter(s) k"),
        (("construct", "--family", "path_blowup", "--params", "k=3,l=2,m=1,seed=9", "--size",
          "10"), "family 'path_blowup' reads no parameter(s) seed"),
        (("estimate", "--g", "C4", "--h", "K2", "--family", "projective:k=2,p=7",
          "--sizes", "5"), "family 'projective' reads no parameter(s) p"),
        (("construct", "--family", "nope", "--params", "k=3", "--size", "4"),
         "unknown family kind 'nope'"),
        *[(("verify", "--g", "C4", "--h", "K2", "--c", "4", "--corpus-spec", spec),
           f"corpus spec constructions must be one of 0, 1, false, true, False, True, got {val!r}")
          for spec, val in [("constructions=no", "no"), ("constructions=off", "off"),
                            ("constructions=yes", "yes"), ("constructions=", ""),
                            ("exhaustive_n=2,constructions", "")]],
        (("verify", "--g", "C4", "--h", "K2", "--c", "4", "--corpus-spec", "gnp_count=2,gnp_n=0"),
         "corpus spec gnp_n must be positive when gnp_count > 0"),
        # a text with a digit, ",", "+" or "-" is no graph6 string: the
        # shorthand's own refusal is printed
        (("exponent", "--g", "S0", "--h", "K2"), "graph shorthand 'S0': star needs at least one leaf"),
        (("exponent", "--g", "K2,0", "--h", "K2"),
         "graph shorthand 'K2,0': parts must be nonempty"),
        (("exponent", "--g", "C3+", "--h", "K2"), "graph shorthand 'C3+': need k > l >= 1"),
        (("exponent", "--g", "K2", "--h", "K-1"), "graph shorthand 'K-1': negative order"),
        (("construct", "--family", "path_blowup", "--params", "k=1,l=1,m=1,k=2", "--size", "10"),
         "parameter list repeats key 'k'"),
        (("estimate", "--g", "C4", "--h", "K2", "--family", "projective:k=2, k=3",
          "--sizes", "5"), "parameter list repeats key 'k'"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1", "--corpus-spec",
          "exhaustive_n=2,exhaustive_n=3"), "corpus spec repeats key 'exhaustive_n'"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1", "--corpus-spec",
          "constructions=0,gnp_count=1,constructions=1"),
         "corpus spec repeats key 'constructions'"),
        (("construct", "--family", "projective", "--params", "k=2", "--size", "1"),
         "1 is not prime"),
    ])
    def test_bad_input_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n" and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--g", "K2", "--h", "K3", "--c", "1e-5000", "--corpus-spec",
          "exhaustive_n=2"), "rational '1e-5000' needs 4300 or more digits"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1e10000000", "--corpus-spec",
          "exhaustive_n=2"), "rational '1e10000000' needs 4300 or more digits"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1", "--corpus-spec",
          "gnp_count=1,gnp_p=1E-9_999"), "rational '1E-9_999' needs 4300 or more digits"),
    ])
    def test_decimal_exponent_refused_before_parsing(self, capsys, argv, message):
        # Fraction builds 10**exponent first (seconds at 1e10000000), and a
        # numerator or denominator past 4300 digits cannot be printed
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", [
        "K1000", "P10000000", "K5000", "K2,10001", "C" + "9" * 300 + "+",
        '{"n": 100000000, "edges": [[0, 1]]}',
        json.dumps({"n": 300, "edges": [[i, j] for i in range(201) for j in range(i)]}),
    ])
    def test_query_graph_past_the_caps_refused_before_building(self, capsys, text):
        start = time.perf_counter()
        code, out, err = run(capsys, "exponent", "--g", text, "--h", "K3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and err.count("\n") == 1 and len(err) < 150
        assert err.endswith("query graph capped at 2000 vertices, 20000 edges\n")

    def test_query_caps_admit_up_to_them(self):
        # K200 has 19900 edges and P1999 has 2000 vertices; one more is refused
        assert (parse_graph_arg("K200").num_edges, parse_graph_arg("P1999").n) == (19900, 2000)
        assert parse_graph_arg('{"n": 2000, "edges": []}').n == 2000
        for text in ("K201", "P2000", "S2000", "C2001", '{"n": 2001, "edges": []}'):
            with pytest.raises(GraphError, match="capped at 2000 vertices, 20000 edges"):
                parse_graph_arg(text)

    @pytest.mark.parametrize("text", ["nofile.txt", "graphs/c5.g6", "./K3", "x" + "/" * 5000])
    def test_missing_file_named_as_such(self, capsys, text):
        # "/" and "." are neither graph6 nor shorthand characters, so such a
        # text that names no file is a path, not a graph
        code, out, err = run(capsys, "exponent", "--g", text, "--h", "K2")
        assert (code, out) == (2, "") and err.startswith("error: no such file: ")
        assert err.count("\n") == 1 and len(err) < 100

    def test_long_shorthand_refusal_is_elided(self, capsys):
        code, out, err = run(capsys, "exponent", "--g", "C" + "9" * 5000 + "+", "--h", "K2")
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse graph shorthand {'C' + '9' * 39!r}... (5002 chars)\n"
        assert len(err) < 100

    @pytest.mark.parametrize("entry", ["1e5000", "1e10000000"])
    def test_lp_file_decimal_exponent(self, capsys, tmp_path, entry):
        f = tmp_path / "lp.json"
        f.write_text(json.dumps({"sense": "max", "objective": [entry], "rows": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "lp", "--file", str(f))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: LP JSON: key 'objective' holds {entry!r}, 4300+ digits\n"

    @pytest.mark.parametrize("c", ["1/100000000000", "100000000000", "131073/2"])
    def test_exponent_past_the_cross_power_cap(self, capsys, c):
        # da^q or db^p would have about q or p bits on every target of 2+ vertices
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--g", "K2", "--h", "K3", "--c", c,
                             "--corpus-spec", "exhaustive_n=3")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "error: exponent c passes the cross-power cap of "
                                           "131072 bits\n")

    def test_rational_too_long_to_print(self, capsys, tmp_path):
        # every entry is under the digit cap, but the optimum is 10^12000; and
        # the weights of a path blow-up at scale 10^1000 pass the cap
        f = tmp_path / "lp.json"
        f.write_text(json.dumps({"sense": "max", "objective": ["1e4000"], "rows": [
            {"coeffs": ["1e-4000"], "rel": "<=", "rhs": "1e4000"}]}))
        for argv in (("lp", "--file", str(f)),
                     ("construct", "--family", "path_blowup", "--params", "k=3,l=2,m=1",
                      "--size", "1" + "0" * 1000)):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert (code, out, err) == (2, "", "error: a rational of 4300 or more digits "
                                               "is not printed\n")

    def test_report_rational_too_long_is_elided(self, capsys):
        # the least slack on three G(9, 1/2) targets has about 30 000 digits;
        # the report shows it as a fixed text naming its sign and the bit
        # lengths of its terms, and the command exits with the report's code
        corpus = build_corpus(CorpusSpec(gnp_count=3, gnp_n=9))
        for g, h, code, sign in (("P2", "K3", 0, "positive"), ("K3", "K2", 1, "negative")):
            got, out, err = run(capsys, "verify", "--g", g, "--h", h, "--c", "13107/13106",
                                "--corpus-spec", "gnp_count=3,gnp_n=9")
            slacks = [hom_density(parse_graph_arg(g), t) ** 13106
                      - hom_density(parse_graph_arg(h), t) ** 13107 for _, t in corpus]
            least = min(slacks)
            assert max(abs(least.numerator), least.denominator) >= 10 ** 4299
            assert (got, err) == (code, "")
            assert json.loads(out)["result"]["min_slack"]["slack"] == (
                f"elided {sign} rational: numerator of {abs(least.numerator).bit_length()} "
                f"bits, denominator of {least.denominator.bit_length()} bits")
            assert json.loads(out)["result"]["min_slack"]["target"] == \
                corpus.entries[slacks.index(least)][0]

    def test_decimal_exponent_within_the_cap(self, capsys):
        # 1e-4298 has a 4299-digit denominator: it still prints
        assert parse_fraction("1e-4298") == Fraction(1, 10 ** 4298)
        assert parse_fraction(" 25E-2 ") == Fraction(1, 4)
        with pytest.raises(GraphError, match="4300 or more digits"):
            parse_fraction("0.5e-4298")

    def test_graph6_header_accepted(self, capsys):
        result = run(capsys, "exponent", "--g", ">>graph6<<A_", "--h", "K2")
        assert result[0] == 0 and result == run(capsys, "exponent", "--g", "K2", "--h", "K2")

    def test_internal_error_exit_5(self, capsys, monkeypatch):
        def broken(i):
            raise RuntimeError("broken solver")

        monkeypatch.setattr(cli.ratlp, "kr_lp", broken)
        code, out, err = run(capsys, "lp", "--kr", "3")
        assert code == 5 and out == ""
        assert err.startswith("internal error: RuntimeError('broken solver')\nTraceback")
        assert err.endswith("RuntimeError: broken solver\n")

    def test_internal_value_error_exit_5(self, capsys, monkeypatch):
        # a ValueError that no refusal of the input raised is a bug, not a
        # usage error: only HomdomError and OSError exit 2
        def broken(g, h, harvest=False):
            raise ValueError("broken dispatch")

        monkeypatch.setattr(cli.formulas, "dispatch_exponent", broken)
        code, out, err = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert code == 5 and out == ""
        assert err.startswith("internal error: ValueError('broken dispatch')\nTraceback")

    def test_failed_self_check_exit_5(self, capsys, monkeypatch):
        # an unsound rule crosses the bounds: a bug, reported as one
        monkeypatch.setattr(cli.formulas, "_crude_bound", lambda g, h: Fraction(1, 100))
        code, out, err = run(capsys, "exponent", "--g", "C5", "--h", "K3")
        assert code == 5 and out == ""
        assert err.startswith("internal error: AssertionError('crossed bounds 15/7 > 1/100')")

    @pytest.mark.parametrize("g, h, code, lower", [("K52", "K2", 3, "nonexistent"),
                                                   ("K52", "K60", 0, "13/15")])
    def test_pattern_wider_than_the_plan_labels(self, capsys, g, h, code, lower):
        # a step of K52's plan spans more vertices than einsum has labels;
        # the existence check answers without the plan
        got, out, err = run(capsys, "exponent", "--g", g, "--h", h)
        assert (got, err) == (code, "")
        assert json.loads(out)["result"]["lower"] == lower

    def test_python_dash_m(self):
        proc = python_m("lp", "--kr", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: need i >= 2\n")

    def test_closed_stdout(self):
        # the reader leaves after 10 bytes of a 3.2 MB document: the answer
        # was computed, so the verb's own exit code stands and stderr is empty
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen([sys.executable, "-m", "homdom", "cone", "--all", "60"], cwd=root,
                                env=dict(os.environ, PYTHONPATH=str(root / "src")),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{\n  "confi'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_out_write_error_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "--out", str(tmp_path), "lp", "--kr", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1

    def test_python_dash_m_help(self):
        proc = python_m("--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        for verb in ("exponent", "verify", "search-p6", "construct", "cone", "lp", "estimate"):
            assert f"\n  {verb} " in proc.stdout

    @pytest.mark.parametrize("argv", [("exponent", "--g", "P5"), ()])
    def test_python_dash_m_usage_error(self, argv):
        proc = python_m(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "usage:" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text, key", [
        ("{}", "sense"),
        ('{"sense": "max", "objective": [1], "rows": [{"coeffs": [1], "rhs": 1}]}', "rel"),
    ])
    def test_lp_file_missing_key(self, capsys, tmp_path, text, key):
        f = tmp_path / "lp.json"
        f.write_text(text)
        code, out, err = run(capsys, "lp", "--file", str(f))
        assert code == 2 and out == ""
        assert err == f"error: LP JSON: missing key {key!r}\n"

    @pytest.mark.parametrize("text, message", [
        ('{"sense": "max", "objective": [null], "rows": []}',
         "key 'objective' holds None, not a number"),
        ('{"sense": "max", "objective": [1], "rows": 5}', "key 'rows' must be a list, got 5"),
        ('{"sense": "max", "objective": [1], "rows": [{"coeffs": 1, "rel": "<=", "rhs": 1}]}',
         "key 'coeffs' must be a list, got 1"),
        ('{"sense": "max", "objective": [1], "rows": [{"coeffs": [1], "rel": "<=", "rhs": [1]}]}',
         "key 'rhs' holds [1], not a number"),
        ('{"sense": "max", "objective": [1], "rows": [], "nonneg": 5}',
         "key 'nonneg' must be a list, got 5"),
        ('{"sense": "max",', "Expecting property name enclosed in double quotes: "
                            "line 1 column 17 (char 16)"),
        pytest.param("[" * 100000, "nested too deeply", id="nested-too-deeply"),
        # a JSON boolean is no number, and a nonneg entry must be one
        ('{"sense": "max", "objective": [true], "rows": []}',
         "key 'objective' holds True, not a number"),
        ('{"sense": "max", "objective": [1], "rows": [{"coeffs": [false], "rel": "<=", '
         '"rhs": 1}]}',
         "key 'coeffs' holds False, not a number"),
        ('{"sense": "max", "objective": [1], "rows": [{"coeffs": [1], "rel": "<=", "rhs": true}]}',
         "key 'rhs' holds True, not a number"),
        ('{"sense": "max", "objective": [1], "rows": [], "nonneg": [1]}',
         "key 'nonneg' holds 1, not a boolean"),
        ('{"sense": "max", "objective": [1, 1], "rows": [], "nonneg": [true, "false"]}',
         "key 'nonneg' holds 'false', not a boolean"),
    ])
    def test_lp_file_wrong_type(self, capsys, tmp_path, text, message):
        f = tmp_path / "lp.json"
        f.write_text(text)
        code, out, err = run(capsys, "lp", "--file", str(f))
        assert code == 2 and out == ""
        assert err == f"error: LP JSON: {message}\n"

    LONG = "x" * 5000

    @pytest.mark.parametrize("argv, message", [
        (("exponent", "--g", '{"n": 2, "edges": [[0, 1' + ", 1" * 3000 + "]]}", "--h", "K2"),
         "bad edge [0, 1, 1, 1, 1"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1", "--corpus-spec", LONG + "=1"),
         "unknown corpus spec key 'xxx"),
        (("verify", "--g", "K2", "--h", "K3", "--c", LONG), "not a rational number: 'xxx"),
        (("verify", "--g", "K2", "--h", "K3", "--c", "1" * 5000),
         "not a rational number: '111"),
        (("construct", "--family", LONG, "--size", "4"), "unknown family kind 'xxx"),
        (("exponent", "--" + LONG, "--g", "K2", "--h", "K2"), "unknown option '--xxx"),
        (("--" + LONG, "exponent", "--g", "K2", "--h", "K2"), "unknown option '--xxx"),
        ((LONG,), "unknown verb 'xxx"),
        (("lp", "--kr", LONG), "--kr must be an integer, got 'xxx"),
        (("construct", "--family", "projective", "--params", "k=" + LONG, "--size", "5"),
         "parameter 'k' must be an integer, got 'xxx"),
        (("exponent", "--g", "K2", "--h", "K2", LONG), "unexpected argument 'xxx"),
        (("construct", "--family", "two_cliques", "--params", LONG + "=1", "--size", "4"),
         "family 'two_cliques' reads no parameter(s) 'xxx"),
        (("estimate", "--g", "C4", "--h", "K2", "--family", "two_cliques:" + LONG + "=1",
          "--sizes", "4"), "family 'two_cliques' reads no parameter(s) 'xxx"),
    ])
    def test_refusal_of_a_long_input_is_elided(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert len(err.rstrip("\n")) <= 120 and "chars)" in err

    @pytest.mark.parametrize("argv", [
        ("exponent", "--g", '{"n": 2, "edges": [[0, ' + "1" * 5000 + "]]}", "--h", "K2"),
        ("lp", "--file", "{lp}"),
    ])
    def test_integer_past_the_digit_limit_refused(self, capsys, tmp_path, argv):
        # json.loads refuses an integer of more than 4300 digits with a bare ValueError
        f = tmp_path / "lp.json"
        f.write_text('{"sense": "max", "objective": [' + "1" * 5000 + '], "rows": []}')
        code, out, err = run(capsys, *(a.replace("{lp}", str(f)) for a in argv))
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert "Exceeds the limit (4300 digits)" in err and "Traceback" not in err

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMDOM_SEED", "abc")
        code, out, err = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert code == 2 and out == ""
        assert err == "error: HOMDOM_SEED must be an integer, got 'abc'\n"

    def test_negative_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMDOM_SEED", "-5")
        code, out, err = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert (code, out, err) == (2, "", "error: HOMDOM_SEED must be nonnegative, got -5\n")


class TestJsonWriter:
    """main writes each document through one indented writer, whose text is
    exactly ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize("argv", [
        ("exponent", "--g", "C5", "--h", "K3"),
        ("exponent", "--g", "K3", "--h", "C4"),
        ("exponent", "--g", "P3", "--h", "C5", "--harvest"),
        ("verify", "--g", "K2", "--h", "C3", "--c", "1", "--corpus-spec", "exhaustive_n=3"),
        ("verify", "--g", "C4", "--h", "K2", "--c", "5", "--corpus-spec", "exhaustive_n=3"),
        ("search-p6", "--i", "2", "--j", "1", "--corpus-spec", "exhaustive_n=3"),
        ("construct", "--family", "projective", "--params", "k=2", "--size", "3"),
        ("construct", "--family", "behrend", "--size", "5", "--emit"),
        ("construct", "--family", "path_blowup", "--params", "k=3,l=2,m=1", "--size", "10"),
        ("cone", "--even", "3"),
        ("cone", "--all", "4"),
        ("lp", "--kr", "3"),
        ("lp", "--file", "{lp}"),
        ("estimate", "--g", "C4", "--h", "K2", "--family", "two_cliques", "--sizes", "4,5"),
    ])
    def test_every_verb_payload(self, capsys, monkeypatch, tmp_path, argv):
        f = tmp_path / "lp.json"
        f.write_text('{"sense": "min", "objective": ["1/2", 1], '
                     '"rows": [{"coeffs": [1, 1], "rel": ">=", "rhs": 1}]}')
        docs, real = [], cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda doc: docs.append(doc) or real(doc))
        main([a.replace("{lp}", str(f)) for a in argv])
        out, err = capsys.readouterr()
        assert err == "" and len(docs) == 1
        assert out == json.dumps(docs[0], indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}], {"x": [[], {}]}],
        {"nested": {"deeper": {"deepest": [1, [2, [3, ["four"]]]]}}},
        {"text": "h\u00e9llo \u2603 \ud83d\ude00 \"quoted\" \\ \n\t\x00", "\u00e9": "key"},
        {"floats": [0.1, 1e300, -0.0, float("inf"), float("-inf"), float("nan")]},
        [None, True, False, 0, -1, 10 ** 40, [None, [True, False]]],
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        "scalar", 7, None, False, 1.5,
    ])
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{"x": Fraction(1, 2)}, {(1, 2): 3}, [object()]])
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(doc)


class TestConeCommand:
    def test_even(self, capsys):
        code, out, _ = run(capsys, "cone", "--even", "3")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["rays_ok"] is True and doc["equality"] is True

    def test_even_checks_rays_once(self, capsys, monkeypatch):
        # the hull comparison answers True only after every ray passed, so
        # rays_ok reuses that answer
        from homdom import cones
        calls, real = [], cones.verify_rays
        monkeypatch.setattr(cones, "verify_rays", lambda cone: calls.append(cone) or real(cone))
        code, out, _ = run(capsys, "cone", "--even", "5")
        assert code == 0 and json.loads(out)["result"]["rays_ok"] is True
        assert len(calls) == 1

    def test_even_past_the_cap_refused_before_building(self, capsys, monkeypatch):
        from homdom import cones
        calls, real = [], cones.even_cycle_cone
        monkeypatch.setattr(cones, "even_cycle_cone", lambda k: calls.append(k) or real(k))
        code, out, err = run(capsys, "cone", "--even", "2000")
        assert (code, out, err) == (2, "", "error: dimension cap for hull computation\n")
        assert calls == []
        assert run(capsys, "cone", "--even", str(cones.MAX_HULL_DIM))[0] == 0
        assert calls == [cones.MAX_HULL_DIM]

    def test_all(self, capsys):
        code, out, _ = run(capsys, "cone", "--all", "3")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["rays_ok"] is True
        assert "conjectured" in doc["equality"]


class TestLpCommand:
    def test_kr(self, capsys):
        code, out, _ = run(capsys, "lp", "--kr", "3")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["optimum"] == "5" and doc["certificate_checked"] is True

    def test_file(self, capsys, tmp_path):
        from homdom.ratlp import kr_lp, lp_to_json
        f = tmp_path / "lp.json"
        f.write_text(lp_to_json(kr_lp(2)))
        code, out, _ = run(capsys, "lp", "--file", str(f))
        assert code == 0
        assert json.loads(out)["result"]["optimum"] == "3"


class TestEstimateCommand:
    def test_ratio(self, capsys):
        code, out, _ = run(capsys, "estimate", "--g", "K2", "--h", "K3",
                           "--family", "clique_plus_isolated",
                           "--sizes", "4,8,16")
        assert code == 0
        doc = json.loads(out)["result"]
        assert len(doc["ratios"]) == 3
        assert doc["monotone"] is True

    def test_large_target_any_pattern(self, capsys):
        # K4-e on the 133-vertex red-line target is counted by elimination
        code, out, _ = run(capsys, "estimate", "--g", "K4-e", "--h", "K3",
                           "--family", "projective:k=2", "--sizes", "11")
        assert code == 0
        ratio = json.loads(out)["result"]["ratios"][0]
        assert ratio["size"] == 11 and 1 < ratio["ratio"] < 2


class TestConfigPlumbing:
    def test_config_header(self, capsys):
        _, out, _ = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert list(json.loads(out)["config"]) == ["command", "seed", "max_hom_steps", "out"]

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMDOM_SEED", "123")
        _, out, _ = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert json.loads(out)["config"]["seed"] == 123

    def test_out_file(self, capsys, tmp_path):
        f = tmp_path / "result.json"
        code, out, _ = run(capsys, "--out", str(f), "exponent",
                           "--g", "P5", "--h", "P13")
        assert code == 0 and out == ""
        doc = json.loads(f.read_text())
        assert doc["result"]["lower"] == "17/39"

    def test_identical_config_identical_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--g", "C4", "--h", "K2",
                         "--c", "4", "--corpus-spec", "exhaustive_n=4,gnp_count=3")
        _, out2, _ = run(capsys, "verify", "--g", "C4", "--h", "K2",
                         "--c", "4", "--corpus-spec", "exhaustive_n=4,gnp_count=3")
        assert out1 == out2


def fresh_python(code, *argv):
    """The JSON document ``code`` prints, run in a new interpreter on this
    checkout's source."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyNumpy:
    # after each step: the exit code and the numpy submodules loaded; the
    # lazily bound numpy itself is in sys.modules from the import on
    STEPS = """
import contextlib, io, json, sys
import homdom, homdom.cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy."))
steps = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append([homdom.cli.main(argv), loaded()])
print(json.dumps(steps))
"""

    def test_small_queries_load_no_numpy(self):
        queries = [["exponent", "--g", "C5", "--h", "K3"], ["exponent", "--g", "K3", "--h", "C5"],
                   ["lp", "--kr", "5"], ["cone", "--even", "4"],
                   ["verify", "--g", "C4", "--h", "K2", "--c", "4"]]
        steps = fresh_python(self.STEPS, json.dumps(queries))
        assert steps[:-1] == [[None, []], [0, []], [3, []], [0, []], [0, []]]
        code, loaded = steps[-1]
        assert code == 0 and loaded  # verify counts with arrays, so numpy loads

    ORDERS = {
        "numpy-first": "import numpy\nbefore = numpy\nimport homdom.graphs as graphs\n",
        "homdom-first": "import homdom.graphs as graphs\nbefore = graphs.np\nimport numpy\n",
    }
    CHECK = """import json, sys
a = graphs.from_shorthand("K2").adjacency_matrix()
print(json.dumps([graphs.np is before is numpy, sys.modules["numpy"] is numpy,
                  any(m.startswith("numpy.") for m in sys.modules),
                  a.tolist(), a.dtype == numpy.int64]))
"""

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_one_numpy_in_either_import_order(self, order):
        # a numpy imported before homdom is kept, not replaced by a lazy one;
        # one imported after homdom (as perfbench/workloads.py does) is the
        # lazily bound module, loaded by that import
        assert fresh_python(self.ORDERS[order] + self.CHECK) == [
            True, True, True, [[0, 1], [1, 0]], True]
