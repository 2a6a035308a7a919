import json
import time
from fractions import Fraction

import pytest

from homdom import cli
from homdom.cli import main, parse_corpus_spec, parse_graph_arg
from homdom.graphs import (complete_graph, cycle_graph, decode_graph, k4_minus_e, path_graph,
                           star_graph)
from homdom.homcount import hom_density


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestIsomorphismCost:
    # results as printed before isomorphic checked invariants first
    RESULTS = {
        ("P3", "C8"): {"lower": "1/2", "upper": "1/2", "exact": False, "provenance": [
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
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--g", "P5"])
        assert exc.value.code == 2
        assert "--h" in capsys.readouterr().err
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


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "C4", "--h", "K2",
                           "--c", "4", "--corpus-spec", "exhaustive_n=5")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["ok"] is True and doc["complete"] is True

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
    ])
    def test_bad_input_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n" and "Traceback" not in err

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
    ])
    def test_lp_file_wrong_type(self, capsys, tmp_path, text, message):
        f = tmp_path / "lp.json"
        f.write_text(text)
        code, out, err = run(capsys, "lp", "--file", str(f))
        assert code == 2 and out == ""
        assert err == f"error: LP JSON: {message}\n"

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMDOM_SEED", "abc")
        code, out, err = run(capsys, "exponent", "--g", "K2", "--h", "K3")
        assert code == 2 and out == ""
        assert err == "error: HOMDOM_SEED must be an integer, got 'abc'\n"


class TestConeCommand:
    def test_even(self, capsys):
        code, out, _ = run(capsys, "cone", "--even", "3")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["rays_ok"] is True and doc["equality"] is True

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
