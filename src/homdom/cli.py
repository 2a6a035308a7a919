"""Command-line front-end.

Thin adapters over the library modules. Every run prints a JSON document
whose header records the full effective configuration, so identical
configurations reproduce identical output. Rationals are printed as
"p/q" strings in machine output.

Exit codes: 0 success / no violations; 1 violation found; 2 a refusal of
the input: exactly a ``HomdomError`` or an ``OSError``; 3 requested exponent
does not exist; 4 verification had skipped targets (result incomplete); 5
any other exception, an internal error (a bug: the traceback goes to stderr),
a failed self-check's ``AssertionError`` among them.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import cones, constructions, formulas, ratlp, verifier
from .graphs import (Biadjacency, CliqueUnion, GraphError, HomdomError, SimpleGraph,
                     decode_graph, encode_graph, from_shorthand)
from .ratlp import MAX_RATIONAL_DIGITS, frac_to_str, rational_too_long

DEFAULT_SEED = 7


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"{what} must be an integer, got {text!r}") from None


def _effective_seed(args):
    env = os.environ.get("HOMDOM_SEED")
    name = "--seed" if env is None else "HOMDOM_SEED"
    seed = args.seed if env is None else _int(env, name)
    if seed < 0:
        raise GraphError(f"{name} must be nonnegative, got {seed}")
    return seed


def parse_graph_arg(text):
    """Named shorthand (K4-e, C5, P13, C5+, ...), a file path, inline JSON,
    or an inline graph6 string. A file is read on every call; its text, or
    the inline text, is parsed by ``_parse_graph_text``."""
    if os.path.isfile(text):
        with open(text, errors="replace") as fh:  # a parser refuses what does not decode
            text = fh.read()
    return _parse_graph_text(text.strip())


@functools.lru_cache(maxsize=256)
def _parse_graph_text(stripped):
    """The graph of a stripped text, remembered: equal text gives the same
    frozen ``SimpleGraph``, so the facts it caches (neighbour sets,
    components, bitmasks) are built once per distinct graph across
    in-process ``main`` calls. A refusal raises and is not remembered."""
    if stripped.startswith("{"):
        return decode_graph(stripped, "edge_json")
    try:
        return from_shorthand(stripped)
    except GraphError:
        pass
    return decode_graph(stripped, "graph6")


def parse_fraction(text):
    """A rational from "p/q" or decimal text."""
    if rational_too_long(text):
        raise GraphError(f"rational {text!r} needs {MAX_RATIONAL_DIGITS} or more digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise GraphError(f"zero denominator in {text!r}") from exc
    except ValueError:
        raise GraphError(f"not a rational number: {text!r}") from None


def parse_corpus_spec(text):
    """key=value CSV, e.g. 'exhaustive_n=6,gnp_count=200,gnp_n=10,
    gnp_p=1/2,gnp_seed=7,constructions=1'."""
    kwargs = {}
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            key, val = key.strip(), val.strip()
            if key in ("exhaustive_n", "gnp_count", "gnp_n", "gnp_seed"):
                kwargs[key] = _int(val, f"corpus spec {key}")
            elif key == "gnp_p":
                kwargs["gnp_p"] = parse_fraction(val)
            elif key == "constructions":
                kwargs["include_constructions"] = val not in ("0", "false", "False")
            else:
                raise GraphError(f"unknown corpus spec key {key!r}")
    return verifier.CorpusSpec(**kwargs)


def parse_params(text):
    out = {}
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            out[key.strip()] = _int(val, f"parameter {key.strip()!r}")
    return out


def _emit(config, payload, out_path):
    """Print or write the config and a verb's plain-data result: the one JSON writer."""
    doc = {"config": config, "result": payload}
    text = json.dumps(doc, indent=2, default=str)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _target_payload(target):
    if isinstance(target, SimpleGraph):
        return {"format": "graph6", "graph": encode_graph(target, "graph6"),
                "n": target.n, "edges": target.num_edges}
    return {
        "format": "weighted",
        "weights": [frac_to_str(w) for w in target.weights],
        "densities": [[frac_to_str(d) for d in row] for row in target.density],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exponent(args, config):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    bound = formulas.dispatch_exponent(g, h, harvest=args.harvest)
    _emit(config, bound.to_data(), args.out)
    return 0 if bound.exists else 3


def cmd_verify(args, config):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    corpus = verifier.build_corpus(parse_corpus_spec(args.corpus_spec))
    report = verifier.check_inequality(g, h, parse_fraction(args.c), corpus,
                                       max_steps=config["max_hom_steps"])
    _emit(config, report.to_data(), args.out)
    return report.exit_code


def cmd_search_p6(args, config):
    corpus = verifier.build_corpus(parse_corpus_spec(args.corpus_spec))
    report = verifier.search_problem6(args.i, args.j, corpus,
                                      max_steps=config["max_hom_steps"])
    _emit(config, report.to_data(), args.out)
    return report.exit_code


def cmd_construct(args, config):
    params = parse_params(args.params)
    fam = constructions.ScalingFamily(args.family, params, seed=config["seed"])
    target = fam.build(args.size)
    if isinstance(target, (CliqueUnion, Biadjacency)):
        target = target.graph  # the payload encodes the expanded graph
    if args.emit and not isinstance(target, SimpleGraph):
        raise GraphError(f"--emit writes graph6; family {args.family!r} builds a weighted target")
    payload = ({"graph6": encode_graph(target, "graph6")} if args.emit else
               {"family": args.family, "params": params, "size": args.size,
                "seed": config["seed"], "target": _target_payload(target)})
    _emit(config, payload, args.out)
    return 0


def cmd_cone(args, config):
    if args.even is not None:
        cone = cones.even_cycle_cone(args.even)
        equality = cones.cone_equals_hull(cone)
    else:
        cone = cones.all_cycle_cone(args.all, literal_text=args.literal_text)
        equality = "conjectured (hull-in-cone inclusion reported only)"
    # cone_equals_hull answers True only once every listed ray is in the cone
    rays_ok = equality is True or cones.verify_rays(cone)["all_member"]
    _emit(config, {**cones.cone_to_data(cone), "rays_ok": rays_ok, "equality": equality},
          args.out)
    return 0


def cmd_lp(args, config):
    if args.kr is not None:
        problem = ratlp.kr_lp(args.kr)
    else:
        with open(args.file, errors="replace") as fh:
            problem = ratlp.lp_from_json(fh.read())
    payload = ratlp.solution_to_data(ratlp.solve_lp(problem))
    if args.kr is not None:
        payload["certificate_checked"] = ratlp.check_kr_certificate(args.kr, problem)
    _emit(config, payload, args.out)
    return 0


def cmd_estimate(args, config):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    kind, _, params = args.family.partition(":")
    fam = constructions.ScalingFamily(kind, parse_params(params), seed=config["seed"])
    sizes = [_int(s, "--sizes entry") for s in args.sizes.split(",")]
    result = constructions.estimate_ratio(g, h, fam, sizes, max_steps=config["max_hom_steps"])
    payload = {
        "family": args.family,
        "ratios": [{"size": s, "ratio": r} for s, r in result["ratios"]],
        "extrapolated": result["extrapolated"],
        "monotone": result["monotone"],
    }
    _emit(config, payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="homdom",
        description="Homomorphism density domination exponents: formulas, "
                    "constructions, cones, LPs, and corpus verification.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--max-hom-steps", type=int, default=2 * 10 ** 8,
        help="work ceiling of each exact hom count; it does not bound the "
             "walk and Gram counts of cycles and K2 on targets of more than 64 vertices",
    )
    parser.add_argument("--out", default="")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="best bound on C(G,H)")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--harvest", action="store_true")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("verify", help="check t(G,T) >= t(H,T)^c over a corpus")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--corpus-spec", default="exhaustive_n=5")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-p6", help="counterexample search for the "
                                         "odd/even cycle inequality")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--corpus-spec", default="exhaustive_n=5")
    p.set_defaults(func=cmd_search_p6)

    p = sub.add_parser("construct", help="instantiate a target family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--emit", action="store_true", help="graph6 only")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("cone", help="cycle tropicalization cones")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--even", type=int)
    group.add_argument("--all", type=int)
    p.add_argument("--literal-text", action="store_true")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("lp", help="exact rational LP solve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kr", type=int)
    group.add_argument("--file")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("estimate", help="log-ratio estimates over a family")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True)
    p.set_defaults(func=cmd_estimate)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first main call and reused after it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.max_hom_steps < 1:
            raise GraphError(f"--max-hom-steps must be at least 1, got {args.max_hom_steps}")
        config = {"command": args.command, "seed": _effective_seed(args),
                  "max_hom_steps": args.max_hom_steps, "out": args.out}
        return args.func(args, config)
    except (HomdomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        sys.__excepthook__(type(exc), exc, exc.__traceback__)  # the traceback, to stderr
        return 5


if __name__ == "__main__":
    sys.exit(main())
