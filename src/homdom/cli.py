"""Command-line front-end.

Thin adapters over the library modules: each ``cmd_`` verb returns plain
JSON data and an exit code, and ``main`` writes the one JSON document,
whose header records the full effective configuration, so identical
configurations reproduce identical output. Rationals print as "p/q".

``main`` reads argv against one verb table (``build_parser``, built once per
process): the global options come before the verb and the verb's own
options after it, each as ``--opt value`` or ``--opt=value``, spelled in
full. A usage error is a ``GraphError``, so it prints one ``error:`` line
and exits 2; ``-h``/``--help`` prints help made from the same table.

Exit codes: 0 success / no violations; 1 violation found; 2 a refusal of
the input: exactly a ``HomdomError`` or an ``OSError``; 3 requested exponent
does not exist; 4 verification had skipped targets (result incomplete); 5
any other exception, an internal error (a bug: the traceback goes to stderr),
a failed self-check's ``AssertionError`` among them. A closed stdout changes no code.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import types
from fractions import Fraction

from . import cones, constructions, formulas, ratlp, verifier
from .graphs import (Biadjacency, CliqueUnion, GraphError, HomdomError, SimpleGraph,
                     decode_graph, elide, encode_graph, from_shorthand)
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
    the inline text, is parsed by ``_parse_graph_text``; a non-JSON text with
    "/" or "." (no shorthand or graph6 character) must name a file."""
    if os.path.isfile(text):
        with open(text, errors="replace") as fh:  # a parser refuses what does not decode
            text = fh.read()
    elif not text.lstrip().startswith("{") and not {"/", "."}.isdisjoint(text):
        raise GraphError(f"no such file: {elide(text)}")
    return _parse_graph_text(text.strip())


# shorthand characters (C5+, K2,3, K4-e) that no graph6 string holds: graph6 uses chr(63)-chr(126)
SHORTHAND_ONLY = frozenset("0123456789,+-")


@functools.lru_cache(maxsize=256)
def _parse_graph_text(stripped):
    """The graph of a stripped text, remembered: equal text gives the same
    frozen ``SimpleGraph``, so the facts it caches (neighbour sets,
    components, bitmasks) are built once per distinct graph across
    in-process ``main`` calls. A refusal raises and is not remembered; a
    text that no graph6 string matches keeps the shorthand's refusal."""
    if stripped.startswith("{"):
        return decode_graph(stripped, "edge_json")
    try:
        return from_shorthand(stripped)
    except GraphError:
        if not SHORTHAND_ONLY.isdisjoint(stripped.removeprefix(">>graph6<<")):
            raise
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


# the spellings of the corpus spec's constructions flag
CORPUS_FLAGS = {"0": False, "1": True, "false": False, "true": True, "False": False, "True": True}


def _key_values(text, what):
    """The stripped pairs of key=value CSV as {key: value}, in order; a
    repeated key is refused, naming it."""
    pairs = {}
    for part in text.split(",") if text else ():
        key, _, val = part.partition("=")
        key = key.strip()
        if key in pairs:
            raise GraphError(f"{what} repeats key {key!r}")
        pairs[key] = val.strip()
    return pairs


def parse_corpus_spec(text):
    """key=value CSV, e.g. 'exhaustive_n=6,gnp_count=200,gnp_n=10,
    gnp_p=1/2,gnp_seed=7,constructions=1'."""
    kwargs = {}
    for key, val in _key_values(text, "corpus spec").items():
        if key in ("exhaustive_n", "gnp_count", "gnp_n", "gnp_seed"):
            kwargs[key] = _int(val, f"corpus spec {key}")
        elif key == "gnp_p":
            kwargs["gnp_p"] = parse_fraction(val)
        elif key == "constructions":
            if val not in CORPUS_FLAGS:
                raise GraphError(f"corpus spec constructions must be one of "
                                 f"{', '.join(CORPUS_FLAGS)}, got {val!r}")
            kwargs["include_constructions"] = CORPUS_FLAGS[val]
        else:
            raise GraphError(f"unknown corpus spec key {key!r}")
    return verifier.CorpusSpec(**kwargs)


def parse_params(text):
    """key=value CSV of integer family parameters, e.g. 'k=3,l=2,m=1'."""
    return {key: _int(val, f"parameter {key!r}")
            for key, val in _key_values(text, "parameter list").items()}


def _print(text):
    """Print to stdout. A reader that left early (``| head``) is no fault of
    the input: stdout goes to os.devnull, so the exit flush stays quiet."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(config, payload, out_path):
    """Print or write the config and a verb's plain-data result: the one JSON writer."""
    text = json.dumps({"config": config, "result": payload}, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        _print(text)


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

def cmd_exponent(args):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    bound = formulas.dispatch_exponent(g, h, harvest=args.harvest)
    return bound.to_data(), 0 if bound.exists else 3


def cmd_verify(args):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    corpus = verifier.build_corpus(parse_corpus_spec(args.corpus_spec))
    report = verifier.check_inequality(g, h, parse_fraction(args.c), corpus,
                                       max_steps=args.max_hom_steps)
    return report.to_data(), report.exit_code


def cmd_search_p6(args):
    corpus = verifier.build_corpus(parse_corpus_spec(args.corpus_spec))
    report = verifier.search_problem6(args.i, args.j, corpus, max_steps=args.max_hom_steps)
    return report.to_data(), report.exit_code


def cmd_construct(args):
    params = parse_params(args.params)
    fam = constructions.ScalingFamily(args.family, params, seed=args.seed)
    target = fam.build(args.size)
    if isinstance(target, (CliqueUnion, Biadjacency)):
        target = target.graph  # the payload encodes the expanded graph
    if args.emit and not isinstance(target, SimpleGraph):
        raise GraphError(f"--emit writes graph6; family {args.family!r} builds a weighted target")
    return ({"graph6": encode_graph(target, "graph6")} if args.emit else
            {"family": args.family, "params": params, "size": args.size,
             "seed": args.seed, "target": _target_payload(target)}), 0


def cmd_cone(args):
    if args.even is not None:
        cones.check_hull_dim(args.even)  # before the O(k^2) cone is built
        cone = cones.even_cycle_cone(args.even)
        equality = cones.cone_equals_hull(cone)
    else:
        cone = cones.all_cycle_cone(args.all, literal_text=args.literal_text)
        equality = "conjectured (hull-in-cone inclusion reported only)"
    # cone_equals_hull answers True only once every listed ray is in the cone
    rays_ok = equality is True or cones.verify_rays(cone)["all_member"]
    return {**cones.cone_to_data(cone), "rays_ok": rays_ok, "equality": equality}, 0


def cmd_lp(args):
    if args.kr is not None:
        problem = ratlp.kr_lp(args.kr)
    else:
        with open(args.file, errors="replace") as fh:
            problem = ratlp.lp_from_json(fh.read())
    payload = ratlp.solution_to_data(ratlp.solve_lp(problem))
    if args.kr is not None:
        payload["certificate_checked"] = ratlp.check_kr_certificate(args.kr, problem)
    return payload, 0


def cmd_estimate(args):
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    kind, _, params = args.family.partition(":")
    fam = constructions.ScalingFamily(kind, parse_params(params), seed=args.seed)
    sizes = [_int(s, "--sizes entry") for s in args.sizes.split(",")]
    result = constructions.estimate_ratio(g, h, fam, sizes, max_steps=args.max_hom_steps)
    return {
        "family": args.family,
        "ratios": [{"size": s, "ratio": r} for s, r in result["ratios"]],
        "extrapolated": result["extrapolated"],
        "monotone": result["monotone"],
    }, 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# an option maps to (dest, kind, default): an int kind is read by _int, a
# str kind is the text itself, and a bool kind is a flag that takes no value
GLOBAL_OPTIONS = {
    "--seed": ("seed", int, DEFAULT_SEED),
    "--max-hom-steps": ("max_hom_steps", int, 2 * 10 ** 8),
    "--out": ("out", str, ""),
}

OPTION_HELP = {
    "--max-hom-steps": "work ceiling of each exact hom count; it does not bound the "
                       "walk and Gram counts of cycles and K2 on targets of more than 64 vertices",
    "--emit": "graph6 only",
}

HELP_TOKENS = ("-h", "--help")


def build_parser():
    """The verb table: verb -> (help, {option: (dest, kind, default)},
    required options, exactly-one-of group); ``main`` runs its ``cmd_``."""
    graphs = {"--g": ("g", str, None), "--h": ("h", str, None)}
    corpus = {"--corpus-spec": ("corpus_spec", str, "exhaustive_n=5")}
    return {
        "exponent": ("best bound on C(G,H)",
                     {**graphs, "--harvest": ("harvest", bool, False)}, ("--g", "--h"), ()),
        "verify": ("check t(G,T) >= t(H,T)^c over a corpus",
                   {**graphs, "--c": ("c", str, None), **corpus}, ("--g", "--h", "--c"), ()),
        "search-p6": ("counterexample search for the odd/even cycle inequality",
                      {"--i": ("i", int, None), "--j": ("j", int, None), **corpus},
                      ("--i", "--j"), ()),
        "construct": ("instantiate a target family",
                      {"--family": ("family", str, None), "--params": ("params", str, ""),
                       "--size": ("size", int, None), "--emit": ("emit", bool, False)},
                      ("--family", "--size"), ()),
        "cone": ("cycle tropicalization cones",
                 {"--even": ("even", int, None), "--all": ("all", int, None),
                  "--literal-text": ("literal_text", bool, False)}, (), ("--even", "--all")),
        "lp": ("exact rational LP solve",
               {"--kr": ("kr", int, None), "--file": ("file", str, None)}, (), ("--kr", "--file")),
        "estimate": ("log-ratio estimates over a family",
                     {**graphs, "--family": ("family", str, None), "--sizes": ("sizes", str, None)},
                     ("--g", "--h", "--family", "--sizes"), ()),
    }


@functools.lru_cache(maxsize=None)
def _parser():
    """The verb table, built on the first main call and reused after it."""
    return build_parser()


def _read_options(argv, i, options, where):
    """The options given from argv[i] on, as {option: value}, and the index
    of the first token that is no option. Each option is ``--opt value`` or
    ``--opt=value``; the token after an option is its value, whatever it
    looks like, and a repeated option keeps its last value."""
    given = {}
    while i < len(argv) and argv[i].startswith("-") and argv[i] not in HELP_TOKENS:
        token = argv[i]
        name, eq, value = token.partition("=")
        if name not in options:
            if name in GLOBAL_OPTIONS:
                raise GraphError(f"{name} goes before the verb, not after it")
            raise GraphError(f"unknown option {token!r} {where}; "
                             f"the options are {', '.join(options)}")
        kind = options[name][1]
        if kind is bool:
            if eq:
                raise GraphError(f"{name} takes no value, got {token!r}")
            value = True
        elif not eq:
            i += 1
            if i == len(argv):
                raise GraphError(f"{name} needs a value")
            value = argv[i]
        given[name] = _int(value, name) if kind is int else value
        i += 1
    return given, i


def _help(table, verb=None):
    """The help text of homdom, or of one of its verbs, read from the table."""
    if verb is None:
        lines = ["usage: homdom [global options] VERB [options]", "",
                 "Homomorphism density domination exponents: formulas, constructions, "
                 "cones, LPs, and corpus verification.", "", "global options, before the verb:"]
        options, required, group = GLOBAL_OPTIONS, (), ()
    else:
        text, options, required, group = table[verb]
        lines = [f"usage: homdom [global options] {verb} [options]", "", text, "", "options:"]
    for opt, (dest, kind, default) in options.items():
        if opt in required:
            note = "required"
        elif opt in group:
            note = f"exactly one of {', '.join(group)}"
        else:
            note = OPTION_HELP.get(opt, "" if kind is bool else f"default {default!r}")
        lines.append(f"  {opt if kind is bool else f'{opt} {dest.upper()}':<32}{note}".rstrip())
    if verb is None:
        lines += ["", "verbs (homdom VERB --help lists a verb's options):"]
        lines += [f"  {name:<12}{entry[0]}" for name, entry in table.items()]
    return "\n".join(lines)


def _read_args(argv):
    """The parsed argv as a namespace, or the help text it asks for."""
    table = _parser()
    before, i = _read_options(argv, 0, GLOBAL_OPTIONS, "before the verb")
    if i < len(argv) and argv[i] in HELP_TOKENS:
        return _help(table)
    if i == len(argv) or argv[i] not in table:
        got = f"unknown verb {argv[i]!r}" if i < len(argv) else "missing verb"
        raise GraphError(f"{got}; the verbs are {', '.join(table)}")
    verb = argv[i]
    _, options, required, group = table[verb]
    after, i = _read_options(argv, i + 1, options, f"for {verb}")
    if i < len(argv):
        if argv[i] in HELP_TOKENS:
            return _help(table, verb)
        raise GraphError(f"unexpected argument {argv[i]!r} for {verb}")
    for opt in required:
        if opt not in after:
            raise GraphError(f"{verb} needs {opt}")
    if group and sum(opt in after for opt in group) != 1:
        raise GraphError(f"{verb} needs exactly one of {', '.join(group)}")
    args = types.SimpleNamespace(command=verb)
    for opts, given in ((GLOBAL_OPTIONS, before), (options, after)):
        for opt, (dest, _, default) in opts.items():
            setattr(args, dest, given.get(opt, default))
    return args


def main(argv=None):
    """Run the verb's ``cmd_``, looked up on the module now, and write its result."""
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            _print(args)
            return 0
        if args.max_hom_steps < 1:
            raise GraphError(f"--max-hom-steps must be at least 1, got {args.max_hom_steps}")
        args.seed = _effective_seed(args)
        config = {"command": args.command, "seed": args.seed,
                  "max_hom_steps": args.max_hom_steps, "out": args.out}
        payload, code = globals()["cmd_" + args.command.replace("-", "_")](args)
        _emit(config, payload, args.out)
        return code
    except (HomdomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        sys.__excepthook__(type(exc), exc, exc.__traceback__)  # the traceback, to stderr
        return 5


if __name__ == "__main__":
    sys.exit(main())
