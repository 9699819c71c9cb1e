"""Command-line front end.

Subcommands: eval, support, props, check, convert, profile, image. Exit codes:
0 on success (including predicted counterexamples), 1 when a check finds a
counterexample where consistency was expected, 2 on usage or input errors,
3 on an internal error (a fault in this program; the traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

# Loaded for every command: main catches fileio's error and build_parser
# reads the check defaults from config. Each command imports the other
# layers it runs, so it loads no module it does not use.
from .algebra import HierarchyInconsistencyError, InfiniteCarrierError, Semantics, UnknownAlgebraError
from .fileio import (
    FileFormatError,
    automaton_to_dict,
    load_algebra,
    load_automaton,
    parse_word_input,
    save_automaton,
)
from .config import DEFAULT_TREE_ALPHABET, TheoremCheckConfig

USAGE_ERROR = 2
UNEXPECTED_COUNTEREXAMPLE = 1
INTERNAL_ERROR = 3

# The TheoremCheckConfig field each sweep option of ``check`` sets.
_SWEEP_FIELDS = {
    "--word-alphabet": "word_alphabet",
    "--tree-alphabet": "tree_alphabet",
    "--max-len": "max_word_len",
    "--max-size": "max_tree_size",
    "--trials": "num_automata",
    "--states": "max_states",
    "--seed": "seed",
}
# The sweep options each check would ignore: a support check reads one input
# kind, and an image check runs one fixed probe family.
_IGNORED = {
    "supports-words": ("--tree-alphabet", "--max-size"),
    "supports-trees": ("--word-alphabet", "--max-len"),
    "images-words": tuple(_SWEEP_FIELDS),
    "images-trees": tuple(_SWEEP_FIELDS),
}


def _parse_ranked_alphabet(text: str):
    from .trees import RankedAlphabet
    ranks = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"alphabet entry {part!r} must look like symbol:rank")
        sym, rank = part.split(":", 1)
        ranks[sym.strip()] = int(rank)
    return RankedAlphabet(ranks)


def _load_input(automaton, text: str):
    if automaton.kind == "tree":
        from .trees import parse
        return parse(text, automaton.alphabet)
    return parse_word_input(automaton, text)


def _module(automaton):
    """The semantics module that evaluates this automaton; the other one is
    not loaded."""
    if automaton.kind == "tree":
        from . import trees
        return trees
    from . import words
    return words


def _evaluate(automaton, inp, semantics: Semantics):
    return _module(automaton).evaluate(automaton, inp, semantics, prune=True)


def _emit(args, payload, text: str):
    if getattr(args, "format", "table") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_eval(args):
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    inp = _load_input(automaton, args.input)
    semantics = Semantics(args.semantics)
    value = _evaluate(automaton, inp, semantics)
    label = automaton.algebra.describe(value)
    _emit(args, {"semantics": semantics.value, "value": label}, label)
    return 0


def cmd_support(args):
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    inp = _load_input(automaton, args.input)
    semantics = Semantics(args.semantics)
    value = _evaluate(automaton, inp, semantics)
    member = not automaton.algebra.is_zero(value)
    _emit(
        args,
        {"semantics": semantics.value, "in_support": member,
         "value": automaton.algebra.describe(value)},
        "true" if member else "false",
    )
    return 0


def cmd_props(args):
    from .properties import classify
    alg = load_algebra(args.algebra, allow_invalid=args.allow_invalid)
    if not alg.is_finite:
        raise InfiniteCarrierError(
            f"property decision needs a finite algebra, {alg.name} is infinite"
        )
    report = classify(alg)
    _emit(args, report.to_dict(), str(report))
    return 0


def cmd_check(args):
    from .harness import check_image_theorem, check_support_theorem_trees, check_support_theorem_words
    alg = load_algebra(args.algebra, allow_invalid=args.allow_invalid)
    word_alphabet = tuple(args.word_alphabet.split(","))
    if not all(word_alphabet):
        raise ValueError(
            f"--word-alphabet {args.word_alphabet!r} has an empty symbol;"
            " give nonempty symbols separated by commas"
        )
    config = TheoremCheckConfig(
        algebra=alg,
        word_alphabet=word_alphabet,
        tree_alphabet=_parse_ranked_alphabet(args.tree_alphabet),
        max_word_len=args.max_len,
        max_tree_size=args.max_size,
        num_automata=args.trials,
        max_states=args.states,
        seed=args.seed,
    )
    default = TheoremCheckConfig(algebra=alg)
    ignored = [
        opt for opt in _IGNORED[args.target]
        if getattr(config, _SWEEP_FIELDS[opt]) != getattr(default, _SWEEP_FIELDS[opt])
    ]
    if ignored:
        raise ValueError(f"{args.target} does not take {', '.join(ignored)}")
    if args.target == "supports-words":
        report = check_support_theorem_words(config)
    elif args.target == "supports-trees":
        report = check_support_theorem_trees(config)
    else:
        report = check_image_theorem(alg, "words" if args.target == "images-words" else "trees")
    _emit(args, report.to_dict(), str(report))
    return 0 if report.as_predicted else UNEXPECTED_COUNTEREXAMPLE


def cmd_convert(args):
    from .bridge import string_wta_to_wsa, wsa_to_wta
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    if args.direction == "word-to-tree":
        if automaton.kind != "word":
            raise ValueError(f"{args.automaton} does not contain a word automaton")
        converted = wsa_to_wta(automaton, args.end_marker)
    else:
        if automaton.kind != "tree":
            raise ValueError(f"{args.automaton} does not contain a tree automaton")
        converted = string_wta_to_wsa(automaton)
    if args.output:
        save_automaton(converted, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(automaton_to_dict(converted), indent=2))
    return 0


def cmd_profile(args):
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    inp = _load_input(automaton, args.input)
    profile = _module(automaton).cost_profile(automaton, inp)
    _emit(args, profile.to_dict(), str(profile))
    return 0


def cmd_image(args):
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    alg = automaton.algebra
    mod = _module(automaton)
    if automaton.kind == "tree":
        bound, label = args.max_size, f"trees of size <= {args.max_size}"
        unused = args.max_len != TheoremCheckConfig.max_word_len and "--max-len"
    else:
        bound, label = args.max_len, f"words of length <= {args.max_len}"
        unused = args.max_size != TheoremCheckConfig.max_tree_size and "--max-size"
    if unused:
        raise ValueError(f"{unused} does not apply to a {type(automaton).__name__}")
    images = {
        sem.value: [alg.describe(v) for v in vals]
        for sem, vals in mod.images_up_to(automaton, bound).items()
    }
    text = "\n".join(
        f"{sem}: {{{', '.join(vals)}}}" for sem, vals in images.items()
    )
    _emit(args, {"inputs": label, "images": images}, f"images over {label}\n{text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimaut",
        description="Weighted word/tree automata over strong bimonoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, automaton=False, inp=False, emits=True):
        if emits:
            p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--allow-invalid", action="store_true",
                       help="load algebra tables even if the axioms fail")
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="builtin algebra name or algebra JSON file")
        if automaton:
            p.add_argument("--automaton", required=True, help="automaton JSON file")
        if inp:
            p.add_argument("--input", required=True,
                           help="word (symbol names or single-char string) or tree term")

    # check and image default to TheoremCheckConfig's field defaults, which
    # its class attributes hold
    def bounds(p):
        p.add_argument("--max-len", type=int, default=TheoremCheckConfig.max_word_len)
        p.add_argument("--max-size", type=int, default=TheoremCheckConfig.max_tree_size)

    p = sub.add_parser("eval", help="evaluate one semantics on one input")
    common(p, automaton=True, inp=True)
    p.add_argument("--semantics", choices=("run", "init"), default="init")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("support", help="decide support membership of one input")
    common(p, automaton=True, inp=True)
    p.add_argument("--semantics", choices=("run", "init"), default="init")
    p.set_defaults(fn=cmd_support)

    p = sub.add_parser("props", help="property report of a finite algebra")
    common(p, algebra=True)
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("check", help="run one theorem check")
    p.add_argument("target", choices=(
        "supports-words", "supports-trees", "images-words", "images-trees"))
    common(p, algebra=True)
    p.add_argument("--word-alphabet", default=",".join(TheoremCheckConfig.word_alphabet))
    p.add_argument("--tree-alphabet",
                   default=",".join(f"{s}:{k}" for s, k in DEFAULT_TREE_ALPHABET.items()))
    bounds(p)
    p.add_argument("--trials", type=int, default=TheoremCheckConfig.num_automata)
    p.add_argument("--states", type=int, default=TheoremCheckConfig.max_states)
    p.add_argument("--seed", type=int, default=TheoremCheckConfig.seed)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convert", help="convert between word and tree automata")
    common(p, automaton=True, emits=False)
    p.add_argument("--direction", choices=("word-to-tree", "tree-to-word"), required=True)
    p.add_argument("--end-marker", default="e")
    p.add_argument("--output", help="output JSON file (stdout when omitted)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("profile", help="operation counts of both semantics")
    common(p, automaton=True, inp=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("image", help="image sets of both semantics on bounded inputs")
    common(p, automaton=True)
    bounds(p)
    p.set_defaults(fn=cmd_image)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HierarchyInconsistencyError as exc:
        # reachable only for tables loaded with --allow-invalid: the hierarchy
        # implications presuppose the strong-bimonoid axioms
        print(f"error: {exc} (the loaded tables violate the axioms)", file=sys.stderr)
        return USAGE_ERROR
    except (FileFormatError, UnknownAlgebraError, InfiniteCarrierError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # anything else is a fault in this program, not in its input: keep
        # exit code 1 for unexpected counterexamples
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
