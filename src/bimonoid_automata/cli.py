"""Command-line front end.

Subcommands: eval, support, props, check, convert, profile, image. Exit codes:
0 on success (including predicted counterexamples), 1 when a check finds a
counterexample where consistency was expected, 2 on usage or input errors,
3 on an internal error (a fault in this program; the traceback goes to
stderr), 141 when the reader closes stdout early (128 + SIGPIPE, as a shell
reports a tool ended by a closed pipe; nothing goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Loaded for every command: main catches fileio's error and cmd_image reads
# its default bounds from config. Each command imports the other layers it
# runs, so it loads no module it does not use.
from .algebra import FiniteTableAlgebra, HierarchyInconsistencyError, Semantics, UnknownAlgebraError
from .algebra import validate_axioms
from .fileio import FileFormatError, automaton_to_dict, load_algebra, load_automaton, save_automaton
from .config import TheoremCheckConfig

USAGE_ERROR = 2
UNEXPECTED_COUNTEREXAMPLE = 1
INTERNAL_ERROR = 3
BROKEN_PIPE = 141
# A usage error's message is cut to this many characters: the loaders echo
# the offending value, which a malformed file can make thousands long.
_MESSAGE_LIMIT = 300


def _parse_word_alphabet(text: str) -> tuple:
    alphabet = tuple(part.strip() for part in text.split(","))
    if not all(alphabet):
        raise ValueError(f"--word-alphabet {text!r} has an empty symbol;"
                         " give nonempty symbols separated by commas")
    repeated = next((sym for i, sym in enumerate(alphabet) if sym in alphabet[:i]), None)
    if repeated is not None:
        raise ValueError(f"--word-alphabet {text!r} repeats the symbol {repeated!r}")
    return alphabet


def _parse_ranked_alphabet(text: str):
    from .trees import RankedAlphabet
    ranks = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"--tree-alphabet {text!r} has an empty entry; give symbol:rank entries"
                             " separated by commas")
        if ":" not in part:
            raise ValueError(f"alphabet entry {part!r} must look like symbol:rank")
        sym, rank = (x.strip() for x in part.split(":", 1))
        if sym in ranks:
            raise ValueError(f"--tree-alphabet {text!r} repeats the symbol {sym!r}")
        try:
            ranks[sym] = int(rank)
        except ValueError:
            raise ValueError(f"--tree-alphabet {text!r} has the entry {part!r}, whose rank is not"
                             " a natural number") from None
    return RankedAlphabet(ranks)


def _module(automaton):
    """The module that reads inputs for this automaton and evaluates it; the
    other one is not loaded."""
    if automaton.kind == "tree":
        from . import trees
        return trees
    from . import words
    return words


def _evaluate(args) -> tuple:
    """The algebra, semantics and value of ``eval`` and ``support``: the
    automaton file and input of ``args``, evaluated with pruned runs. Pruning
    presumes the axioms, so a word automaton over a table that fails them
    (loaded with ``--allow-invalid``; builtins meet them) takes the literal
    run fold instead. Trees have no fast literal path and stay pruned."""
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    alg, mod = automaton.algebra, _module(automaton)
    inp = mod.parse(args.input, automaton.alphabet)
    semantics = Semantics(args.semantics)
    literal = (args.allow_invalid and automaton.kind == "word" and semantics is Semantics.RUN
               and isinstance(alg, FiniteTableAlgebra) and not validate_axioms(alg).ok)
    return alg, semantics, mod.evaluate(automaton, inp, semantics, prune=not literal)


def _emit(args, payload, text: str):
    if getattr(args, "format", "table") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_eval(args):
    alg, semantics, value = _evaluate(args)
    label = alg.describe(value)
    _emit(args, {"semantics": semantics.value, "value": label}, label)
    return 0


def cmd_support(args):
    alg, semantics, value = _evaluate(args)
    member = value != alg.zero
    _emit(
        args,
        {"semantics": semantics.value, "in_support": member, "value": alg.describe(value)},
        "true" if member else "false",
    )
    return 0


def cmd_props(args):
    from .properties import classify
    report = classify(load_algebra(args.algebra, allow_invalid=args.allow_invalid))
    _emit(args, report.to_dict(), str(report))
    return 0


def cmd_check(args):
    from .harness import check_theorem
    alg = load_algebra(args.algebra, allow_invalid=args.allow_invalid)
    # only the options given reach the config, which holds every default
    parse = {"word_alphabet": _parse_word_alphabet, "tree_alphabet": _parse_ranked_alphabet}
    given = {field: parse.get(field, int)(getattr(args, field)) for field in args.fields if field in args}
    report = check_theorem(args.target, TheoremCheckConfig(algebra=alg, **given))
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
    mod = _module(automaton)
    profile = mod.cost_profile(automaton, mod.parse(args.input, automaton.alphabet))
    _emit(args, profile.to_dict(), str(profile))
    return 0


def cmd_image(args):
    automaton = load_automaton(args.automaton, allow_invalid=args.allow_invalid)
    alg = automaton.algebra
    mod = _module(automaton)
    if automaton.kind == "tree":
        bound, unused = getattr(args, "max_size", TheoremCheckConfig.max_tree_size), "max_len"
        label = f"trees of size <= {bound}"
    else:
        bound, unused = getattr(args, "max_len", TheoremCheckConfig.max_word_len), "max_size"
        label = f"words of length <= {bound}"
    if unused in args:
        raise ValueError(f"--{unused.replace('_', '-')} does not apply to a {type(automaton).__name__}")
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
    targets = p.add_subparsers(dest="target", required=True)
    counts = (("--trials", "num_automata"), ("--states", "max_states"), ("--seed", "seed"))
    for target, options in (
        ("supports-words", (("--word-alphabet", "word_alphabet"), ("--max-len", "max_word_len"), *counts)),
        ("supports-trees", (("--tree-alphabet", "tree_alphabet"), ("--max-size", "max_tree_size"), *counts)),
        ("images-words", ()),  # the image checks sweep or probe at the defaults
        ("images-trees", ()),
    ):
        t = targets.add_parser(target)
        common(t, algebra=True)
        # each option sets the TheoremCheckConfig field it names, and only
        # when given: the parser holds no default, so an option the target
        # does not read is refused at any value
        for flag, field in options:
            t.add_argument(flag, dest=field, type=str if field.endswith("alphabet") else int,
                           default=argparse.SUPPRESS)
        t.set_defaults(fn=cmd_check, fields=tuple(field for _, field in options))

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
    # no parser default: cmd_image takes a bound not given from
    # TheoremCheckConfig and refuses the other kind's bound at any value
    p.add_argument("--max-len", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-size", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_image)
    return parser


def _usage_error(message: str) -> int:
    if len(message) > _MESSAGE_LIMIT:
        message = message[: _MESSAGE_LIMIT - 1] + "…"
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader stopped reading, which is no fault; output still
        # buffered goes to devnull, so the flush at shutdown cannot fail
        try:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError):
            pass  # a stdout without a descriptor holds no output for shutdown
        return BROKEN_PIPE
    except HierarchyInconsistencyError as exc:
        # reachable only for tables loaded with --allow-invalid: the hierarchy
        # implications presuppose the strong-bimonoid axioms
        return _usage_error(f"{exc} (the loaded tables violate the axioms)")
    except (FileFormatError, UnknownAlgebraError, ValueError) as exc:
        return _usage_error(str(exc))
    except Exception as exc:
        # anything else is a fault in this program, not in its input: keep
        # exit code 1 for unexpected counterexamples
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
