"""Command-line front end.

Commands and their options
--------------------------
  verify-relations   involution, braid/commutation and diagram-automorphism
                     suites for one family
  verify-theorem     time-evolution checks: parameter images, nonlinear
                     residuals, and the rescaling decomposition of xi
  verify-gauge       the registered gauge claims of one family
      --family (required), --trials, --prime, --seed, --exact,
      --no-constraint, --format {text,json}
  apply              apply a Weyl word to an expression and print the image
      --family (required), --word, --expr (required),
      --format {text,json,latex}
  evolve             iterate the nonlinear system from a JSON parameter file
                     and print the orbit as JSON
      --family (required), --params (required), --steps, --out
  list               families and claim ids, or one family's generators,
                     edges and evolution word; latex prints its generator
                     tables
      --family (optional), --format {text,latex}; latex needs --family

Exit status: 0 all checks passed, 1 verification failure or pole, 2 usage or
input error.  Every usage or input error, argparse's included, is one
UsageError that main prints as a single "error: ..." line on stderr.  Words
are printed leftmost first and applied rightmost first.  In --format json
and in text alike, a report is a function of the command, its flags and the
seed: it carries no timings, and two runs print the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .evolution import (
    OrbitResult,
    orbit,
    orbit_to_json,
    state_from_record,
    verify_theorem_i,
    verify_theorem_ii,
)
from .expr import ExprError, parse, shown, to_latex, to_string
from .identity import DEFAULT_PRIME, DEFAULT_TRIALS, check_sampling
from .lax import CLAIMS, verify_gauge_claims
from .report import Report
from .weyl import (
    CheckConfig,
    FAMILY_NAMES,
    make_family,
    parse_word,
    verify_relations,
    word_to_transform,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    """Bad command line or input; main prints it as one line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting; subparsers
    are built from the same class."""

    def error(self, message):
        raise UsageError(message)


def _check_config(args) -> CheckConfig:
    try:
        check_sampling(args.trials, args.prime)
    except ValueError as err:
        raise UsageError(str(err)) from None
    return CheckConfig(trials=args.trials, prime=args.prime, seed=args.seed,
                       exact=args.exact, use_constraint=not args.no_constraint)


def _emit_report(report: Report, args, family: str) -> int:
    if args.format == "json":
        import json   # in the functions that print or read JSON: a cold start skips it
        doc = {
            "schema": 1,
            "command": args.command,
            "family": family,
            "seed": args.seed,
            "trials": args.trials,
            "checks": [
                {"id": c.id, "status": c.status,
                 **({"witness": {k: str(v) for k, v in c.witness.items()}}
                    if c.witness else {}),
                 **({"detail": c.detail} if c.detail else {})}
                for c in report.checks
            ],
            "summary": report.summary(),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for c in report.checks:
            line = f"[{c.status:4s}] {c.id}"
            if c.detail:
                line += f"  ({c.detail})"
            if c.witness and not c.ok:
                line += f"  witness: {c.witness}"
            print(line)
        s = report.summary()
        print(f"{s['pass']}/{s['total']} checks passed")
    return 0 if report.ok else CHECK_FAILED


def cmd_verify(args) -> int:
    fam = make_family(args.family)
    cfg = _check_config(args)
    # Looked up at each run, so that bench/tracer.py's wrappers of these
    # module names are the functions called.
    suites = {"verify-relations": (verify_relations,),
              "verify-theorem": (verify_theorem_i, verify_theorem_ii),
              "verify-gauge": (verify_gauge_claims,)}[args.command]
    report = Report()
    for suite in suites:
        report.extend(suite(fam, cfg))
    return _emit_report(report, args, fam.name)


def cmd_apply(args) -> int:
    fam = make_family(args.family)
    try:
        word = parse_word(args.word)
        expr = parse(args.expr)
        t = word_to_transform(fam, word)
    except KeyError as err:  # str() of a KeyError quotes its message
        raise UsageError(err.args[0]) from None
    except (ExprError, ValueError) as err:
        raise UsageError(str(err)) from None
    image = t(expr)
    try:
        text = to_latex(image) if args.format == "latex" else to_string(image)
    except ValueError:
        raise UsageError("the image has a number past Python's int-to-str "
                         "digit limit") from None
    if args.format == "json":
        import json
        text = json.dumps({"schema": 1, "family": fam.name, "word": " ".join(word),
                           "expr": args.expr, "image": text}, sort_keys=True)
    print(text)
    return 0


def cmd_evolve(args) -> int:
    import json
    fam = make_family(args.family)
    try:
        with open(args.params, encoding="utf-8") as handle:
            record = json.load(handle)
        st0 = state_from_record(record)
    except (OSError, ValueError, RecursionError) as err:  # deep JSON nesting
        raise UsageError(f"bad params file: {err}") from None
    try:
        result: OrbitResult = orbit(fam, st0, args.steps)
        doc = orbit_to_json(result)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(doc + "\n")
        except OSError as err:
            raise UsageError(f"cannot write --out: {err}") from None
    else:
        print(doc)
    final = result.states[-1]
    hf, hg = (v.numerator.bit_length() + v.denominator.bit_length() for v in (final.f, final.g))
    print(f"final state t={final.t}: heights f {hf} bits, g {hg} bits", file=sys.stderr)
    if result.pole is not None:
        print(f"pole at step {result.pole.step}: {result.pole.where}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_list(args) -> int:
    if args.format == "latex" and not args.family:
        raise UsageError("list --format latex needs --family")
    if args.family:
        fam = make_family(args.family)
        if args.format == "latex":
            for name in fam.s_names + fam.pi_names:
                gen = fam.generators[name]
                cells = ", ".join(
                    f"{to_latex(parse(symname))} \\mapsto {to_latex(gen.image(symname))}"
                    for symname in sorted(gen.images))
                print(f"{name}: \\left\\{{ {cells} \\right\\}}")
        else:
            print(f"family {fam.name}")
            print("  generators:", " ".join(fam.s_names + fam.pi_names))
            print("  dynkin edges:", sorted(fam.dynkin_edges))
            print("  evolution word:", " ".join(fam.evolution_word))
            print("  claims:", " ".join(c for c, cl in CLAIMS.items()
                                        if cl.family == fam.name))
        return 0
    print("families:", " ".join(FAMILY_NAMES))
    print("claims:", " ".join(CLAIMS))
    return 0


@functools.cache  # built once per process; each parse_args makes a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpweyl",
        description="Verify Weyl group relations, gauge claims and time "
                    "evolution of the q-Painleve families D5, E6, E7.",
        epilog="Words are printed leftmost first and applied rightmost first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=(), family_required=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--family", choices=FAMILY_NAMES,
                       required=family_required)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=func)
        return p

    for name, summary in (
            ("verify-relations", "involutions, braid, diagram relations"),
            ("verify-theorem", "time-evolution checks"),
            ("verify-gauge", "registered gauge claims")):
        p = command(name, cmd_verify, summary, ("text", "json"))
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--exact", action="store_true",
                       help="additionally prove identities by exact normalization")
        p.add_argument("--no-constraint", action="store_true",
                       help="drop the parameter constraint from every check")

    p = command("apply", cmd_apply, "apply a word to an expression",
                ("text", "json", "latex"))
    p.add_argument("--word", default="", help='e.g. "pi2 pi1 s2 s1 s0 s2" or "(w)^2"')
    p.add_argument("--expr", required=True)

    p = command("evolve", cmd_evolve, "iterate the nonlinear system")
    p.add_argument("--params", required=True, help="JSON file with string rationals")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--out", help="write the orbit JSON here instead of stdout")

    command("list", cmd_list, "families, generators, claim ids",
            ("text", "latex"), family_required=False)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        # argparse and OSError quote an argument whole: cut each long one,
        # or the value after its "=", as expr.shown cuts quoted input.  A
        # path given to evolve's --params or --out, or to a prefix argparse
        # accepts, is cut only past 120 characters: its last part is the one
        # usually wrong.
        message = str(err)
        path_next = False
        for token in argv:
            option, eq, tail = token.partition("=")
            path_option = (argv[0] == "evolve" and len(option) > 2
                           and ("--params".startswith(option) or "--out".startswith(option)))
            for value, path in ((token, path_next), (tail, path_next or path_option)):
                if len(value) > (120 if path else 24):
                    cut = shown(value)
                    message = message.replace(repr(value), cut).replace(value, cut)
            path_next = path_option and not eq
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
