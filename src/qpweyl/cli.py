"""Command-line front end.

Commands
--------
  verify-relations   involution, braid/commutation and diagram-automorphism
                     suites for one family
  verify-theorem     time-evolution checks: parameter images, nonlinear
                     residuals, and the rescaling decomposition of xi
  verify-gauge       the registered gauge claims of one family
  apply              apply a Weyl word to an expression and print the image
  evolve             iterate the nonlinear system from a JSON parameter file
  list               families, generators and claim ids; latex prints the
                     generator tables

Exit status: 0 all checks passed, 1 verification failure or pole, 2 usage or
input error.  Words are printed leftmost first and applied rightmost first.
With --format json the report is byte-identical for identical seed and
flags, so elapsed times are reported only in text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .evolution import (
    OrbitResult,
    orbit,
    orbit_to_json,
    state_from_record,
    verify_theorem_i,
    verify_theorem_ii,
)
from .expr import ExprError, parse, to_latex, to_string
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


def _check_config(args) -> CheckConfig:
    return CheckConfig(trials=args.trials, prime=args.prime, seed=args.seed,
                       exact=args.exact, use_constraint=not args.no_constraint)


def _family(args):
    if args.family is None:
        raise SystemExit(_usage_error("--family is required"))
    try:
        return make_family(args.family)
    except ValueError as err:
        raise SystemExit(_usage_error(str(err)))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit_report(report: Report, args, family: str, command: str) -> int:
    if args.format == "json":
        doc = {
            "schema": 1,
            "command": command,
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
            if c.elapsed:
                line += f"  {c.elapsed*1000:.0f}ms"
            if c.witness and not c.ok:
                line += f"  witness: {c.witness}"
            print(line)
        s = report.summary()
        print(f"{s['pass']}/{s['total']} checks passed")
    return 0 if report.ok else CHECK_FAILED


def cmd_verify_relations(args) -> int:
    fam = _family(args)
    cfg = _check_config(args)
    t0 = time.monotonic()
    report = verify_relations(fam, cfg)
    if args.format != "json":
        print(f"relation suites for {fam.name} in {time.monotonic()-t0:.1f}s")
    return _emit_report(report, args, fam.name, "verify-relations")


def cmd_verify_theorem(args) -> int:
    fam = _family(args)
    cfg = _check_config(args)
    report = Report()
    report.extend(verify_theorem_i(fam, cfg))
    report.extend(verify_theorem_ii(fam, cfg))
    return _emit_report(report, args, fam.name, "verify-theorem")


def cmd_verify_gauge(args) -> int:
    fam = _family(args)
    cfg = _check_config(args)
    report = verify_gauge_claims(fam, cfg)
    return _emit_report(report, args, fam.name, "verify-gauge")


def cmd_apply(args) -> int:
    fam = _family(args)
    try:
        word = parse_word(args.word or "")
        expr = parse(args.expr)
    except (ExprError, ValueError) as err:
        return _usage_error(str(err))
    try:
        t = word_to_transform(fam, word)
    except KeyError as err:
        return _usage_error(str(err))
    image = t(expr)
    if args.format == "latex":
        print(to_latex(image))
    elif args.format == "json":
        print(json.dumps({"schema": 1, "family": fam.name,
                          "word": " ".join(word), "expr": args.expr,
                          "image": to_string(image)}, sort_keys=True))
    else:
        print(to_string(image))
    return 0


def cmd_evolve(args) -> int:
    fam = _family(args)
    if args.params is None:
        return _usage_error("--params is required for evolve")
    try:
        with open(args.params, encoding="utf-8") as handle:
            record = json.load(handle)
        st0 = state_from_record(record)
    except (OSError, ValueError, KeyError) as err:
        return _usage_error(f"bad params file: {err}")
    if args.steps < 0:
        return _usage_error(f"--steps must be >= 0, got {args.steps}")
    result: OrbitResult = orbit(fam, st0, args.steps)
    try:
        doc = orbit_to_json(result)
    except ValueError as err:
        return _usage_error(str(err))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc + "\n")
    else:
        print(doc)
    final = result.states[-1]
    print(f"final state t={final.t} f={final.f} g={final.g}", file=sys.stderr)
    if result.pole is not None:
        print(f"pole at step {result.pole.step}: {result.pole.where}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_list(args) -> int:
    if args.family:
        fam = _family(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpweyl",
        description="Verify Weyl group relations, gauge claims and time "
                    "evolution of the q-Painleve families D5, E6, E7.",
        epilog="Words are printed leftmost first and applied rightmost first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_required=True):
        p.add_argument("--family", choices=FAMILY_NAMES,
                       required=family_required)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--exact", action="store_true",
                       help="additionally prove identities by exact normalization")
        p.add_argument("--no-constraint", action="store_true",
                       help="drop the parameter constraint from every check")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")

    p = sub.add_parser("verify-relations", help="involutions, braid, diagram relations")
    common(p)
    p.set_defaults(func=cmd_verify_relations)

    p = sub.add_parser("verify-theorem", help="time-evolution checks")
    common(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("verify-gauge", help="registered gauge claims")
    common(p)
    p.set_defaults(func=cmd_verify_gauge)

    p = sub.add_parser("apply", help="apply a word to an expression")
    common(p)
    p.add_argument("--word", default="", help='e.g. "pi2 pi1 s2 s1 s0 s2" or "(w)^2"')
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("evolve", help="iterate the nonlinear system")
    common(p)
    p.add_argument("--params", help="JSON file with string rationals")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--out", help="write the orbit JSON here instead of stdout")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("list", help="families, generators, claim ids")
    common(p, family_required=False)
    p.set_defaults(func=cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_sampling(args.trials, args.prime)
    except ValueError as err:
        return _usage_error(str(err))
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
