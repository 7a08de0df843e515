"""Batch command-line front end.

Every run with identical inputs and seed produces byte-identical
output.  Results go to stdout, diagnostics to stderr; exit status is 2
on usage errors, 1 on a failed verification or a failed
--expect-evanescent check, 0 otherwise.

``homog`` and ``train --type`` stream: each identity is printed as soon
as it is checked, from the frame of its Peirce class (``syntax.frame``),
so a class's shared terms are rendered once.  Input errors are found
before the first line.  A failed re-check mid-stream is a program fault,
not an input error: the lines printed before it stay, then one
``error:`` line, and the exit status is 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import baric, homgen, magma, syntax, trainsgen
from .peirce import is_evanescent, peirce_recursive

# each train --type family, "n" then its shape's counts: {"n": (), "n,1": (1,), ...}
_FAMILIES = {",".join(("n", *map(str, counts))): counts for counts in trainsgen.SHAPES}


def _parse_type(text):
    try:
        return magma.normalize_type(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad type {text!r}: {exc}")


def _jsonl(out, obj):
    out.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_identities(identities, fmt, out):
    """Print each identity as soon as it is checked, by the line function
    (``syntax.frame``) of its Peirce class and its member's place, so the
    shared terms of a class are rendered once: in ``homog`` the member is
    the largest term and goes first."""
    frames = {}  # (id of a class, a place) -> its line function
    # each class is kept, so that its id stays its own, in one list: a
    # (class, line) pair per entry would be one more object to collect
    kept = []
    for identity in identities:
        cls, at = identity.cls, identity.at
        line = frames.get(key := (id(cls), at))
        if line is None:
            kept.append(cls)
            line = frames[key] = syntax.frame(cls.den, cls.form, cls.coef, at, fmt, identity.type)
        out.write(line(identity.member))


def cmd_peirce(args, out) -> int:
    f = syntax.parse(args.expr)
    variables = f.variables()
    if args.var:
        wanted = syntax.parse_monomial(args.var)
        if not wanted.is_leaf:
            raise ValueError("--var takes a single variable name")
        variables = [wanted.var]
    for v in variables:
        p = peirce_recursive(f, v)
        if args.format == "jsonl":
            _jsonl(out, {
                "variable": v.name,
                "coeffs": [str(c) for c in p.coeffs],
                "pretty": p.to_string(),
            })
        else:
            out.write(f"d_{v.name} = {p.to_string()}\n")
    return 0


def cmd_check(args, out) -> int:
    f = syntax.parse(args.expr)
    report = is_evanescent(f)
    if args.format == "jsonl":
        _jsonl(out, {
            "polynomial": syntax.format_polynomial(f),
            "at_ones": str(report.at_ones),
            "peirce": {
                v.name: p.to_string() for v, p in sorted(report.peirce.items())
            },
            "peirce_evanescent": report.is_peirce_evanescent,
            "evanescent_identity": report.is_evanescent_identity,
        })
    else:
        out.write(f"polynomial: {syntax.format_polynomial(f)}\n")
        for v, p in sorted(report.peirce.items()):
            out.write(f"d_{v.name} = {p.to_string()}\n")
        out.write(f"value at ones = {report.at_ones}\n")
        if report.is_evanescent_identity:
            out.write("verdict: evanescent identity\n")
        elif report.is_peirce_evanescent:
            out.write("verdict: Peirce-evanescent, nonzero coefficient sum\n")
        else:
            out.write("verdict: not evanescent\n")
    if args.expect_evanescent and not report.is_evanescent_identity:
        return 1
    return 0


def _train_types(args):
    if args.type not in _FAMILIES:
        return [_parse_type(args.type)]
    if args.all is None:
        raise ValueError("family types like 'n,1' need --all MAXDEG")
    fixed = _FAMILIES[args.type]
    top = args.all - sum(fixed)  # the family's types are (n, *fixed) for n <= top
    over = max(args.max_degree - sum(fixed), 0) + 1  # the least n over the cap
    if top >= over:
        # every family type is admitted here, before anything is printed: each
        # has a supported shape, so the least type over the cap is the one check
        trainsgen.admit((over, *fixed), args.max_degree)
    return [(n, *fixed) for n in range(1, top + 1)]


def cmd_train(args, out) -> int:
    if args.of is not None:
        w = syntax.parse_monomial(args.of)
        _emit_identities([trainsgen.train_identity(w)], args.format, out)
        return 0
    if args.type is None:
        raise ValueError("train needs --of EXPR or --type TYPE")
    for ty in _train_types(args):
        _emit_identities(trainsgen.iter_train_basis(ty, args.max_degree), args.format, out)
    return 0


def cmd_homog(args, out) -> int:
    ty = _parse_type(args.type)
    _emit_identities(homgen.iter_homogeneous(ty), args.format, out)
    return 0


def cmd_enum(args, out) -> int:
    ty = _parse_type(args.type)
    for m in magma.monomials_of_type(ty):
        if args.format == "jsonl":
            _jsonl(out, {"monomial": syntax.format_monomial(m)})
        else:
            out.write(syntax.format_monomial(m) + "\n")
    return 0


def cmd_wnumber(args, out) -> int:
    ty = _parse_type(args.type)
    if args.format == "jsonl":
        _jsonl(out, {"type": list(ty), "count": magma.w_number(ty)})
    else:
        out.write(f"{magma.w_number(ty)}\n")
    return 0


def cmd_verify(args, out) -> int:
    algebra = baric.load_algebra(args.algebra)
    f = syntax.parse(args.identity)
    # verify before writing, so a rejected --trials leaves stdout empty
    result = baric.verify_identity(f, algebra, trials=args.trials, seed=args.seed)
    out.write(f"# seed={args.seed} trials={args.trials}\n")
    if args.format == "jsonl":
        _jsonl(out, {
            "passed": result.passed,
            "trials": result.trials,
            "seed": result.seed,
            "failed_trial": result.failed_trial,
            "mode": result.mode,
            "counterexample": {
                name: [str(c) for c in vec]
                for name, vec in (result.counterexample or {}).items()
            }
            or None,
        })
    elif result.passed:
        out.write("PASS\n")
    else:
        out.write(f"FAIL ({result.mode} evaluation, trial {result.failed_trial})\n")
        for name, vec in sorted(result.counterexample.items()):
            out.write(f"  {name} = ({', '.join(str(c) for c in vec)})\n")
    return 0 if result.passed else 1


def cmd_spectrum(args, out) -> int:
    parts = args.eigenvalues.split(",") if args.eigenvalues else []
    lambdas = [baric.read_q(part) for part in parts]
    algebra, e = baric.spectrum_algebra(lambdas)
    matrix = baric.left_mult_matrix(algebra, e)
    poly = baric.char_poly(matrix)
    roots, remainder = baric.rational_roots(poly)
    if args.format == "jsonl":
        _jsonl(out, {
            "dim": algebra.dim,
            "char_poly": [str(c) for c in poly.coeffs],
            "roots": [[str(r), m] for r, m in roots],
            "unfactored": [str(c) for c in remainder.coeffs],
        })
    else:
        out.write(f"dim = {algebra.dim}\n")
        out.write(f"char poly = {poly.to_string(sym='X')}\n")
        rendered = ", ".join(f"{r} (x{m})" for r, m in roots)
        out.write(f"roots = {rendered}\n")
        if remainder.degree() > 0:
            out.write(f"unfactored = {remainder.to_string(sym='X')}\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "jsonl"), default="text", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="evanescent",
        description="Peirce polynomials and evanescent identities for baric algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("peirce", parents=[common], help="Peirce polynomials of EXPR")
    p.add_argument("expr")
    p.add_argument("--var", help="restrict to one variable (x, y, z, tN)")
    p.set_defaults(fn=cmd_peirce)

    p = sub.add_parser("check", parents=[common], help="evanescence report for EXPR")
    p.add_argument("expr")
    p.add_argument(
        "--expect-evanescent",
        action="store_true",
        help="exit 1 unless EXPR is an evanescent identity",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("train", parents=[common], help="train identities")
    p.add_argument("--type", help=f"concrete type like 6 or 4,1, or family {'|'.join(_FAMILIES)}")
    p.add_argument("--of", help="single monomial to reduce")
    p.add_argument("--all", type=int, help="max total degree when --type is a family")
    p.add_argument("--max-degree", type=int, default=10, help="generation degree cap")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("homog", parents=[common], help="homogeneous identities")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_homog)

    p = sub.add_parser("enum", parents=[common], help="enumerate monomials of a type")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("wnumber", parents=[common], help="count monomials of a type")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_wnumber)

    p = sub.add_parser("verify", parents=[common], help="randomized identity check")
    p.add_argument("--algebra", required=True, help="JSON algebra file")
    p.add_argument("--identity", required=True, help="polynomial expression")
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", parents=[common], help="spectrum construction")
    p.add_argument(
        "--eigenvalues",
        default="",
        help="comma-separated rationals adjoined to the spectrum (1 is implicit)",
    )
    p.set_defaults(fn=cmd_spectrum)

    return parser


# the options that take a value, of every command
_VALUE_OPTIONS = frozenset({
    "--format", "--var", "--type", "--of", "--all", "--max-degree",
    "--algebra", "--identity", "--trials", "--seed", "--eigenvalues",
})


def _attached(argv) -> list:
    """argv with each value that begins with a single '-' attached to its
    option, as --option=value, and for check and peirce each other such
    argument but -h moved after a '--', as the EXPR: argparse would take
    "-1/2" after --eigenvalues, "-x^2" after --identity, or the EXPR
    "-x^2", for an unknown option.  A '--' in argv moves no EXPR."""
    out, exprs = [], []
    for arg in argv:
        if arg[:1] == "-" and arg[:2] != "--" and out:
            if out[-1] in _VALUE_OPTIONS:
                out[-1] += "=" + arg
                continue
            if out[0] in ("check", "peirce") and arg != "-h" and "--" not in argv:
                exprs.append(arg)
                continue
        out.append(arg)
    return [*out, "--", *exprs] if exprs else out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attached(sys.argv[1:] if argv is None else argv))
        return args.fn(args, sys.stdout)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:  # a syntax.ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the backstop for the walks that still recurse, magma._enumerate and
        # magma._w over sub-types; they stay until an admission budget exists,
        # since without one the inputs that stop here would run without bound
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a type entry too large for a range (magma._splits)
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
