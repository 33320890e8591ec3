"""Command-line front end.

Commands: derive, compose, mul, dpow, convert, check.  Each takes --theory
{poly|power|divided|zinbiel|trivial}, --field {Q|F<p>} and --json, but dpow
and convert take only --theory divided, their default.  --cap is the degree
cap of the power theory, the default theory, 6 when omitted; other theories
reject it, and dpow and convert do not take it.  --arity, the number of
variables, at least 0, is taken by every command but check, which draws its
own; when omitted it is the highest variable number given.
Expressions follow the grammar in the syntax module; morphisms can be given
as @file.json holding {"arity": n, "components": ["expr", ...]}.

A call of main builds only the parser of the command it runs.  When the
first argument names no command (--help, a missing or an unknown command)
it builds the parser of every command.  No parser is cached between calls.

Exit codes: 0 on success (and all axioms passing), 1 when an axiom check
fails, 2 on usage, parse, shape, field or @file errors and on expansions
past a size bound.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import cdc
from .errors import DiffmonadError
from .scalars import prime_field, rationals
from .syntax import format_element, parse_element
from .zinbiel import divided_to_zinbiel


def _field_from_flag(text: str):
    if text == "Q":
        return rationals()
    m = re.fullmatch(r"F(\d+)", text)
    if m is None:
        raise DiffmonadError(f"unknown field {text!r}; use Q or F<p>")
    try:
        return prime_field(int(m.group(1)))
    except ValueError as exc:
        raise DiffmonadError(f"bad field {text!r}: {exc}") from None


def _theory_from_args(args) -> cdc.Theory:
    theory = cdc.make_theory(args.theory, _field_from_flag(args.field),
                             6 if args.cap is None else args.cap)
    if args.cap is not None and not theory.spec.cap_option:
        raise DiffmonadError(f"the {args.theory} theory takes no --cap")
    return theory


def _infer_arity(exprs: list[str]) -> int:
    """The highest variable number in the expressions."""
    numbers = [m.group(1) for text in exprs
               for m in re.finditer(r"x(\d+)", text)]
    if not numbers:
        raise DiffmonadError("no variables found; cannot infer the arity")
    try:
        return max(map(int, numbers))
    except ValueError:  # past the interpreter's digit limit
        raise DiffmonadError("number too long") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _read_morphism_file(path: str) -> tuple[list[str], int]:
    """(components, arity) of a JSON file {"arity": n, "components": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        components, arity = data["components"], data["arity"]
    except KeyError as exc:
        raise DiffmonadError(f"{path} has no {exc} entry") from None
    except (OSError, ValueError, TypeError) as exc:
        raise DiffmonadError(f"cannot read a morphism from {path}: {exc}") \
            from None
    if type(arity) is not int or arity < 0:
        raise DiffmonadError(f"{path}: arity must be an integer >= 0")
    if not isinstance(components, list) or \
            not all(isinstance(c, str) for c in components):
        raise DiffmonadError(f"{path}: components must be a list of "
                             "expressions")
    return components, arity


def _load_components(parts: list[str],
                     declared: int | None = None) -> tuple[list[str], int | None]:
    """Expression strings from argv pieces; @file pulls a JSON morphism.

    Returns the arity that ``declared`` and the files declare, None when
    none does; declarations that disagree are an error.
    """
    exprs: list[str] = []
    for part in parts:
        if part.startswith("@"):
            components, arity = _read_morphism_file(part[1:])
            if declared is not None and arity != declared:
                raise DiffmonadError(f"{part[1:]} declares arity {arity}, "
                                     f"but {declared} is declared too")
            declared = arity
            exprs.extend(components)
        else:
            exprs.extend(p for p in part.split(",") if p.strip())
    return exprs, declared


def _arity_flag(args) -> int | None:
    """--arity, None when omitted; a negative one is a usage error."""
    if args.arity is not None and args.arity < 0:
        raise DiffmonadError(f"--arity must be at least 0, got {args.arity}")
    return args.arity


def _parse_elements(args, theory: cdc.Theory, exprs: list[str]):
    """(elements, arity) of the element commands: --arity, else inferred."""
    arity = _arity_flag(args)
    if arity is None:
        arity = _infer_arity(exprs)
    return [parse_element(e, theory, arity) for e in exprs], arity


def _emit_element(args, elem, arity: int, /, **payload) -> None:
    """Print elem with ``arity`` base variables, or as JSON {"result",
    "arity"}; ``payload`` adds or overrides JSON entries."""
    rendered = format_element(elem, base_arity=arity)
    _emit(args, {"result": rendered, "arity": arity, **payload}, rendered)


def _cmd_derive(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = _parse_elements(args, theory, [args.expr])
    _emit_element(args, theory.partial(elem), arity, arity=2 * arity,
                  base_arity=arity)
    return 0


def _cmd_compose(args) -> int:
    theory = _theory_from_args(args)
    if "/" not in args.parts:
        raise DiffmonadError("compose expects: OUTER / INNER[,INNER...]")
    split = args.parts.index("/")
    outer_exprs, outer_arity = _load_components(args.parts[:split])
    inner_exprs, inner_arity = _load_components(args.parts[split + 1:],
                                                _arity_flag(args))
    if not outer_exprs or not inner_exprs:
        raise DiffmonadError("compose needs both an outer and an inner morphism")
    if inner_arity is None:
        inner_arity = _infer_arity(inner_exprs)
    if outer_arity is None:
        outer_arity = len(inner_exprs)
    if outer_arity != len(inner_exprs):
        raise DiffmonadError(f"outer morphism needs {outer_arity} inner "
                             f"components, got {len(inner_exprs)}")
    outer = cdc.Morphism(theory, outer_arity, len(outer_exprs),
                         [parse_element(e, theory, outer_arity)
                          for e in outer_exprs])
    inner = cdc.Morphism(theory, inner_arity, len(inner_exprs),
                         [parse_element(e, theory, inner_arity)
                          for e in inner_exprs])
    result = cdc.compose(outer, inner)
    rendered = [format_element(c, base_arity=inner_arity)
                for c in result.components]
    _emit(args, {"arity": inner_arity, "components": rendered},
          "\n".join(rendered))
    return 0


def _cmd_mul(args) -> int:
    theory = _theory_from_args(args)
    if theory.spec.product is None:
        raise DiffmonadError(f"the {theory.kind} theory has no product")
    (a, b), arity = _parse_elements(args, theory, [args.left, args.right])
    _emit_element(args, a * b, arity)
    return 0


def _cmd_dpow(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = _parse_elements(args, theory, [args.expr])
    try:
        power = elem.divided_power(args.n)
    except ValueError as exc:
        raise DiffmonadError(str(exc)) from None
    _emit_element(args, power, arity)
    return 0


def _cmd_convert(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = _parse_elements(args, theory, [args.expr])
    _emit_element(args, divided_to_zinbiel(elem), arity)
    return 0


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise DiffmonadError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise DiffmonadError(f"--jobs must be at least 1, got {args.jobs}")
    from .generators import GenConfig

    theory = _theory_from_args(args)
    reports = cdc.check_all(theory, GenConfig(seed=args.seed), args.trials)
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {
            "theory": theory.name,
            "field": repr(theory.field),
            "cap": theory.cap,
            "seed": args.seed,
            "trials": args.trials,
            "passed": ok,
            "reports": [r.to_json(include_millis=args.timing)
                        for r in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            status = "pass" if r.passed else f"FAIL ({len(r.failures)})"
            print(f"{r.axiom:<18} trials={r.trials} {status} [{r.millis} ms]")
        print(f"{'all axioms pass' if ok else 'AXIOM FAILURES'} for "
              f"{theory.name} over {theory.field!r}")
    return 0 if ok else 1


_COMMANDS = ("derive", "compose", "mul", "dpow", "convert", "check")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command ``only`` alone.

    Building a subparser is most of the time of a small command, so main
    builds only the one it runs; no parser is cached between calls.  The
    metavar keeps the usage line of a one-command parser the same as that
    of the full one, which has none, so that its error for a missing
    command names "command".
    """
    parser = argparse.ArgumentParser(
        prog="diffmonads",
        description="Exact computations and axiom checks for differential "
                    "theories of power series, divided powers, and words.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(_COMMANDS) + "}")

    def command(name, fn, summary, divided=False, arity=True):
        if only is not None and name != only:
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--theory", default="divided" if divided else "power",
                       choices=["divided"] if divided else list(cdc.THEORIES))
        p.add_argument("--field", default="Q", help="Q or F<p>")
        # hidden where it does not act, so that a --cap there is named in
        # the error, not taken for an operand
        p.add_argument("--cap", type=int, default=None,
                       help=argparse.SUPPRESS if divided else
                       "degree cap of the power theory (default 6)")
        p.add_argument("--json", action="store_true")
        if arity:
            p.add_argument("--arity", type=int, default=None,
                           help="number of variables (inferred when omitted)")
        return p

    if p := command("derive", _cmd_derive,
                    "apply the differential combinator"):
        p.add_argument("expr")
    if p := command("compose", _cmd_compose,
                    "substitute: OUTER / INNER[,INNER...]"):
        p.add_argument("parts", nargs="+")
    if p := command("mul", _cmd_mul, "product of two elements"):
        p.add_argument("left")
        p.add_argument("right")
    if p := command("dpow", _cmd_dpow, "divided power f^[n]", divided=True):
        p.add_argument("expr")
        p.add_argument("n", type=int)
    if p := command("convert", _cmd_convert,
                    "expand divided powers into words", divided=True):
        p.add_argument("expr")
    if p := command("check", _cmd_check,
                    "run every axiom suite for one theory", arity=False):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--jobs", type=int, default=1,
                       help="at least 1; accepted for compatibility and "
                            "ignored: the checks run serially, because "
                            "threads only add overhead to this pure-Python "
                            "work")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock millis in JSON output")

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DiffmonadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
