"""Command-line front end.

Commands: derive, compose, mul, dpow, convert, check.  Each takes --theory
{poly|power|divided|zinbiel|trivial}, --field {Q|F<p>} and --json, but dpow
and convert take only --theory divided, their default.  --cap is the degree
cap of the power theory, the default theory, 6 when omitted; other theories
reject it, and dpow and convert do not take it.  --arity, the number of
variables, at least 0, is taken by every command but check, which draws its
own; when omitted, ``syntax.parse_elements`` infers it as the highest
variable number given.  Integers are ASCII, [+-]?[0-9]+.  Expressions follow
the grammar in the syntax module, all read by ``syntax.parse_elements`` (the
inner morphism of compose first); morphisms can be given as @file.json
holding {"arity": n, "components": ["expr", ...]}.

A call of main parses a known command with that command's own parser,
``build_parser(command)``, a lean parser that answers only the parses it
can: it has no -h, never formats and never measures the terminal.  main
builds the full parser, with every command, when the first argument names
no command (--help, a missing or an unknown command, a leading option),
and when the command's parser meets an error, leftover arguments (-h,
--help and its abbreviations) among them; the full parser then gives
argparse's own help, usage and error text.  No parser is cached between
calls: see build_parser.
Importing this module loads ``category`` and ``syntax``; ``check`` alone
loads ``cdc`` and ``generators``, when it runs.

Exit codes: 0 on success (and all axioms passing), 1 when an axiom check
fails, 2 on usage, parse, shape, field or @file errors, on expansions past a
size bound, and silently on a closed stdout (``| head``) and on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import category
from .errors import DiffmonadError
from .scalars import prime_field, rationals
from .syntax import format_element, parse_elements
from .zinbiel import divided_to_zinbiel


def _field_from_flag(text: str):
    if text == "Q":
        return rationals()
    m = re.fullmatch(r"F(\d+)", text, re.ASCII)
    if m is None:
        raise DiffmonadError(f"unknown field {text!r}; use Q or F<p>")
    try:
        return prime_field(int(m.group(1)))
    except ValueError as exc:
        raise DiffmonadError(f"bad field {text!r}: {exc}") from None


def _int(text: str) -> int:
    """argparse's int over ASCII digits alone: [+-]?[0-9]+, no blanks."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _theory_from_args(args) -> category.Theory:
    theory = category.make_theory(args.theory, _field_from_flag(args.field),
                                  6 if args.cap is None else args.cap)
    if args.cap is not None and not theory.spec.cap_option:
        raise DiffmonadError(f"the {args.theory} theory takes no --cap")
    return theory


def _emit(args, payload: dict, text: str) -> None:
    # flushed, so that a closed pipe raises in main, not at shutdown
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json
          else text, flush=True)


def _read_morphism_file(path: str) -> tuple[list[str], int]:
    """(components, arity) of a JSON file {"arity": n, "components": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DiffmonadError(f'{path}: expected a JSON object with '
                                 '"arity" and "components"')
        components, arity = data["components"], data["arity"]
    except KeyError as exc:
        raise DiffmonadError(f"{path} has no {exc} entry") from None
    except (OSError, ValueError, RecursionError) as exc:
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


def _emit_element(args, elem, arity: int, /, **payload) -> None:
    """Print elem with ``arity`` base variables, or as JSON {"result",
    "arity"}; ``payload`` adds or overrides JSON entries."""
    rendered = format_element(elem, base_arity=arity)
    _emit(args, {"result": rendered, "arity": arity, **payload}, rendered)


def _cmd_derive(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = parse_elements([args.expr], theory, _arity_flag(args))
    _emit_element(args, elem.partial_combinator(), arity, arity=2 * arity,
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
    inner, inner_arity = parse_elements(inner_exprs, theory, inner_arity)
    if outer_arity is None:
        outer_arity = len(inner)
    if outer_arity != len(inner):
        raise DiffmonadError(f"outer morphism needs {outer_arity} inner "
                             f"components, got {len(inner)}")
    outer, _ = parse_elements(outer_exprs, theory, outer_arity)
    result = category.compose(
        category.Morphism(theory, outer_arity, len(outer), outer),
        category.Morphism(theory, inner_arity, len(inner), inner))
    rendered = [format_element(c, base_arity=inner_arity)
                for c in result.components]
    _emit(args, {"arity": inner_arity, "components": rendered},
          "\n".join(rendered))
    return 0


def _cmd_mul(args) -> int:
    theory = _theory_from_args(args)
    if theory.spec.product is None:
        raise DiffmonadError(f"the {theory.kind} theory has no product")
    (a, b), arity = parse_elements([args.left, args.right], theory,
                                   _arity_flag(args))
    _emit_element(args, a * b, arity)
    return 0


def _cmd_dpow(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = parse_elements([args.expr], theory, _arity_flag(args))
    try:
        power = elem.divided_power(args.n)
    except ValueError as exc:
        raise DiffmonadError(str(exc)) from None
    _emit_element(args, power, arity)
    return 0


def _cmd_convert(args) -> int:
    theory = _theory_from_args(args)
    [elem], arity = parse_elements([args.expr], theory, _arity_flag(args))
    _emit_element(args, divided_to_zinbiel(elem), arity)
    return 0


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise DiffmonadError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise DiffmonadError(f"--jobs must be at least 1, got {args.jobs}")
    from . import cdc, generators

    theory = _theory_from_args(args)
    reports = cdc.check_all(theory, generators.GenConfig(seed=args.seed),
                            args.trials)
    ok = all(r.passed for r in reports)
    lines = []
    for r in reports:
        status = "pass" if r.passed else f"FAIL ({len(r.failures)})"
        lines.append(f"{r.axiom:<18} trials={r.trials} {status} "
                     f"[{r.millis} ms]")
    lines.append(f"{'all axioms pass' if ok else 'AXIOM FAILURES'} for "
                 f"{theory.name} over {theory.field!r}")
    _emit(args, {"theory": theory.name, "field": repr(theory.field),
                 "cap": theory.cap, "seed": args.seed, "trials": args.trials,
                 "passed": ok,
                 "reports": [r.to_json(include_millis=args.timing)
                             for r in reports]},
          "\n".join(lines))
    return 0 if ok else 1


# name -> (run, summary); dpow and convert act on the divided theory alone
_COMMANDS = {
    "derive": (_cmd_derive, "apply the differential combinator"),
    "compose": (_cmd_compose, "substitute: OUTER / INNER[,INNER...]"),
    "mul": (_cmd_mul, "product of two elements"),
    "dpow": (_cmd_dpow, "divided power f^[n]"),
    "convert": (_cmd_convert, "expand divided powers into words"),
    "check": (_cmd_check, "run every axiom suite for one theory"),
}


def _add_arguments(p: argparse.ArgumentParser,
                   name: str) -> argparse.ArgumentParser:
    """Give ``p`` the options and operands of the command ``name``."""
    divided = name in ("dpow", "convert")
    p.set_defaults(fn=_COMMANDS[name][0])
    p.add_argument("--theory", default="divided" if divided else "power",
                   choices=["divided"] if divided else list(category.THEORIES))
    p.add_argument("--field", default="Q", help="Q or F<p>")
    # hidden where it does not act, so that a --cap there is named in the
    # error, not taken for an operand
    p.add_argument("--cap", type=_int, default=None,
                   help=argparse.SUPPRESS if divided else
                   "degree cap of the power theory (default 6)")
    p.add_argument("--json", action="store_true")
    if name == "check":
        p.add_argument("--seed", type=_int, default=42)
        p.add_argument("--trials", type=_int, default=200)
        p.add_argument("--jobs", type=_int, default=1,
                       help="at least 1; accepted for compatibility and "
                            "ignored: the checks run serially, because "
                            "threads only add overhead to this pure-Python "
                            "work")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock millis in JSON output")
        return p
    p.add_argument("--arity", type=_int, default=None,
                   help="number of variables (inferred when omitted)")
    if name == "compose":
        p.add_argument("parts", nargs="+")
    elif name == "mul":
        p.add_argument("left")
        p.add_argument("right")
    else:
        p.add_argument("expr")
    if name == "dpow":
        p.add_argument("n", type=_int)
    return p


class _CannotAnswer(Exception):
    """A command's own parser met an error; the full parser reports it."""


# the one formatter of every command's parser; its width spares a probe
_UNFORMATTED = argparse.HelpFormatter("diffmonads", width=80)


class _CommandParser(argparse.ArgumentParser):
    """A command's own parser: raises where argparse would print usage."""

    def error(self, message):
        raise _CannotAnswer(message)

    def _get_formatter(self):
        return _UNFORMATTED


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The lean parser of ``command`` alone, or the full parser of every
    command.

    A command's own parser has the prog, options and operands of the
    subparser that the full parser builds for it, but no -h (--help and its
    abbreviations are left over), and its ``error`` raises instead of
    printing usage.  It never formats, so the formatter argparse asks for
    in each ``add_argument``, to check the metavar, is the shared
    ``_UNFORMATTED``.  main hands its errors, leftovers among them, to the
    full parser, so every help, usage and error text comes from the full
    parser alone, formatted by argparse's own ``HelpFormatter`` (see the
    module docstring).

    Neither parser is cached between calls.  A cached parser made 4024 of
    the benchmark's ``cli`` commands per second, against 2270 (+77%, one
    20 s run at seed 9), but raised that workload's peak RSS by 6.6%
    (27.49 to 29.30 MB), over its 5% bound.  The rise is the benchmark's own
    records, about 56 bytes per timed call (no-op calls alone read 24.64 MB
    at 50,000 calls and 27.45 MB at 100,000; the library's 1.4 MB fills
    within 5000 calls), so no change here can offset it, and any ``cli``
    gain past about 45% crosses the bound: the cache waits for the benchmark
    to measure the library alone.
    """
    if command is not None:
        return _add_arguments(
            _CommandParser(prog=f"diffmonads {command}", add_help=False),
            command)
    parser = argparse.ArgumentParser(
        prog="diffmonads",
        description="Exact computations and axiom checks for differential "
                    "theories of power series, divided powers, and words.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = None
        if argv and argv[0] in _COMMANDS:
            try:
                args = build_parser(argv[0]).parse_args(argv[1:])
            except _CannotAnswer:
                pass
        if args is None:  # the full parser's help and errors
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DiffmonadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # see _emit; the flush at shutdown goes nowhere
        sys.stdout = open(os.devnull, "w")
        return 2
    except KeyboardInterrupt:
        return 2


if __name__ == "__main__":
    sys.exit(main())
