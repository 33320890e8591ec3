"""The `cli` workload: a seeded mix of single CLI commands.

Commands are `derive`, `mul`, `compose`, `dpow` and `convert` over all five
theories and over Q and small prime fields.  Expressions come from this
module's own `random.Random`, never from `diffmonads.generators`, so a change
to the library's generators cannot change the workload.  Three commands in
every block of 100 are malformed and must exit with code 2.  The known
contract breaks (malformed input that raises instead of exiting with 2) are
not in the timed mix, so that no timed operation fails; `KNOWN_BREAKS` is
run once per run, outside the timed loop, and reported on its own.

The mix is an assumption: no record of how the CLI is used exists, so no
choice below is measured.  Each one is either uniform or taken from the
library's own `check`, so that it adds no weight of its own:

* the command is uniform over the five, and the theory uniform over those
  the command accepts (`dpow` and `convert` take only divided powers, and
  the trivial theory has no product);
* the field is uniform over those of the acceptance configs: Q, F2, F3, F5;
* the cap is the CLI's default;
* the number of variables is uniform in 1..GenConfig.arity, as `check`
  draws it;
* an element has a uniform number of terms in 1..max_terms, each of a
  uniform degree in 1..max_degree (0..max_degree for poly) over uniformly
  drawn variables, with a coefficient uniform over the nonzero integers in
  GenConfig's range.  The bounds are GenConfig's defaults, and for the two
  sides of `compose` those `check` uses for a composite of random morphisms
  (`cdc._bounds` at depth 1);
* `dpow` raises to a power uniform in 1..max_degree.  An unbounded divided
  power such as ``dpow "x1+x2+x3+x4+x5+x6" 40`` is left out: it does not
  finish until the library bounds expansion sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BLOCK = 100
MALFORMED_AT = (32, 65, 98)
PRIMES = (2, 3, 5)  # the prime fields of the acceptance configs
COMMANDS = ("derive", "mul", "compose", "dpow", "convert")
THEORIES = ("poly", "power", "divided", "zinbiel", "trivial")
CAP = 6  # the CLI's default --cap
# GenConfig's defaults
ARITY = 3
MAX_DEGREE = 4
MAX_TERMS = 4
COEFFS = (-3, -2, -1, 1, 2, 3)
# (max_degree, max_terms) of each side of a composite, from cdc._bounds
COMPOSE_BOUNDS = {"poly": (4, 3), "divided": (3, 2), "zinbiel": (3, 2),
                  "power": (MAX_DEGREE, MAX_TERMS),
                  "trivial": (MAX_DEGREE, MAX_TERMS)}
FIXTURES = "bench/fixtures"

# Malformed commands that exit with code 2, as the CLI's contract says.
MALFORMED = [
    ("bad-character", ["derive", "--theory", "poly", "x1 $ x2"]),
    ("trivial-mul", ["mul", "--theory", "trivial", "x1", "x2"]),
    ("outside-arity", ["derive", "--arity", "1", "x1 + x2"]),
    ("over-cap", ["derive", "--theory", "power", "--cap", "2", "x1^3"]),
    ("unknown-option", ["mul", "--frobnicate", "x1", "x2"]),
    ("constant-in-series", ["derive", "--theory", "power", "--", "3 + x1"]),
]

# Malformed commands that should exit with code 2 but do not.
KNOWN_BREAKS = [
    ("field-F4", ["derive", "--theory", "power", "--field", "F4", "x1*x2"]),
    ("dpow-zero", ["dpow", "--", "x1^[2] + x2", "0"]),
    ("missing-file", ["compose", "--theory", "power",
                      f"@{FIXTURES}/missing.json", "/", "x1"]),
    ("no-components", ["compose", "--theory", "power",
                       f"@{FIXTURES}/no_components.json", "/", "x1"]),
]


@dataclass
class Command:
    """One CLI invocation and what its output is checked against."""

    argv: list
    command: str
    theory: str
    p: int | None
    cap: int | None
    inputs: object
    n: int | None = None
    expect: int = 0
    label: str = ""


# -- expression text ---------------------------------------------------------------


def _term_key(rng, theory: str, n: int, degree: int) -> str:
    if theory == "zinbiel":
        return ".".join(f"x{rng.randint(1, n)}" for _ in range(degree))
    exps: dict = {}
    for _ in range(degree):
        v = rng.randint(1, n)
        exps[v] = exps.get(v, 0) + 1
    if theory == "divided":
        return "*".join(f"x{v}^[{e}]" if e > 1 else f"x{v}"
                        for v, e in sorted(exps.items()))
    return "*".join(f"x{v}^{e}" if e > 1 else f"x{v}"
                    for v, e in sorted(exps.items()))


def expression(rng, theory: str, p: int | None, n: int,
               bounds: tuple = (MAX_DEGREE, MAX_TERMS)) -> str:
    """A random expression over x1..xn whose first term has a variable."""
    max_degree, max_terms = bounds
    if theory == "trivial":
        max_degree = 1
    elif theory == "power":
        max_degree = min(max_degree, CAP)
    low = 0 if theory == "poly" else 1
    coeffs = [c for c in COEFFS if p is None or c % p]
    pieces = []
    for k in range(rng.randint(1, max_terms)):
        degree = rng.randint(1 if k == 0 else low, max_degree)
        c = rng.choice(coeffs)
        if degree == 0:
            body = str(abs(c))
        else:
            key = _term_key(rng, theory, n, degree)
            body = key if abs(c) == 1 else f"{abs(c)}*{key}"
        if k == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


# -- command mix -------------------------------------------------------------------


def make_command(rng: random.Random) -> Command:
    kind = rng.choice(COMMANDS)
    p = rng.choice((None,) + PRIMES)
    field = "Q" if p is None else f"F{p}"
    if kind in ("dpow", "convert"):
        theory = "divided"
    elif kind == "mul":
        theory = rng.choice(THEORIES[:-1])
    else:
        theory = rng.choice(THEORIES)
    cap = {"power": CAP, "trivial": 1}.get(theory)
    if kind == "convert":
        argv = ["convert", "--field", field, "--"]
    else:
        argv = [kind, "--theory", theory, "--field", field, "--"]
    n = rng.randint(1, ARITY)
    if kind == "mul":
        a = expression(rng, theory, p, n)
        b = expression(rng, theory, p, n)
        return Command(argv + [a, b], kind, theory, p, cap, [a, b])
    if kind == "dpow":
        f = expression(rng, theory, p, n)
        k = rng.randint(1, MAX_DEGREE)
        return Command(argv + [f, str(k)], kind, theory, p, cap, [f], n=k)
    if kind != "compose":
        f = expression(rng, theory, p, n)
        return Command(argv + [f], kind, theory, p, cap, [f])
    m = rng.randint(1, ARITY)
    bounds = COMPOSE_BOUNDS[theory]
    outer = [expression(rng, theory, p, m, bounds)
             for _ in range(rng.randint(1, ARITY))]
    inner = [expression(rng, theory, p, n, bounds) for _ in range(m)]
    return Command(argv + outer + ["/"] + inner, kind, theory, p, cap,
                   [outer, inner])


def block(seed: int, index: int) -> list[Command]:
    """Commands of one block; the same (seed, index) gives the same block."""
    rng = random.Random(seed * 1_000_003 + index)
    out = []
    for i in range(BLOCK):
        if i in MALFORMED_AT:
            k = (len(MALFORMED_AT) * index + MALFORMED_AT.index(i)) \
                % len(MALFORMED)
            name, argv = MALFORMED[k]
            out.append(Command(list(argv), argv[0], None, None, None, None,
                               expect=2, label=name))
        else:
            out.append(make_command(rng))
    return out


def check_output(cmd: Command, stdout: str) -> str | None:
    """Recompute a successful command's result independently."""
    import oracles  # late: sympy must not count toward the workload's RSS

    if cmd.expect != 0:
        return None
    text = stdout.strip()
    if cmd.theory == "zinbiel" or cmd.command == "convert":
        return oracles.check_words(cmd.command, cmd.p, cmd.inputs, text)
    kind = "divided" if cmd.theory == "divided" else "series"
    return oracles.check_algebra(cmd.command, kind, cmd.p, cmd.cap,
                                 cmd.inputs, text, cmd.n)
