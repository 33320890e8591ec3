"""The three benchmark workloads as seeded streams of operations.

Every workload is a single-threaded closed loop: one client calls a public
entry point of the library, and the next call starts when the previous one
returns.  A workload is cut into rounds; round ``r`` at seed ``s`` is always
the same list of operations, so round 0 of a seed can be compared byte for
byte between two commits.

* ``suite``   -- `diffmonads check --json` for the 9 acceptance configs,
  through `cli.main`.  The paper's result and what CI and users run.
* ``mutants`` -- the near-miss combinators of `cdc.MUTATIONS` through
  `cdc.mutation_is_caught`, over Q and F5.  Most trials fail, so the
  early-exit and counterexample-formatting paths run.
* ``cli``     -- single `derive`/`mul`/`compose`/`dpow`/`convert` commands
  through `cli.main`; see `cli_workload`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

from diffmonads import GenConfig, cdc, cli, prime_field, rationals

import cli_workload
from tracing import AXIOMS


@dataclass
class Outcome:
    """What one call returned; ``error`` is an exception that escaped it."""

    code: int | None = None
    stdout: str = ""
    value: object = None
    error: str | None = None

    def digest(self) -> bytes:
        body = self.stdout if self.value is None else \
            json.dumps(self.value, sort_keys=True)
        return f"{self.code}\0{body}\0{self.error}\n".encode()


@dataclass
class Op:
    """One call of a public entry point and the check of its result."""

    label: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    trials: int = 1
    span: str | None = None


@dataclass
class Workload:
    name: str
    rounds: Callable[[int, int], list]
    theories: list
    configs: list = field(default_factory=list)
    trace_rounds_per_s: float = 1.0

    def trace_rounds(self, seconds: int) -> int:
        """Rounds in a traced run: fixed by --seconds, so counts repeat."""
        return max(1, int(seconds * self.trace_rounds_per_s))


def run_cli(argv: list) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        return Outcome(stdout=out.getvalue(), error=type(exc).__name__)
    return Outcome(code=code, stdout=out.getvalue())


def _field_name(p: int | None) -> str:
    return "Q" if p is None else f"F{p}"


def _field(p: int | None):
    return rationals() if p is None else prime_field(p)


def _round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


# -- suite -------------------------------------------------------------------------

SUITE_TRIALS = 20
SUITE_CONFIGS = [("poly", None, None), ("power", None, 4), ("power", 5, 4),
                 ("divided", None, None), ("divided", 2, None),
                 ("divided", 3, None), ("zinbiel", None, None),
                 ("zinbiel", 2, None), ("trivial", None, None)]


def _suite_label(kind, p, cap) -> str:
    return f"{kind}-{_field_name(p)}" + (f"-cap{cap}" if cap else "")


def _check_suite(seed: int, out: Outcome) -> str | None:
    if out.error or out.code != 0:
        return f"exit {out.code}, error {out.error}"
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        return "output is not JSON"
    reports = payload.get("reports", [])
    if [r.get("axiom") for r in reports] != list(AXIOMS):
        return "axiom list differs"
    if payload.get("passed") is not True or payload.get("seed") != seed:
        return "verdict is not pass"
    for r in reports:
        if r.get("trials") != SUITE_TRIALS or r.get("failures"):
            return f"{r.get('axiom')} reports a failure"
    return None


def _suite_round(seed: int, r: int) -> list:
    s = _round_seed(seed, r)
    ops = []
    for kind, p, cap in SUITE_CONFIGS:
        argv = ["check", "--json", "--theory", kind, "--field", _field_name(p),
                "--seed", str(s), "--trials", str(SUITE_TRIALS)]
        if cap:
            argv += ["--cap", str(cap)]
        label = _suite_label(kind, p, cap)
        ops.append(Op(label, lambda argv=argv: run_cli(argv),
                      lambda out, s=s: _check_suite(s, out),
                      trials=SUITE_TRIALS * len(AXIOMS),
                      span=f"cdc.config.{label}"))
    return ops


SUITE = Workload("suite", _suite_round,
                 [(k, p, cap or 6) for k, p, cap in SUITE_CONFIGS],
                 [_suite_label(*c) for c in SUITE_CONFIGS],
                 trace_rounds_per_s=0.2)


# -- mutants -----------------------------------------------------------------------

MUTANT_TRIALS = 10
MUTANT_FIELDS = (None, 5)


def _catch(mutation: str, p: int | None, seed: int) -> Outcome:
    try:
        counts = cdc.mutation_is_caught(mutation, _field(p),
                                        GenConfig(seed=seed),
                                        trials=MUTANT_TRIALS)
    except Exception as exc:  # an escaped exception is a failed operation
        return Outcome(error=type(exc).__name__)
    return Outcome(value=counts)


def _check_mutant(out: Outcome) -> str | None:
    if out.error:
        return f"error {out.error}"
    if not isinstance(out.value, dict) or list(out.value) != list(AXIOMS):
        return "axiom list differs"
    if not any(out.value.values()):
        return "mutant not caught"
    return None


def _mutant_round(seed: int, r: int) -> list:
    s = _round_seed(seed, r)
    ops = []
    for mutation in cdc.MUTATIONS:
        for p in MUTANT_FIELDS:
            label = f"{mutation}-{_field_name(p)}"
            ops.append(Op(label, lambda m=mutation, p=p: _catch(m, p, s),
                          _check_mutant, trials=MUTANT_TRIALS * len(AXIOMS),
                          span=f"cdc.config.{label}"))
    return ops


MUTANTS = Workload("mutants", _mutant_round,
                   [(kind, p, 6) for kind, _ in cdc.MUTATIONS.values()
                    for p in MUTANT_FIELDS],
                   [f"{m}-{_field_name(p)}" for m in cdc.MUTATIONS
                    for p in MUTANT_FIELDS],
                   trace_rounds_per_s=0.4)


# -- cli ---------------------------------------------------------------------------


def _check_command(cmd: cli_workload.Command, out: Outcome) -> str | None:
    if out.error:
        return f"exception {out.error} escaped main"
    if out.code != cmd.expect:
        return f"exit {out.code}, expected {cmd.expect}"
    return cli_workload.check_output(cmd, out.stdout)


def _cli_round(seed: int, r: int) -> list:
    return [Op(cmd.label or f"{cmd.command}-{cmd.theory}",
               lambda argv=cmd.argv: run_cli(argv),
               lambda out, cmd=cmd: _check_command(cmd, out))
            for cmd in cli_workload.block(seed, r)]


def known_breaks() -> list[tuple[str, str]]:
    """Run each known contract break once; (name, what it did) for those
    that still do not exit with code 2."""
    still = []
    for name, argv in cli_workload.KNOWN_BREAKS:
        out = run_cli(argv)
        if out.error or out.code != 2:
            still.append((name, out.error or f"exit {out.code}"))
    return still


CLI = Workload("cli", _cli_round,
               [(k, p, 6) for k in ("poly", "power", "divided", "zinbiel",
                                    "trivial")
                for p in (None,) + cli_workload.PRIMES],
               trace_rounds_per_s=1.5)

WORKLOADS = {w.name: w for w in (SUITE, MUTANTS, CLI)}
