#!/usr/bin/env python3
"""Benchmark of the diffmonads library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload {suite,mutants,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

With ``--trace 0`` the workload runs untraced for S seconds of whole rounds
and the end-to-end metrics are reported.  With ``--trace 1`` a fixed number
of rounds (set by S) runs untraced and then again with the per-layer
wrappers of `tracing` installed; the per-layer metrics and the tracing
overhead are reported and the spans are written to ``bench/out``.

Every result is checked after the timed loop.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every failed operation (a
wrong verdict, a wrong result, a wrong exit code, an escaped exception);
``correct`` is false when any operation failed, and then the exit status is
1.  The `cli` workload also runs the known CLI contract breaks once, outside
the timed loop, and reports which still break; they are not operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9

# (name, unit); every workload reports every one of them.
END_TO_END = [("setup_s", "s"), ("trials_per_s", "1/s"),
              ("cmd_ms.p50", "ms"), ("cmd_ms.p90", "ms"),
              ("peak_rss_mb", "MB")]


class Run:
    """The calls of one run: numbers in flat arrays, outcomes spooled to a
    file.  The operations themselves are made again from the seed for
    checking.  So the benchmark's own memory hardly grows with the number
    of calls, and a faster program does not show a larger peak RSS."""

    def __init__(self, phase: int = 0) -> None:
        self.phase = phase
        self.round = array("l")
        self.index = array("l")
        self.trials = array("l")
        self.start = array("d")
        self.seconds = array("d")
        self.scaled = array("d")
        OUT.mkdir(parents=True, exist_ok=True)
        self._spool = tempfile.TemporaryFile("w+", dir=OUT, encoding="utf-8")

    def __len__(self) -> int:
        return len(self.round)

    def add(self, r: int, i: int, trials: int, start: float,
            seconds: float, outcome) -> None:
        self.round.append(r)
        self.index.append(i)
        self.trials.append(trials)
        self.start.append(start)
        self.seconds.append(seconds)
        self._spool.write(json.dumps(vars(outcome)) + "\n")

    def outcomes(self):
        from workloads import Outcome

        self._spool.seek(0)
        for line in self._spool:
            yield Outcome(**json.loads(line))
        self._spool.close()


def measure_setup(theories: list) -> list[float]:
    """Scaled times of fresh interpreters that import diffmonads and build
    the workload's theories; one unmeasured run fills the bytecode cache."""
    code = ("import diffmonads as dm\n"
            f"for kind, p, cap in {theories!r}:\n"
            "    dm.make_theory(kind, dm.rationals() if p is None "
            "else dm.prime_field(p), cap)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = HostSpeed()
    spans = []
    for i in range(SETUP_REPEATS + 1):
        speed.probe()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        if i:
            spans.append((started, time.perf_counter()))
    speed.probe()
    return [(end - start) * speed.scale(start, end) for start, end in spans]


def run_rounds(workload, seed: int, *, seconds: float | None = None,
               rounds: int | None = None, tracer=None, phase: int = 0) -> Run:
    """Closed loop over whole rounds, until ``seconds`` or ``rounds``."""
    run = Run(phase)
    speed = HostSpeed()
    started = time.perf_counter()
    r = 0
    while True:
        for i, op in enumerate(workload.rounds(seed, r)):
            speed.probe_if_due()
            traced = tracer is not None and op.span is not None
            if tracer is not None:
                tracer.op = len(run)
            if traced:
                tracer.begin(op.span)
            t0 = time.perf_counter()
            outcome = op.call()
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end()
            run.add(r, i, op.trials, t0, elapsed, outcome)
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    speed.probe()
    run.scaled = array("d", (t * speed.scale(s, s + t)
                             for s, t in zip(run.start, run.seconds)))
    return run


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list
    digest: str
    digest_ops: int

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def evaluate(workload, seed: int, runs: list[Run]) -> Verdict:
    """Check every result; a later phase must repeat the first one's
    outputs exactly; hash the outputs of round 0."""
    failed = attempted = 0
    problems = []
    digest = hashlib.sha256()
    digest_ops = 0
    first: dict = {}
    ops: dict = {}
    for run in runs:
        for outcome, r, i in zip(run.outcomes(), run.round, run.index):
            if r not in ops:
                ops[r] = workload.rounds(seed, r)
            op = ops[r][i]
            attempted += 1
            problem = op.check(outcome)
            out = outcome.digest()
            if first.setdefault((r, i), out) != out:
                problem = problem or "output differs between phases"
            if problem:
                failed += 1
                problems.append(f"{op.label}: {problem}")
            if r == 0 and run.phase == 0:
                digest.update(out)
                digest_ops += 1
    return Verdict(attempted, failed, problems,
                   digest.hexdigest(), digest_ops)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(run: Run, setup: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "trials_per_s": sum(run.trials) / sum(run.scaled),
        "cmd_ms.p50": statistics.median(run.scaled) * 1000,
        "cmd_ms.p90": percentile(run.scaled, 90) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }


def _line(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def report_end_to_end(workload, values: dict, run: Run, setup) -> None:
    n = len(run)
    raw = run.seconds
    scaled = f"n={n}, scaled to host speed"
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters, "
                        "scaled to host speed",
             "trials_per_s": f"{sum(run.trials)} trials "
                             f"in {n} calls, {scaled}",
             "cmd_ms.p50": f"{scaled}; unscaled "
                           f"{statistics.median(raw) * 1000:.4g}",
             "cmd_ms.p90": f"{scaled}; unscaled "
                           f"{percentile(raw, 90) * 1000:.4g}",
             "peak_rss_mb": "this process"}
    for name, unit in END_TO_END:
        _line(name, values[name], unit, notes[name])
    # The same numbers under the names each workload is usually read by.
    if workload.name == "cli":
        _line("cmds_per_s", values["trials_per_s"], "1/s", scaled)
        _line("cmd_ms.p99", percentile(run.scaled, 99) * 1000, "ms", scaled)
    else:
        _line("check_s.p50", values["cmd_ms.p50"] / 1000, "s",
              f"{scaled}, one config per call")


def report_verdict(workload, verdict: Verdict, run: Run) -> None:
    _line("failed_frac", verdict.failed_frac, "ratio",
          f"{verdict.failed} failed of {verdict.attempted} attempted")
    print(f"outputs_sha256 {verdict.digest} (round 0, "
          f"{verdict.digest_ops} outputs)")
    rounds = max(run.round) + 1
    if workload.name == "cli":
        print(f"checked {verdict.attempted} commands in {rounds} blocks "
              f"against sympy and enumeration; all match: "
              f"{verdict.correct}")
        from workloads import known_breaks

        still = known_breaks()
        print(f"known contract breaks, run once untimed: {len(still)} "
              "still break" + "".join(f"; {n}: {what}" for n, what in still))
    else:
        what = "pass" if workload.name == "suite" else "are caught"
        print(f"checked {len(workload.configs)} configs x {rounds} rounds; "
              f"all {what}: {verdict.correct}")
    for problem in verdict.problems[:10]:
        print(f"PROBLEM {problem}")


def run_traced(workload, seed: int, seconds: int):
    from tracing import Tracer, layer_metric_names, unit_of
    from workloads import MUTANTS, SUITE

    rounds = workload.trace_rounds(seconds)
    plain = run_rounds(workload, seed, rounds=rounds)
    tracer = Tracer()
    tracer.install()
    try:
        # phase 1: evaluate() compares its outputs with the plain run's
        traced = run_rounds(workload, seed, rounds=rounds, tracer=tracer,
                            phase=1)
    finally:
        tracer.uninstall()
    overhead = sum(traced.scaled) / sum(plain.scaled) - 1
    names = layer_metric_names(SUITE.configs + MUTANTS.configs)
    values = tracer.metrics(names, overhead)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    for name in names:
        if name in values:
            _line(name, values[name], unit_of(name), "")
    if tracer.absent:
        print("absent: " + " ".join(tracer.absent))
    print(f"traced {rounds} rounds, {len(tracer.spans)} spans")
    return plain, traced, {n: (v, unit_of(n)) for n, v in values.items()}


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")
    if trace:
        plain, traced, metrics = run_traced(workload, seed, seconds)
        runs = [plain, traced]
    else:
        setup = measure_setup(workload.theories)
        runs = [run_rounds(workload, seed, seconds=seconds)]
        values = end_to_end(runs[0], setup)
        report_end_to_end(workload, values, runs[0], setup)
        metrics = {n: (values[n], unit) for n, unit in END_TO_END}
    verdict = evaluate(workload, seed, runs)
    report_verdict(workload, verdict, runs[0])
    result = {"correct": verdict.correct, "attempted": verdict.attempted,
              "failed": verdict.failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    return result


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays its own."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        ok = ok and proc.returncode == 0 and json.loads(last).get("correct")
    print(f"all workloads correct: {bool(ok)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "mutants", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diffmonads" / "__init__.py").is_file():
        print(f"error: no diffmonads sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))  # workloads and tracing import from here on
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
