"""What ``import diffmonads`` loads, and the CLI in fresh interpreters.

The other tests import every module up front, so a name used before its
module is loaded cannot show there.  These run each command in its own
interpreter, check which modules an import and a command load, and check
that the package exports the names it always did.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffmonads as dm
from diffmonads import category, cdc
from diffmonads.cli import main

SRC = str(Path(dm.__file__).resolve().parent.parent)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    this tree."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this tree."""
    return subprocess.run([sys.executable, *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)


def run_in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# One argv that exits 0 and one that exits 2 for each command, and one with
# an operand left over, which main parses again with the full parser.
CLI_CASES = [
    (0, ("derive", "--theory", "zinbiel", "x1.x2")),
    (2, ("derive", "--theory", "zinbiel", "x1..x2")),
    (0, ("compose", "--theory", "divided", "x1^[2]", "/", "x1^[2]*x2^[1]")),
    (2, ("compose", "--theory", "poly", "x1", "x2")),
    (0, ("mul", "--theory", "zinbiel", "--json", "x1", "x2")),
    (2, ("mul", "--theory", "trivial", "x1", "x1")),
    (0, ("dpow", "x1^[2]", "3")),
    (2, ("dpow", "--cap", "4", "x1", "2")),
    (0, ("convert", "x1^[1]*x2^[1]")),
    (2, ("convert", "--cap", "4", "x1")),
    (0, ("check", "--theory", "power", "--field", "F5", "--cap", "4",
         "--json", "--trials", "2")),
    (2, ("check", "--theory", "trivial", "--trials", "0")),
    (2, ("derive", "x1", "extra")),  # leftovers: the full parser's error
]


@pytest.mark.parametrize(
    "code, argv", CLI_CASES,
    ids=[f"{argv[0]}-{'leftover' if 'extra' in argv else code}"
         for code, argv in CLI_CASES])
def test_each_command_in_a_fresh_interpreter(code, argv):
    done = fresh_python("-m", "diffmonads.cli", *argv)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout, done.stderr) == run_in_process(argv)


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ("derive", "x1"),
    ("check", "--theory", "trivial", "--trials", "2", "--json"),
], ids=["derive", "check"])
def test_a_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    """stdout is a pipe whose read end is closed before the command runs, as
    in ``diffmonads derive x1 | true``: main exits 2, and neither it nor the
    flush at shutdown writes to stderr, with or without buffered stdout."""
    read, write = os.pipe()
    os.close(read)
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        done = subprocess.run([sys.executable, "-m", "diffmonads.cli", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, "")


LOADED = """
import json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(name for name in {names!r}
                        if name in sys.modules and name not in before)))
"""
DEFERRED = ("dataclasses", "inspect", "diffmonads.cdc",
            "diffmonads.generators", "diffmonads.syntax")


def loaded_by(body: str, names=DEFERRED) -> list:
    """Which of ``names`` a fresh interpreter loads running ``body``."""
    done = fresh_python("-c", LOADED.format(body=body, names=names))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_building_every_theory_loads_no_generators_syntax_or_dataclasses():
    assert loaded_by("import diffmonads as dm\n"
                     "for kind in dm.THEORIES:\n"
                     "    dm.make_theory(kind, dm.rationals())") == []


def test_generators_load_for_check_and_not_for_derive():
    generators = ("diffmonads.generators",)
    assert loaded_by("from diffmonads import cli\n"
                     "assert cli.main(['derive', 'x1*x2']) == 0",
                     generators) == []
    assert loaded_by("from diffmonads import cli\n"
                     "assert cli.main(['check', '--theory', 'trivial', "
                     "'--trials', '1']) == 0", generators) == \
        list(generators)


def test_cdc_loads_generators_and_generators_load_no_cdc():
    names = ("diffmonads.cdc", "diffmonads.generators")
    assert loaded_by("import diffmonads.generators", names) == \
        ["diffmonads.generators"]
    assert loaded_by("import diffmonads.cdc", names) == list(names)
    assert loaded_by("import diffmonads as dm\n"
                     "assert dm.check_all is dm.cdc.check_all", names) == \
        list(names)


FAILING_RUN = """
theory = dm.MutatedTheory("zinbiel-last-letter", dm.rationals())
report = dm.cdc.run_axiom("dc.4", theory, dm.GenConfig(seed=7), 5)
"""


def test_a_failure_report_loads_syntax_when_it_is_written():
    done = fresh_python("-c", "import json, sys\nimport diffmonads as dm\n" +
                        FAILING_RUN +
                        "assert 'diffmonads.syntax' not in sys.modules\n"
                        "print(json.dumps(report.to_json()))")
    assert done.returncode == 0, done.stderr
    here: dict = {"dm": dm}
    exec(FAILING_RUN, here)
    assert here["report"].failures
    assert done.stdout == json.dumps(here["report"].to_json()) + "\n"


# Every public name of the package, by its defining module.
EXPORTS = {
    "category": ("THEORIES", "Morphism", "Theory", "codiagonal", "compose",
                 "diagonal", "differentiate", "identity", "injection",
                 "interchange_map", "is_dlinear", "lift_map", "linearize",
                 "make_theory", "pairing", "product_map", "projection"),
    "cdc": ("AxiomReport", "MutatedTheory", "check_all", "mutation_is_caught"),
    "dividedpower": ("DPElement",),
    "element": ("Element",),
    "errors": ("ArityError", "DiffmonadError", "DivisionByZero",
               "MixedFields", "NonIntegralQuotient", "NotReduced",
               "ParseError", "ShapeMismatch", "TooLarge"),
    "generators": ("GenConfig", "SplitMix64", "enumerate_basis", "mix",
                   "random_element", "random_morphism", "stable_hash"),
    "powerseries": ("EMPTY_INDEX", "MultiIndex", "SeriesElement"),
    "scalars": ("FieldSpec", "Scalar", "binomial", "dp_power_coeff",
                "multinomial", "prime_field", "rationals"),
    "syntax": ("format_element", "parse_element", "variable_name"),
    "zinbiel": ("ZinElement", "divided_to_zinbiel", "right_nested"),
}
DEFINED = {name: getattr(importlib.import_module(f"diffmonads.{module}"), name)
           for module, names in EXPORTS.items() for name in names} | \
    {module: importlib.import_module(f"diffmonads.{module}")
     for module in EXPORTS}


def test_every_public_name_is_still_exported():
    assert sorted(dm.__all__) == sorted(DEFINED)
    assert set(DEFINED) <= set(dir(dm))
    star: dict = {}
    exec("from diffmonads import *", star)
    for name, obj in DEFINED.items():
        assert getattr(dm, name) is obj, name
        assert star[name] is obj, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'integrate'"):
        dm.integrate
    assert not hasattr(dm, "integral_candidate")


def test_records_keep_their_repr_and_equality():
    assert repr(dm.GenConfig()) == (
        "GenConfig(seed=0, arity=3, max_degree=4, max_terms=4, "
        "coeff_min=-3, coeff_max=3)")
    assert dm.GenConfig(seed=7) == dm.GenConfig(7)
    assert dm.GenConfig(seed=7) != dm.GenConfig(seed=7, arity=2)

    first, second = cdc.AxiomReport("CD.1", 3), cdc.AxiomReport("CD.1", 3)
    assert first == second and first.failures is not second.failures
    assert repr(first) == \
        "AxiomReport(axiom='CD.1', trials=3, failures=[], millis=0)"
    failure = cdc.Failure(1, {"t": "x1"}, "x1", "0")
    second.failures.append(failure)
    assert first != second and first.passed and not second.passed
    assert repr(failure) == \
        "Failure(seed=1, inputs={'t': 'x1'}, lhs='x1', rhs='0', base=None)"
    assert failure == cdc.Failure(1, {"t": "x1"}, "x1", "0", None)
    assert failure != cdc.Failure(1, {"t": "x1"}, "x1", "0", 1)
    assert failure != (1, {"t": "x1"}, "x1", "0", None)

    spec = dm.THEORIES["poly"]
    assert repr(spec).startswith(
        "TheorySpec(name='Polynomial', element=<class "
        "'diffmonads.powerseries.SeriesElement'>, cap=None, cap_option=False, "
        "reduced=False, bounds={1: (4, 3), 2: (3, 2)}, product=")
    assert spec == category.TheorySpec(spec.name, spec.element, spec.cap,
                                       spec.cap_option, spec.reduced,
                                       spec.bounds, spec.product)
    assert spec != dm.THEORIES["power"]
