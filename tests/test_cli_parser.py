"""main parses a known command with that command's own parser; these
tests pin that its help and error text is that of the full parser, and how
many parsers a call builds.  Each build measures the terminal once and gives
its parsers a formatter of that width; their help, usage and error text is
that of argparse's own formatter, which measures the terminal itself."""

import argparse
import contextlib
import io
import re
import shutil
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diffmonads import cli
from diffmonads.errors import DiffmonadError


# the wall time of each axiom that check prints differs from run to run
_MILLIS = re.compile(r'\[\d+ ms\]|"millis": \d+')


def _captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, _MILLIS.sub("millis", out.getvalue()), err.getvalue()


def _full_parser_main(argv):
    """main as it runs on the parser of every command."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DiffmonadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


ARGVS = [
    (),
    ("--help",),
    *((name, "-h") for name in cli._COMMANDS),
    ("frob",),
    ("--json", "derive", "x1"),
    ("derive",),
    ("derive", "x1", "extra"),
    ("mul", "--frobnicate", "x1", "x2"),
    ("check", "--trials", "x"),
    ("derive", "--theory", "bogus", "x1"),
    ("derive", "--th", "zinbiel", "x1"),
    ("check", "--tim", "--trials", "1", "--theory", "trivial"),
    ("derive", "--jobs", "2", "x1"),
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_the_full_parser(argv):
    code, out, err = _captured(cli.main, argv)
    assert (code, out, err) == _captured(_full_parser_main, argv)
    assert code in (0, 2) and out + err


# command and option tokens, abbreviations, values, operands and strays;
# check is given --trials 1 first, so that none runs its 200 default trials
_TOKENS = (*cli._COMMANDS, "frob", "--theory", "--th", "zinbiel", "divided",
           "poly", "--field", "F5", "--cap", "--cap=4", "--ca=2", "--json",
           "--js", "--arity", "--arity=2", "--trials", "--tim", "--seed",
           "--jobs=2", "-h", "--help", "--he", "--frob", "-x", "--", "x1",
           "x1^[2]", "x1.x2", "/", "x2", "1", "2", "-3", "extra")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=8))
def test_any_argv_matches_the_full_parser(argv):
    if argv[:1] == ["check"]:
        argv[1:1] = ["--trials", "1"]
    assert _captured(cli.main, argv) == _captured(_full_parser_main, argv)


def test_a_missing_command_is_named():
    code, out, err = _captured(cli.main, [])
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: the following arguments are required: command\n")


def _parsers_built(monkeypatch, argv) -> int:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _captured(cli.main, argv)
    return len(built)


COMMAND_ARGVS = [
    ("derive", "x1"),
    ("compose", "x1", "/", "x2"),
    ("mul", "x1", "x2"),
    ("dpow", "x1^[1]", "2"),
    ("convert", "x1^[1]"),
    ("check", "--trials", "1", "--theory", "trivial"),
]


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_command_builds_one_parser(monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == 1


def test_leftover_arguments_build_the_full_parser_too(monkeypatch):
    assert _parsers_built(monkeypatch, ["derive", "x1", "extra"]) == \
        1 + 1 + len(cli._COMMANDS)


def test_help_builds_one_parser_per_command(monkeypatch):
    assert _parsers_built(monkeypatch, ["--help"]) == 1 + len(cli._COMMANDS)


# -- the terminal is measured once per build --------------------------------


def _terminal_probes(monkeypatch, argv) -> int:
    probes = []
    measure = shutil.get_terminal_size

    def counting_measure(*args, **kwargs):
        probes.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting_measure)
    _captured(cli.main, argv)
    return len(probes)


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_command_measures_the_terminal_once(monkeypatch, argv):
    """argparse's own formatter measures the terminal for every argument
    added (7 to 9 times for these commands)."""
    assert _terminal_probes(monkeypatch, argv) == 1


@pytest.mark.parametrize("argv, builds", [
    (("--help",), 1),
    (("derive", "x1", "extra"), 2),
], ids=["help", "leftover"])
def test_each_build_measures_the_terminal_once(monkeypatch, argv, builds):
    assert _terminal_probes(monkeypatch, argv) == builds


@contextlib.contextmanager
def _stock_formatter(monkeypatch):
    """Within it, every parser is built with argparse.HelpFormatter."""
    init = argparse.ArgumentParser.__init__

    def stock_init(self, *args, **kwargs):
        init(self, *args, **{**kwargs,
                             "formatter_class": argparse.HelpFormatter})

    with monkeypatch.context() as patched:
        patched.setattr(argparse.ArgumentParser, "__init__", stock_init)
        yield


def _parser_and_subparsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.values()


WIDTHS = [40, 80, 200]


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_and_usage_match_the_stock_formatter(monkeypatch, columns,
                                                  command):
    monkeypatch.setenv("COLUMNS", str(columns))
    built = list(_parser_and_subparsers(cli.build_parser(command)))
    with _stock_formatter(monkeypatch):
        stock = list(_parser_and_subparsers(cli.build_parser(command)))
    assert len(built) == len(stock) == (1 if command else
                                        1 + len(cli._COMMANDS))
    for ours, theirs in zip(built, stock):
        assert ours.formatter_class is not argparse.HelpFormatter
        assert theirs.formatter_class is argparse.HelpFormatter
        assert ours.format_usage() == theirs.format_usage()
        assert ours.format_help() == theirs.format_help()


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_the_stock_formatter(monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", str(columns))
    ours = _captured(cli.main, argv)
    with _stock_formatter(monkeypatch):
        assert ours == _captured(cli.main, argv)
