"""main parses a known command with that command's own lean parser; these
tests pin that its output is that of the full parser, whose step main skips,
and how many parsers and terminal probes a call makes.  A command's parser
has no help, never formats and never measures the terminal: its help, usage
and errors come from the full parser, which formats with argparse's own
formatter.  Every text is checked at several terminal widths."""

import argparse
import contextlib
import io
import os
import re
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diffmonads import cli


# the wall time of each axiom that check prints differs from run to run
_MILLIS = re.compile(r'\[\d+ ms\]|"millis": \d+')


def _captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, _MILLIS.sub("millis", out.getvalue()), err.getvalue()


def _full_parser_main(argv):
    """main with its command-parser step patched away: every argv goes to
    the full parser."""
    build = cli.build_parser

    def full_parser_only(command=None):
        if command is not None:
            raise cli._CannotAnswer(command)
        return build()

    with mock.patch.object(cli, "build_parser", full_parser_only):
        return cli.main(argv)


COMMAND_ARGVS = [
    ("derive", "x1"),
    ("compose", "x1", "/", "x2"),
    ("mul", "x1", "x2"),
    ("dpow", "x1^[1]", "2"),
    ("convert", "x1^[1]"),
    ("check", "--trials", "1", "--theory", "trivial"),
]

# the corpus: each command with good operands and asking for help;
# abbreviations, errors of type, choice and count, and strays
ARGVS = [
    (),
    ("--help",),
    *COMMAND_ARGVS,
    *((name, flag) for name in cli._COMMANDS
      for flag in ("-h", "--help", "--he")),
    ("frob",),
    ("--json", "derive", "x1"),
    ("derive", "--the", "poly", "x1"),
    ("derive", "--ar", "2", "x1"),
    ("check", "--ti", "--trials", "1"),
    ("derive", "--cap", "x", "x1"),
    ("derive", "--theory", "bogus", "x1"),
    ("derive",),
    ("derive", "x1", "extra"),
    ("mul", "--frobnicate", "x1", "x2"),
    ("derive", "-x1"),
    ("derive", "--", "-x1"),
    ("derive", "--field", "F5", "--field", "F3", "x1"),
    ("check", "--trials", "x"),
    ("derive", "--th", "zinbiel", "x1"),
    ("check", "--tim", "--trials", "1", "--theory", "trivial"),
    ("derive", "--jobs", "2", "x1"),
]

WIDTHS = [40, 80, 200]


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_the_full_parser(monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", str(columns))
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
@given(st.lists(st.sampled_from(_TOKENS), max_size=8),
       st.sampled_from(WIDTHS))
def test_any_argv_matches_the_full_parser(argv, columns):
    if argv[:1] == ["check"]:
        argv[1:1] = ["--trials", "1"]
    with mock.patch.dict(os.environ, {"COLUMNS": str(columns)}):
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


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_command_builds_one_parser(monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == 1


@pytest.mark.parametrize("argv", [
    ("derive", "x1", "extra"),
    ("derive", "-h"),
    ("derive", "--cap", "x", "x1"),
], ids=["leftover", "help", "error"])
def test_the_command_parser_hands_over_to_the_full_parser(monkeypatch, argv):
    """Leftovers, -h among them, and errors are the full parser's to answer:
    one parser more than the full parser alone builds."""
    assert _parsers_built(monkeypatch, argv) == 1 + 1 + len(cli._COMMANDS)


def test_help_builds_one_parser_per_command(monkeypatch):
    assert _parsers_built(monkeypatch, ["--help"]) == 1 + len(cli._COMMANDS)


# -- a command's own parser never measures the terminal ----------------------


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
def test_a_command_never_measures_the_terminal(monkeypatch, argv):
    """argparse's own formatter measures the terminal for every argument
    added (7 to 9 times for these commands)."""
    assert _terminal_probes(monkeypatch, argv) == 0


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("derive", "x1", "extra"),
    ("derive", "-h"),
], ids=["help", "leftover", "command-help"])
def test_the_full_parser_wraps_at_the_terminal_width(monkeypatch, argv):
    """Help, a leftover's error and a command's help come from the full
    parser, and its formatter reads COLUMNS: the usage line that fits in 200
    columns wraps in 40."""
    texts = {}
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = _captured(cli.main, argv)
        texts[columns] = out + err
        assert code in (0, 2) and "usage: " in texts[columns]
    assert texts[40] != texts[200]
    # a usage line that wraps goes on in an indented line
    second = {columns: text.split("usage: ")[1].splitlines()[1]
              for columns, text in texts.items()}
    assert second[40].startswith(" ") and not second[200].startswith(" ")


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_command_translates_only_the_group_titles(monkeypatch, argv):
    """argparse looks up its own strings through gettext; the help of -h was
    a third lookup."""
    looked_up = []
    translate = argparse._

    def counting_translate(text):
        looked_up.append(text)
        return translate(text)

    monkeypatch.setattr(argparse, "_", counting_translate)
    _captured(cli.main, argv)
    assert looked_up == ["positional arguments", "options"]


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_command_parser_never_prints(capsys, argv):
    """No -h, and an error raises: neither prints help or usage."""
    parser = cli.build_parser(argv[0])
    assert not any(isinstance(action, argparse._HelpAction)
                   for action in parser._actions)
    assert parser.parse_known_args([*argv[1:], "-h", "--help"])[1] == \
        ["-h", "--help"]
    with pytest.raises(cli._CannotAnswer):
        parser.parse_known_args(["--cap"])
    assert capsys.readouterr() == ("", "")


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


def _formatting_parsers(command):
    """The full parser and its subparsers, or the subparser of ``command``:
    the parsers whose help, usage and errors main prints."""
    parsers = list(_parser_and_subparsers(cli.build_parser()))
    if command is None:
        return parsers
    return [p for p in parsers if p.prog == f"diffmonads {command}"]


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_and_usage_match_the_stock_formatter(monkeypatch, columns,
                                                  command):
    """Parsers built at another width format at the width of the terminal
    when they format, as stock parsers built at that width do: no width is
    fixed when a parser is built."""
    monkeypatch.setenv("COLUMNS", str(max(WIDTHS) + min(WIDTHS) - columns))
    built = _formatting_parsers(command)
    monkeypatch.setenv("COLUMNS", str(columns))
    with _stock_formatter(monkeypatch):
        stock = _formatting_parsers(command)
    assert len(built) == len(stock) == (1 if command else
                                        1 + len(cli._COMMANDS))
    for ours, theirs in zip(built, stock):
        assert ours.formatter_class is argparse.HelpFormatter
        assert ours.format_usage() == theirs.format_usage()
        assert ours.format_help() == theirs.format_help()


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_the_stock_formatter(monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", str(columns))
    ours = _captured(cli.main, argv)
    with _stock_formatter(monkeypatch):
        assert ours == _captured(cli.main, argv)
