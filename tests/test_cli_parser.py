"""main builds the parser of the command it runs alone; these tests pin
that its help and error text is that of the full parser, and how many
parsers a call builds."""

import argparse
import contextlib
import io
import sys

import pytest

from diffmonads import cli
from diffmonads.errors import DiffmonadError


def _captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


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
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_the_full_parser(argv):
    code, out, err = _captured(cli.main, argv)
    assert (code, out, err) == _captured(_full_parser_main, argv)
    assert code in (0, 2) and out + err


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


@pytest.mark.parametrize("argv", [
    ("derive", "x1"),
    ("compose", "x1", "/", "x2"),
    ("mul", "x1", "x2"),
    ("dpow", "x1^[1]", "2"),
    ("convert", "x1^[1]"),
    ("check", "--trials", "1", "--theory", "trivial"),
], ids=lambda argv: argv[0])
def test_a_command_builds_two_parsers(monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == 2


def test_help_builds_one_parser_per_command(monkeypatch):
    assert _parsers_built(monkeypatch, ["--help"]) == 1 + len(cli._COMMANDS)
