"""The README's examples run, and it names every command-line option.

Each fenced ``python`` block runs; each ``hdcca ...`` line of an ``sh`` block
parses with ``cli.build_parser()``; the untagged block is a spec file that
``io.parse_sim_config`` reads; and every option string of every subcommand,
``-h/--help`` aside, appears somewhere in the README.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from hdcca import cli
from hdcca import io as hio

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _blocks(tag):
    return [body for block_tag, body in BLOCKS if block_tag == tag]


def _hdcca_lines():
    return [line.split("#", 1)[0] for body in _blocks("sh")
            for line in body.splitlines() if line.startswith("hdcca ")]


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("code", _blocks("python"),
                         ids=lambda code: code.splitlines()[-1].split("#")[0].strip())
def test_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("line", _hdcca_lines())
def test_command_line_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])


def test_spec_block_parses(tmp_path):
    (spec,) = _blocks("")
    path = tmp_path / "spec.cfg"
    path.write_text(spec)
    hio.parse_sim_config(path)


def test_every_option_is_named():
    unnamed = [
        f"{name} {option}"
        for name, sub in _subparsers(cli.build_parser()).items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)
    ]
    assert not unnamed, f"options the README never names: {unnamed}"
