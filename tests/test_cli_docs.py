"""The documented ``ramiel`` command lines parse with the real CLI parser.

Every ``ramiel ...`` line in README.md's code blocks and in
``repro.cli``'s module docstring is fed to ``_build_parser().parse_args``
(parsed only, never run); every ``--executor`` value the two documents
name is a registered session executor; and every subcommand the parser
knows is mentioned in the README.  A flag deleted from a verb cannot live
on in the docs.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

import repro.cli as cli
from repro.runtime.session import EXECUTOR_REGISTRY

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
DOCS = {"README.md": README, "repro.cli docstring": cli.__doc__}


def _command_lines(text: str):
    """The ``ramiel ...`` lines of ``text``, continuation lines joined."""
    lines, pending = [], None
    for raw in text.splitlines():
        line = raw.strip()
        if pending is not None:
            line, pending = f"{pending} {line}", None
        elif not line.startswith("ramiel "):
            continue
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
        else:
            lines.append(line)
    return lines


def _documented():
    readme_blocks = "\n".join(re.findall(r"```[^\n]*\n(.*?)```", README, re.S))
    return ([("README.md", line) for line in _command_lines(readme_blocks)]
            + [("repro.cli docstring", line)
               for line in _command_lines(cli.__doc__)])


def _verbs(parser: argparse.ArgumentParser):
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sorted(sub.choices)


def test_documented_command_lines_parse(capsys):
    documented = _documented()
    sources = {source for source, _ in documented}
    assert sources == set(DOCS) and len(documented) >= 20, documented
    parser = cli._build_parser()
    failures = []
    for source, line in documented:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            failures.append(f"{source}: {line}\n  "
                            f"{capsys.readouterr().err.strip().splitlines()[-1]}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("source", sorted(DOCS))
def test_documented_executors_are_registered(source):
    named = [name for spelled in re.findall(r"--executor[ =]([\w|]+)",
                                            DOCS[source])
             for name in spelled.split("|")]
    assert named, f"{source} names no --executor value"
    assert sorted(set(named) - set(EXECUTOR_REGISTRY)) == []


def test_every_subcommand_is_in_the_readme():
    missing = [verb for verb in _verbs(cli._build_parser())
               if not re.search(rf"ramiel {re.escape(verb)}(?![\w-])", README)]
    assert missing == []
