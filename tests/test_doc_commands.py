"""Every documented ``python -m repro.harness`` command parses and prepares.

Commands are collected from README.md and EXPERIMENTS.md (``\\``
continuations joined), parsed by the CLI's own parser and, for runs,
prepared — flag combinations and ``-O`` options checked, each
experiment's ``prepare`` phase run — with the DES kernel disabled, so a
documented example cannot drift from the CLI.
"""

import shlex
from pathlib import Path

import pytest

from repro.harness.__main__ import parse_args, prepare_run
from repro.sim.core import Environment

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "python -m repro.harness "


def _documented_commands():
    for doc in ("README.md", "EXPERIMENTS.md"):
        text = (ROOT / doc).read_text().replace("\\\n", " ")
        for line in text.splitlines():
            if line.strip().startswith(PREFIX):
                yield doc, line.strip()


COMMANDS = list(_documented_commands())


def test_docs_show_the_cli():
    assert len(COMMANDS) >= 30
    assert {doc for doc, _ in COMMANDS} == {"README.md", "EXPERIMENTS.md"}


@pytest.mark.parametrize(
    "command",
    [cmd for _, cmd in COMMANDS],
    ids=[f"{doc}-{i}" for i, (doc, _) in enumerate(COMMANDS)],
)
def test_documented_command_parses_and_prepares(command, capsys, monkeypatch):
    def no_sim(*args, **kwargs):
        raise AssertionError("preparing a documented command must not simulate")

    monkeypatch.setattr(Environment, "__init__", no_sim)
    argv = shlex.split(command[len(PREFIX):], comments=True)
    try:
        args = parse_args(argv)
        if args.command == "run":
            experiments, _ = prepare_run(args)
            assert experiments
    except SystemExit:
        pytest.fail(f"{command!r} is rejected: {capsys.readouterr().err}")
