"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from shearwave import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("completed 1.0")


def cli_examples():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()]
    return [line for line in lines if re.match(r"shearwave (run|compare|convergence)\b", line)]


def test_cli_examples_are_found():
    assert len(cli_examples()) == 7


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_parses(line, monkeypatch):
    # the commands are stubbed: the arguments and the configuration go
    # through the CLI's own parsing, and nothing is integrated
    seen = []
    for name in ("cmd_run", "cmd_compare", "cmd_convergence"):
        monkeypatch.setattr(cli, name, lambda cfg, *args, **kwargs: seen.append(cfg) or 0)
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(line)[1:]) == 0
    assert len(seen) == 1
