"""README's command-line examples print what it shows, and the demos run."""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ptq.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(command, expected stdout lines) for each `$ ptq ...` line of the
    README's "Command line" block; the output runs to the next blank line."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ ptq "), command
        examples.append((command[2:], output))
    return examples


@pytest.mark.parametrize("command, expected", readme_examples())
def test_readme_example(command, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert code == 0
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
