"""Every command of README's "Command line" block runs and says what it
says, and its "Layout" block lists every module of the package."""

import glob
import json
import os
import shlex

from hivekron.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_commands():
    """argv lists of the `hivekron ...` lines in the Command line block."""
    with open(README) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("hivekron ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 7
    outputs = {}
    for argv in commands:
        assert main(argv) == 0, argv
        outputs[argv[0]] = capsys.readouterr().out
    assert outputs["coeff"].strip() == "1"
    assert outputs["oracle"].strip() == "5"
    doc = json.loads((tmp_path / "cone.json").read_text())
    assert len(doc["facets"]) == 43


def test_readme_layout_lists_every_module():
    with open(README) as fh:
        block = fh.read().split("## Layout", 1)[1].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line.startswith("  ") and line.split()}
    src = os.path.join(os.path.dirname(README), "src", "hivekron", "*.py")
    modules = {os.path.basename(p) for p in glob.glob(src)} - {"__init__.py"}
    assert modules and modules <= listed, sorted(modules - listed)
