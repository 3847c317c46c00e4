"""The README's library example and CLI examples run as printed."""

import io
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from siegelflow import BoundaryPolarization, GaussianSection
from siegelflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    profile = scope["profile"].section
    assert isinstance(profile, GaussianSection) and profile.frame.close_to(BoundaryPolarization.position(1))
    values = profile.value(np.array([[0.0], [1.0]]))
    assert values.shape == (2,) and np.isfinite(values).all()
    assert capsys.readouterr().out.strip()


def _cli_block() -> str:
    """The ``## CLI`` sh block without its comment lines, ``\\`` continuations joined."""
    block = re.search(r"## CLI\s.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return "\n".join(line for line in block.replace("\\\n", " ").splitlines() if not line.lstrip().startswith("#"))


def _cli_examples():
    """(argv, stdin) of each ``echo '<json>' | siegelflow <args>`` and each ``siegelflow <args>`` line."""
    text = _cli_block()
    piped = re.findall(r"^echo '(.*?)'\s*\|\s*siegelflow ([^\n]*)", text, re.S | re.M)
    plain = re.findall(r"^siegelflow ([^\n]*)", text, re.M)
    return [(shlex.split(args, comments=True), doc) for doc, args in piped + [("", a) for a in plain]]


def test_cli_examples_cover_the_block():
    argvs = [argv for argv, _ in _cli_examples()]
    assert len(argvs) == _cli_block().count("siegelflow ")
    assert {"geodesic", "transport", "verify"} <= {word for argv in argvs for word in argv}


@pytest.mark.parametrize("argv, stdin", [pytest.param(*ex, id=" ".join(ex[0])) for ex in _cli_examples()])
def test_cli_example_runs(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    assert json.loads(out.out)["passed"] is True
