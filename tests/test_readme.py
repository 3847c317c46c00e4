"""The README's library example runs as printed."""

import re
from pathlib import Path

import numpy as np

from siegelflow import BoundaryPolarization, GaussianSection

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
