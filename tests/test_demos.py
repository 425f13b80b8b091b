"""Every demo script runs end to end against the public API."""

from pathlib import Path
import runpy

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():  # demos set print options; keep them out of later tests
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
