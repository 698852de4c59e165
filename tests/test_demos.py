"""The demos run in process and print what they always printed."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def _run(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_five_demos():
    assert [p.name for p in DEMOS] == [
        "01_lattice_walkthrough.py", "02_interpolation.py",
        "03_nodal_codes.py", "04_cover_invariants.py", "05_degeneration.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    assert _run(path).strip()


def test_degeneration_demo_prints_the_affine_point():
    # the point is stored as the coprime triple (4, -3, 3); the demo prints
    # its affine form, as it did when points had Fraction coordinates
    lines = _run(DEMOS[4]).splitlines()
    assert "general point drawn: ('4/3', '-1', '1')" in lines


def test_codes_demo_prints_weights_in_ascending_order():
    lines = _run(DEMOS[2]).splitlines()
    assert "weights: {0: 1, 4: 1}  doubly even: True" in lines
    assert "weights: {0: 1, 4: 6, 8: 1}  doubly even: True" in lines
