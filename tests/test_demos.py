"""The demos run in process and print what they always printed."""

import contextlib
import hashlib
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


# the SHA-256 of each demo's standard output
_GOLDEN = {
    "01_lattice_walkthrough": "3b9c2b7bf1ae7a1e247640d524e2c11ddfde0d1744a6f84d44955378f39b1b7c",
    "02_interpolation": "ff32da03d03d9d8f1910138c3791fa4ab6046291072b6228b4116967e0ea9a14",
    "03_nodal_codes": "7b32f80d1afcb7099340a7a85651dddc6e30fd8910e8a430299bd841ddea2a6d",
    "04_cover_invariants": "bed394bfc375ad69ada8f3d1a372bc1f3e8bcdea55d095a884a171c73da40784",
    "05_degeneration": "430553efb0e29f775e838651763c1256e952ec10a96e76dc48d471fa52f98cf4",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = _run(path)
    assert out.strip()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _GOLDEN[path.stem]


def test_degeneration_demo_prints_the_affine_point():
    # the point is stored as the coprime triple (4, -3, 3); the demo prints
    # its affine form, as it did when points had Fraction coordinates
    lines = _run(DEMOS[4]).splitlines()
    assert "general point drawn: ('4/3', '-1', '1')" in lines


def test_codes_demo_prints_weights_in_ascending_order():
    lines = _run(DEMOS[2]).splitlines()
    assert "weights: {0: 1, 4: 1}  doubly even: True" in lines
    assert "weights: {0: 1, 4: 6, 8: 1}  doubly even: True" in lines
