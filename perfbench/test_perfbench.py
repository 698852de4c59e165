"""Quick tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that each checker flags a planted wrong answer, that a tiny run
of every workload completes with and without tracing, that the benchmark
refuses to run without the package sources, and that per-run output is
ignored by git.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# operations per round that fail today because of known faults
KNOWN_FAILURES = {"cli-session": 1, "h0-ladder": 0, "code-ladder": 1}


def test_h0_checks_flag_off_by_one():
    for op in workloads.h0_ladder(3, tiny=True):
        value = op.call()
        assert op.check(value) is None, op.key
        assert op.check(value + 1) is not None, op.key
        assert op.check(value - 1) is not None, op.key


def test_cli_h0_check_flags_off_by_one():
    check = workloads.check_h0_text(5, (1, 2, 1, 2, 2, 2, 1))
    line = "h0(degree 5, mults [1, 2, 1, 2, 2, 2, 1]) = {}\n"
    assert check((0, line.format(6), "")) is None
    assert check((0, line.format(7), "")) is not None


def test_weights_check_flags_a_sample():
    from bidouble.codes import de_code, weights
    assert workloads.check_weights(workloads.de_weights(6))(
        weights(de_code(6))) is None
    # past the enumeration cap weights() returns a 1024-word sample
    sample = weights(de_code(22))
    assert workloads.check_weights(workloads.de_weights(22))(sample) is not None


def test_random_code_check_flags_a_wrong_count():
    ops = [op for op in workloads.code_ladder(5, tiny=True)
           if op.key.startswith("weights random")]
    assert ops
    for op in ops:
        got = dict(op.call())
        assert op.check(got) is None
        got[0] += 1
        assert op.check(got) is not None


def test_paper_check_flags_a_wrong_invariant():
    from bidouble.cli import main
    result = workloads.run_cli(
        main, ["custom", str(workloads.DATA / "example2.json")])
    assert workloads.check_custom_json(result) is None
    rc, out, err = result
    planted = out.replace('"K2_minimal": 6', '"K2_minimal": 7')
    assert planted != out
    assert workloads.check_custom_json((rc, planted, err)) is not None
    planted = out.replace('"h0_invariant": 6', '"h0_invariant": 5')
    assert workloads.check_custom_json((rc, planted, err)) is not None


def test_tally_flags_a_repeat_that_differs():
    op = Op("same", lambda: None, lambda result: None)
    tally = run.Tally([op, op])
    tally.add([(True, "a", 1, 1.0), (True, "a", 1, 1.0)])
    assert tally.problems == []
    tally.add([(True, "a", 1, 1.0), (True, "b", 1, 1.0)])
    assert tally.problems


def test_tally_counts_failures_apart_from_problems():
    op = Op("boom", lambda: None, lambda result: None)
    tally = run.Tally([op])
    tally.add([(False, ValueError("x"), 1, 1.0)])
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def _run(*extra, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    per_round = len(workloads.BUILDERS[workload](7, tiny=True))
    assert result["attempted"] % per_round == 0
    rounds = result["attempted"] // per_round
    assert result["failed"] == rounds * KNOWN_FAILURES[workload]
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("--workload", "h0-ladder", "--seed", "1", "--seconds", "1",
                    cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_gitignore_covers_per_run_output():
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert "/perfbench/out/" in lines
    assert run.OUT == ROOT / "perfbench" / "out"
