"""Benchmark of the bidouble package: one command, three seeded workloads.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory.  A run first times five set-up probes (a fresh
interpreter imports bidouble and builds the workload's inputs), then, in
this process and thread, repeats whole rounds of the workload's fixed
operation list, one operation at a time, while another round still fits in
``--seconds``.  Every result is checked against values worked out apart
from the package (see workloads.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it holds the per-layer metrics instead (see layers.py).  Each run also
writes its round and operation times, and when traced its full layer table,
to ``perfbench/out/``.  See README.md for what each metric means and which
metric each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
# Operation times are scaled to a host that runs _reference_s() in REFERENCE_S
# seconds (near its time on a shared 2-core x86 virtual machine).  The speed
# of such a host drifts by 25% and more in phases of seconds to minutes,
# longer than a run, and a slow phase slows the reference and the package
# alike; timing each operation against the reference run next to it takes
# that drift out.  Unscaled times go to the per-run file.  Set-up probes are
# not scaled: process start and file reads do not follow the reference.
REFERENCE_S = 0.008


def _reference_s() -> float:
    """Wall time of fixed standard-library work: Fraction arithmetic, JSON
    and an integer loop, the kinds of work the package does."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 270):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    json.dumps({str(i): [i, i * i, str(i)] for i in range(1300)})
    total = 0
    for i in range(27000):
        total += i * i % 7
    return time.perf_counter() - start


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="import bidouble, build the inputs and exit")
    return p.parse_args(argv)


def _setup_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _round(ops, tracer=None):
    """Run every operation once: [(ok, result, ns, scale)].

    Untraced, the reference runs before the first operation and after each
    one, and an operation's scale is REFERENCE_S over the mean of the two
    reference times around it.  Traced, the scale is None.
    """
    def body():
        out = []
        before = None if tracer else _reference_s()
        for op in ops:
            start = time.perf_counter_ns()
            try:
                result, ok = op.call(), True
            except Exception as exc:  # a failed operation is counted, not fatal
                result, ok = exc, False
            ns = time.perf_counter_ns() - start
            scale = None
            if tracer is None:
                after = _reference_s()
                scale, before = 2 * REFERENCE_S / (before + after), after
            out.append((ok, result, ns, scale))
        return out

    gc.collect()
    return tracer.run(body) if tracer else body()


class Tally:
    """Operations attempted and failed, every problem the checks found, and
    the operation times of untraced rounds.

    Operations with the same key must return equal results: within a round
    (a repeated command) and across rounds.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.failures: set[str] = set()
        self.first: dict[str, object] = {}
        self.by_key: dict[str, list[float]] = {}

    def add(self, results) -> None:
        """Tally one round; the times of a traced round are not kept."""
        for op, (ok, result, ns, scale) in zip(self.ops, results):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.add(f"{op.key}: {type(result).__name__}: {result}")
                continue
            if scale is not None:
                self.by_key.setdefault(op.key, []).append(ns * scale)
            problem = op.check(result)
            if problem:
                self.problems.append(f"{op.key}: {problem}")
            if op.key not in self.first:
                self.first[op.key] = result
            elif result != self.first[op.key]:
                self.problems.append(f"{op.key}: a repeat differs from the first result")

    def op_medians(self) -> list[float]:
        """Each successful operation's median time over the rounds, in
        list order (a repeated operation appears once per occurrence)."""
        return [statistics.median(self.by_key[op.key]) for op in self.ops
                if op.key in self.by_key]


def _repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while another call of median
    length still ends within ``seconds`` of the start."""
    start = time.perf_counter()
    spans = []
    while True:
        began = time.perf_counter()
        step()
        spans.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            return


def _timed_rounds(ops, seconds: float, tally: Tally) -> list[list[tuple]]:
    """Untraced rounds: each round's (ns, scale) per operation."""
    rounds = []

    def step():
        results = _round(ops)
        rounds.append([(ns, scale) for _, _, ns, scale in results])
        tally.add(results)

    _repeat(seconds, step)
    return rounds


def _traced_rounds(ops, seconds: float, tally: Tally):
    """Alternate untraced and traced rounds; per-layer metrics and the table."""
    from layers import LayerTracer, import_split
    plain, traced, tracers = [], [], []

    def step():
        results = _round(ops)
        plain.append(sum(ns for _, _, ns, _ in results))
        tally.add(results)
        tracer = LayerTracer(SRC / "bidouble")
        results = _round(ops, tracer)
        traced.append(sum(ns for _, _, ns, _ in results))
        tracers.append(tracer)
        tally.add(results)

    _repeat(seconds, step)
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers):
        tally.problems.append("layer counts differ between traced rounds")
    self_s = {k: statistics.median(t.self_ns[k] for t in tracers) / 1e9
              for k in sorted({k for t in tracers for k in t.self_ns})}
    imports = [import_split(ROOT) for _ in range(IMPORT_PROBES)]
    metrics = {f"import.{name}_ms": (statistics.median(
        i.get(name, 0.0) for i in imports), "ms") for name in ("bidouble", "numpy")}
    for name in ("lattice", "plane.fixed_part", "plane.matrix", "plane.rank",
                 "plane.oracle", "codes.weights", "codes.doubly_even",
                 "codes.kernel", "covers", "examples", "scenarios", "cli"):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    table = {"rounds_s": [w / 1e9 for w in plain],
             "traced_rounds_s": [w / 1e9 for w in traced],
             "self_s": self_s, "counts": counts,
             "calls": {f"{m}:{q}": n for (m, q), n in
                       sorted(tracers[0].calls.items())}}
    return metrics, table


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "bidouble" / "__init__.py").is_file():
        print(f"error: no bidouble package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import bidouble  # noqa: F401  (the import is what a probe times)
        workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
        return 0
    setup = [] if args.trace else [_setup_seconds(args)
                                   for _ in range(SETUP_PROBES)]
    ops = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
    tally = Tally(ops)
    if args.trace:
        metrics, table = _traced_rounds(ops, args.seconds, tally)
    else:
        rounds = _timed_rounds(ops, args.seconds, tally)
        scaled = [sum(ns * f for ns, f in r) / 1e9 for r in rounds]
        table = {"rounds_s": [sum(ns for ns, _ in r) / 1e9 for r in rounds],
                 "scaled_rounds_s": scaled, "setup_s": setup}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "op_p50_ms": (statistics.median(tally.op_medians()) / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    table["op_median_ms"] = {k: statistics.median(v) / 1e6
                             for k, v in tally.by_key.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(table, indent=2) + "\n", encoding="utf-8")
    for line in sorted(tally.failures) + tally.problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
