"""Per-layer numbers for the bidouble benchmark, taken from outside the package.

``LayerTracer`` is a ``sys.settrace`` hook.  It keeps a stack of layers:
a call into a function of the package pushes that function's layer, and a
call into anything else (the standard library, numpy) keeps the caller's
layer.  Every interval between two profiler events is charged to the layer
on top of the stack, so a layer's self time is the time spent in it and in
the library code it calls, minus the time spent in other layers it calls.
The hook also counts calls at the layer boundaries the benchmark reports.

``import_split`` runs ``python -X importtime -c "import bidouble"`` and reads
the cumulative import times of bidouble and numpy.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# Layer of each package function, by module and top-level qualified name;
# nested functions and comprehensions belong to the function around them.
# Functions not listed here belong to the layer named by DEFAULT.  INHERIT
# marks a helper whose time belongs to whoever calls it.
INHERIT = None
STAGES = {
    "plane": {
        "interpolation_dimension": "plane.matrix",
        "_monomials": "plane.matrix",
        "_falling": "plane.matrix",
        "_derivative_value": "plane.matrix",
        "rank_rational": "plane.rank",
        "h0_class": "plane.fixed_part",
        "PointConfiguration.negative_entries": "plane.fixed_part",
        "_bounded_decompositions": "plane.oracle",
        "_decompositions_with_flag": "plane.oracle",
        "effective_decompositions": "plane.oracle",
    },
    "codes": {
        "weights": "codes.weights",
        "is_doubly_even": "codes.doubly_even",
        "_rref2": "codes.kernel",
        "_kernel2": "codes.kernel",
        "BinaryCode.elements": INHERIT,
    },
}
DEFAULT = {"plane": "plane.other", "codes": "codes.other"}

# counted calls: metric name -> (module, qualified name)
CALLS = {
    "lattice.classes_built": ("lattice", "DivisorClass.__post_init__"),
    "plane.h0_class.calls": ("plane", "h0_class"),
    "plane.interp.calls": ("plane", "interpolation_dimension"),
    "plane.oracle.calls": ("plane", "_bounded_decompositions"),
    "plane.oracle.nodes": ("plane", "_bounded_decompositions.<locals>.search"),
    "covers.invariants.calls": ("covers", "bidouble_invariants"),
    "covers.bicanonical.calls": ("covers", "bicanonical_decomposition"),
}
# the rank kernel's argument gives the interpolation matrix size
RANK = ("plane", "rank_rational")
# each code word enumerated is one value yielded by this generator
WORDS = ("codes", "BinaryCode.elements")


class LayerTracer:
    """Self time per layer and boundary counts; install with ``sys.settrace``.

    Only frames of the package are traced locally, and only for their
    return; every other frame costs one hook call and charges its time to
    the layer that called it.
    """

    def __init__(self, package_dir: Path):
        self.package_dir = str(package_dir) + os.sep
        self.codes: dict = {}          # code object -> (layer, (module, qualname))
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()   # (module, qualname) -> calls
        self.yields: Counter = Counter()  # (module, qualname) -> values yielded
        self.cells = 0
        self.stack = ["bench"]
        self.last = perf_counter_ns()

    def _classify(self, code):
        """(layer, (module, qualname)); no name for frames left untraced:
        code outside the package, and comprehensions and lambdas, whose
        time stays with the package function around them."""
        qualname = getattr(code, "co_qualname", code.co_name)
        if not code.co_filename.startswith(self.package_dir) or \
                code.co_name.startswith("<"):
            return INHERIT, None
        module = Path(code.co_filename).stem
        top = qualname.split(".<locals>.")[0]
        layer = STAGES.get(module, {}).get(top, DEFAULT.get(module, module))
        return layer, (module, qualname)

    def __call__(self, frame, event, arg):
        """Global hook: sees the 'call' event of every frame."""
        code = frame.f_code
        entry = self.codes.get(code)
        if entry is None:
            entry = self.codes[code] = self._classify(code)
        layer, name = entry
        if name is None:
            return None
        now = perf_counter_ns()
        stack = self.stack
        self.self_ns[stack[-1]] += now - self.last
        stack.append(stack[-1] if layer is INHERIT else layer)
        self.calls[name] += 1
        if name == RANK:
            rows = frame.f_locals["rows"]
            self.cells += len(rows) * len(rows[0]) if rows else 0
        frame.f_trace_lines = False
        self.last = perf_counter_ns()
        return self._local

    def _local(self, frame, event, arg):
        """Local hook of a package frame: pops its layer when it returns
        (or yields, or unwinds on an exception)."""
        if event == "return":
            now = perf_counter_ns()
            self.self_ns[self.stack.pop()] += now - self.last
            if arg is not None and frame.f_code.co_flags & inspect.CO_GENERATOR:
                self.yields[self.codes[frame.f_code][1]] += 1
            self.last = perf_counter_ns()
        return self._local

    def counts(self) -> dict[str, int]:
        out = {metric: self.calls[name] for metric, name in CALLS.items()}
        out["plane.interp.cells"] = self.cells
        out["codes.words_enumerated"] = self.yields[WORDS]
        return out

    def run(self, fn):
        """Call ``fn()`` with the hook installed."""
        self.last = perf_counter_ns()
        sys.settrace(self)
        try:
            return fn()
        finally:
            sys.settrace(None)
            self.self_ns[self.stack[-1]] += perf_counter_ns() - self.last


def import_split(root: Path) -> dict[str, float]:
    """Cumulative import times in ms of bidouble and numpy, in a fresh
    interpreter, from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import bidouble"], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("bidouble", "numpy"):
            out[parts[2].strip()] = int(parts[1]) / 1000
    return out
