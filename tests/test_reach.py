"""Only code a job runs stays in src/: every def of the program is called
by a benchmark job or a corpus case, or is on KEEP with its reason.

The probe runs in a fresh interpreter under sys.setprofile: each job of
the four workloads of perfbench/workloads.py once at seed 3 (its inputs
written to a scratch directory), then `corpus corpus` from the repository
root.  A def is reached when its code object was called.  Defs are listed
with ast, methods and closures included, and named by their qualified
name.  Code that only tests read belongs in tests/oracles.py."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nonarch_lab"

TRACER = ("perfbench/tracing.py wraps it by name until the benchmark reads its counters "
          "from the program")
REPR = "an error message or a debugger shows it"
RING = "the polynomial ring interface that hilbert and the tests build on"

KEEP = {
    "_kernels.backend": "perfbench/run.py prints it in the header of each run",
    "arith_core.Ball.__repr__": REPR,
    "arith_core.MultiPoly.__repr__": REPR,
    "arith_core.MultiPoly.constant": RING,
    "arith_core.MultiPoly.variable": RING,
    "arith_core.MultiPoly.__bool__": RING,
    "arith_core.MultiPoly.__mul__": RING,
    "arith_core.MultiPoly.__rmul__": RING,
    "arith_core.MultiPoly.__pow__": RING,
    "arith_core.MultiPoly.__eq__": RING,
    "arith_core.MultiPoly.__hash__": RING,
    "detmethod._point_str": "names a point in det-cover's bound-violation messages",
    "detmethod.exact_det": TRACER,
    "detmethod._integer_rows": "clears the rows of exact_det",
    "detmethod.DetBoundReport.to_json": "the benchmark change replaces "
                                        "workloads._det_report_json with it",
    "heights.hk_poly": TRACER,
    "heights.h0": "hk_poly's height of a rational",
    "heights.NotFound.__repr__": "the repr of hk_poly's not-found sentinel",
    "hilbert.HilbertTable.standard_monomials": TRACER,
    "taylor.PolyMap.__repr__": REPR,
}

PROBE = r"""
import contextlib, io, json, os, sys, tempfile, threading

sys.path[:0] = ["src", "perfbench"]
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
threading.setprofile(profile)
import workloads
from nonarch_lab import cli

with tempfile.TemporaryDirectory() as work:
    workloads.write_inputs(work)
    for name in workloads.WORKLOADS:
        for job in workloads.build_jobs(name, work, 3)[0]:
            job.run()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["corpus", "corpus"])
sys.setprofile(None)
threading.setprofile(None)
src = os.path.abspath(os.path.join("src", "nonarch_lab"))
print(json.dumps({"corpus_exit": code, "called": sorted(
    [os.path.basename(c.co_filename), c.co_firstlineno] for c in called
    if os.path.dirname(os.path.abspath(c.co_filename)) == src)}))
"""


def program_defs():
    """{(file name, first line of the def's code object): qualified name}
    of every def under src/nonarch_lab; a decorated def's code object
    starts at its first decorator."""
    defs = {}

    def walk(node, fname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[fname, first] = prefix + child.name
                walk(child, fname, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, fname, f"{prefix}{child.name}.")
            else:
                walk(child, fname, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, path.stem + ".")
    return defs


def test_every_def_is_reached_or_kept():
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["corpus_exit"] == 0
    called = {tuple(key) for key in probe["called"]}
    defs = program_defs()
    assert len(defs) > 150  # the walk found the program
    never = sorted(name for key, name in defs.items() if key not in called)
    assert never == sorted(KEEP)
