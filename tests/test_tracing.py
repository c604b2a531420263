"""The benchmark tracer's contract with the package, run on perfbench/tracing.py as it stands.

The tracer looks names up in the package: the operator classes and their
apply methods, every public layer function, the storage of the operator
numeric_spectrum is given, and the eigensolvers the engine calls. Without
this test, a rename of one of them would break only traced benchmark runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from susyqm import cli, engine, operators as ops

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_each_call_once_and_restores_the_package(tmp_path):
    tracing = _tracing()
    originals = (ops.MixedOperator.apply, engine.numeric_spectrum, engine.eigh_tridiagonal,
                 np.linalg.eigh, cli.main)
    tracer = tracing.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        codes = [cli.main([*argv, "--out", str(tmp_path / "out.txt")]) for argv in (
            ["check", "--model", "rotor", "--charge", "q", "--m-max", "4"],
            ["spectrum", "--model", "box", "--points", "101", "--levels", "4"])]
    finally:
        tracer.remove()
    wall = time.perf_counter() - start
    assert codes == [0, 0]
    spans = tracer.spans
    names = [span[0] for span in spans]
    for name in ("operators.apply", "engine.numeric_spectrum", "engine.eigh_tridiagonal",
                 "cli.main"):
        assert name in names, name
    # one wrapper per call: no apply span has an apply span among its ancestors
    for span in spans:
        if span[0] == "operators.apply":
            parent = span[3]
            while parent >= 0:
                assert spans[parent][0] != "operators.apply"
                parent = spans[parent][3]
    assert not any(span[4] for span in spans)  # no traced call raised
    summary = tracing.summarize(spans, wall, passes=1)
    assert summary["operators.apply.calls"] == names.count("operators.apply")
    assert summary["engine.numeric_spectrum.tridiag_calls"] >= 1
    assert summary["trace.spans"] == len(spans)
    assert (ops.MixedOperator.apply, engine.numeric_spectrum, engine.eigh_tridiagonal,
            np.linalg.eigh, cli.main) == originals


def test_tracer_installs_and_removes_where_lapack_is_not_loaded_yet(tmp_path):
    # the engine binds scipy.linalg's names on first use: wrapping one loads
    # them, the traced solves go through the wrapper, and removal restores them
    code = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from susyqm import cli, engine
before = "scipy.linalg" in sys.modules
tracer = tracing.Tracer()
tracer.install()
try:
    code = cli.main(["spectrum", "--model", "box", "--points", "101", "--levels", "4",
                     "--out", {str(tmp_path / "out.txt")!r}])
finally:
    tracer.remove()
import scipy.linalg
print(json.dumps([before, code, [s[0] for s in tracer.spans].count("engine.eigh_tridiagonal"),
                  engine.eigh_tridiagonal is scipy.linalg.eigh_tridiagonal]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TRACING.parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    before, code, solves, restored = json.loads(proc.stdout)
    assert not before and code == 0 and solves >= 1 and restored
