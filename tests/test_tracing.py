"""The benchmark tracer's contract with the package, run on perfbench/tracing.py as it stands.

The tracer looks names up in the package: the operator classes and their
apply methods, every public layer function, the storage of the operator
numeric_spectrum is given, and the eigensolvers the engine calls. Without
this test, a rename of one of them would break only traced benchmark runs.
"""

import importlib.util
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
