"""Smoke tests of the experiment scripts: each run() on a small configuration."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,args,outputs", [
    ("run_all_checks", (), [f"check_{m}_{c}.json" for m in ("free", "rotor") for c in "Qq"]),
    ("box_partner_report", (3.0, 101),
     ["box_spectrum.csv", "partner_spectrum.csv", "partner_table.csv"]),
    ("widening_box_scan", ("3,6", 300.0), ["widening_box_scan.csv"]),
])
def test_script_runs_and_writes_its_reports(tmp_path, name, args, outputs):
    with contextlib.redirect_stdout(io.StringIO()):
        code = _script(name).run(*args, tmp_path / "reports")
    assert code == 0
    for output in outputs:
        assert (tmp_path / "reports" / output).stat().st_size > 0
