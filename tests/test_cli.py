import json

import numpy as np
import pytest

from susyqm.cli import main


def run(tmp_path, *argv, name="out.txt"):
    path = tmp_path / name
    code = main([*argv, "--out", str(path)])
    return code, path.read_text()


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_box(tmp_path):
    code, text = run(tmp_path, "spectrum", "--model", "box", "--levels", "4")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,energy,parity,flag"
    rows = [l.split(",") for l in lines[1:]]
    energies = [float(r[1]) for r in rows]
    np.testing.assert_allclose(energies, [0.5, 2.0, 4.5, 8.0], rtol=1e-4)
    assert [r[2] for r in rows] == ["even", "odd", "even", "odd"]


def test_spectrum_free_headers_and_pairs(tmp_path):
    code, text = run(tmp_path, "spectrum", "--model", "free", "--L", "6.283185307179586",
                     "--levels", "5")
    assert code == 0
    assert "absent_at_base_even=false absent_at_base_odd=true" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
    flags = [l.split(",")[3] for l in lines]
    assert flags[0] == "unpaired"          # the lone zero mode
    assert flags[1] == flags[2] == "pair0"


def test_spectrum_delta_bound_flag(tmp_path):
    code, text = run(tmp_path, "spectrum", "--model", "delta", "--lambda", "1.0",
                     "--L", "40.0", "--points", "2001", "--levels", "3")
    assert code == 0
    assert "absent_at_base_even=true absent_at_base_odd=true" in text
    first = [l for l in text.splitlines() if not l.startswith("#")][1]
    assert "bound" in first.split(",")[3]
    assert float(first.split(",")[1]) == pytest.approx(-0.5, abs=1e-2)


def test_spectrum_rotor(tmp_path):
    code, text = run(tmp_path, "spectrum", "--model", "rotor", "--I", "1.0",
                     "--m-max", "3", "--levels", "5")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
    energies = [float(l.split(",")[1]) for l in lines]
    np.testing.assert_allclose(energies, [0, 0.5, 0.5, 2, 2], atol=1e-12)


def test_spectrum_units_header(tmp_path):
    _, text = run(tmp_path, "spectrum", "--model", "box", "--levels", "1")
    assert text.startswith("#")
    assert "hbar" in text.splitlines()[0]


# ---------------------------------------------------------------------------
# check

@pytest.mark.parametrize("model_args,charge,crit5_by_design", [
    (("--model", "free"), "Q", True),
    (("--model", "free"), "q", False),
    (("--model", "rotor", "--m-max", "6"), "Q", True),
    (("--model", "rotor", "--m-max", "6"), "q", False),
])
def test_check_passes(tmp_path, model_args, charge, crit5_by_design):
    code, text = run(tmp_path, "check", *model_args, "--charge", charge, name="r.json")
    assert code == 0
    report = json.loads(text)
    assert report["all_applicable_pass"] is True
    verdict5 = report["verdict_per_criterion"]["5"]
    assert verdict5["by_design_failure"] is crit5_by_design
    if crit5_by_design:
        assert "by design" in verdict5["detail"]
    for n in ("1", "2", "3", "4", "6"):
        assert report["verdict_per_criterion"][n]["satisfied"] is True


def test_check_refuses_dirichlet_model(tmp_path, capsys):
    code = main(["check", "--model", "box", "--charge", "Q",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "Dirichlet" in capsys.readouterr().err


def test_check_zero_point_reset(tmp_path):
    code, text = run(tmp_path, "check", "--model", "free", "--charge", "Q",
                     "--zero-point-reset", name="r.json")
    assert code == 0
    report = json.loads(text)
    assert report["zero_point_reset"] is True
    assert report["ground"]["energy"] == 0.0
    assert report["energy_shift"] == report["ground"]["raw_energy"]


def test_check_unreasonable_tolerance_fails_numerically(tmp_path, capsys):
    code = main(["check", "--model", "free", "--charge", "Q",
                 "--machine-tol", "1e-30", "--out", str(tmp_path / "r.json")])
    assert code == 3 or json.loads((tmp_path / "r.json").read_text())[
        "all_applicable_pass"] is False
    assert code == 3


# ---------------------------------------------------------------------------
# partner

def test_partner_box_report(tmp_path):
    code, text = run(tmp_path, "partner", "--model", "box", "--levels", "5")
    assert code == 0
    assert "missing_level_index=0" in text
    dev_line = next(l for l in text.splitlines()
                    if "v_minus_max_abs_deviation_from_analytic" in l)
    assert float(dev_line.split("=")[1]) < 1e-6
    spectra = text.split("n,E_plus,E_minus\n")[1].strip().splitlines()
    first = spectra[0].split(",")
    assert first[0] == "1" and first[2] == ""  # no partner level under E_1
    second = spectra[1].split(",")
    assert float(second[1]) == pytest.approx(float(second[2]), rel=1e-4)


def test_partner_rejects_other_models(tmp_path, capsys):
    code = main(["partner", "--model", "delta", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "supported models: box" in err


# ---------------------------------------------------------------------------
# scan

def test_scan_runs_and_passes(tmp_path):
    code, text = run(tmp_path, "scan", "--L-values", "4,8,16",
                     "--points-per-length", "150", "--levels", "3")
    assert code == 0
    assert "pairing_preserved=true" in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    e1 = [float(r[2]) for r in rows]
    assert e1[0] > e1[1] > e1[2]  # ground level sinks as the box widens
    assert e1[1] / e1[0] == pytest.approx(0.25, abs=1e-3)


def test_scan_needs_two_lengths(tmp_path, capsys):
    code = main(["scan", "--L-values", "4", "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_scan_underresolved_grid_fails_numerically(tmp_path, capsys):
    code = main(["scan", "--L-values", "4,8", "--points-per-length", "3",
                 "--levels", "2", "--out", str(tmp_path / "s.csv")])
    assert code == 3
    assert "scan assertion failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eq5

def test_eq5_machine_exact_with_dispersion(tmp_path):
    code, text = run(tmp_path, "eq5", "--points", "64")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    worst = max(float(v) for r in rows for v in r[2:])
    assert worst <= 1e-12


def test_eq5_without_dispersion_shows_truncation_error(tmp_path):
    code, text = run(tmp_path, "eq5", "--points", "64", "--no-dispersion",
                     "--k-values", "4")
    assert code == 0
    row = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1]
    assert float(row[2]) > 1e-4  # O(h^2) error is visible


def test_eq5_incommensurate_wavenumber(tmp_path, capsys):
    code = main(["eq5", "--k-values", "1.05", "--out", str(tmp_path / "e.csv")])
    assert code == 2
    assert "commensurate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# general behavior

def test_bad_parameter_exits_with_config_code(tmp_path, capsys):
    code = main(["spectrum", "--model", "box", "--L", "-1.0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "box", "--points", "101", "--levels", "0"],
    ["spectrum", "--model", "box", "--points", "101", "--levels", "-3"],
    ["partner", "--model", "box", "--points", "101", "--levels", "0"],
    ["scan", "--L-values", "2,4", "--points-per-length", "20", "--levels", "0"],
    ["spectrum", "--model", "box", "--points", "101", "--L", "inf"],
    ["check", "--model", "free", "--charge", "q", "--points", "64", "--L", "1e-300"],
    ["eq5", "--points", "64", "--k-values", "nan"],
])
def test_degenerate_input_exits_with_config_code(tmp_path, capsys, argv):
    try:
        code = main([*argv, "--out", str(tmp_path / "x.txt")])
    except SystemExit as exc:  # argparse rejects the value while parsing
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "rotor", "--m-max", "4", "--levels", "9"],
    ["check", "--model", "free", "--charge", "q"],
    ["partner", "--model", "box", "--points", "801"],
    ["eq5", "--points", "64"],
])
def test_reports_are_byte_identical_across_runs(tmp_path, argv):
    _, first = run(tmp_path, *argv, name="a.txt")
    _, second = run(tmp_path, *argv, name="b.txt")
    assert first == second


def test_stdout_default(capsys):
    code = main(["spectrum", "--model", "rotor", "--m-max", "2", "--levels", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n,energy,parity,flag" in out
