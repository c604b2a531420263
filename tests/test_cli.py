import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyqm import cli, engine, operators as ops, partner
from susyqm.cli import UNITS, _csv_rows, _report_json, build_parser, fmt, main
from susyqm.errors import NumericalContractError, ParameterError, PotentialEvaluationError
from susyqm.grid import MAX_POINTS, build_grid
from susyqm.models import DeltaWell, FreeParticle, PlanarRotor

ROOT = Path(__file__).resolve().parents[1]


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
    # the free particle's zero-energy base state, rounded below zero by less
    # than the solver's accuracy (about eps * ||H||_1), is not bound
    for length in ("3.141592653589793", "0.01"):
        code, text = run(tmp_path, "spectrum", "--model", "free", "--L", length,
                         "--points", "100000", "--levels", "3")
        assert code == 0
        first = [l for l in text.splitlines() if not l.startswith("#")][1].split(",")
        assert float(first[1]) < 0
        assert first[3] == "unpaired"


def test_a_sector_whose_window_floor_lies_above_the_cut_counts_no_level(monkeypatch, tmp_path):
    # the even ground (about -3.2e5) lies below the odd block's window floor
    # (about -4.2e3), so the odd block's count returns 0 before any bisection
    count, below_floor = engine._count_at_or_below, []

    def spy(sector, x):
        floor = -2.0 * engine._tridiag_norm1(sector.diag, sector.offdiag) - 1.0
        found = count(sector, x)
        below_floor.append((x <= floor, found))
        return found

    monkeypatch.setattr(engine, "_count_at_or_below", spy)
    code, text = run(tmp_path, "spectrum", "--model", "delta", "--lambda", "1e4",
                     "--points", "101", "--levels", "1")
    assert code == 0
    assert (True, 0) in below_floor
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1 and rows[0][3] == "unpaired;bound"
    h = engine.model_operators(DeltaWell(1e4, np.pi), 101)[0]
    lowest = np.linalg.eigvalsh(h.to_dense())[0]
    assert float(rows[0][1]) == pytest.approx(lowest, rel=0,
                                              abs=4 * np.finfo(float).eps * engine._norm1(h))


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


def test_free_check_pairs_the_top_levels_at_4096_points(tmp_path):
    # the relative spacing of the top pairs, about (pi/n)^2, is below pair_tol here
    code, text = run(tmp_path, "check", "--model", "free", "--charge", "q",
                     "--points", "4096", "--L", "9.42", name="r.json")
    assert code == 0
    report = json.loads(text)
    assert len(report["pairs"]) == 2047
    assert report["unpaired"] == [0, 4095] and report["artifact_indices"] == [4095]


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


def test_csv_rows_match_fmt_bytes():
    values = [-0.0, 0.0, 5e-324, 2.5e-310, np.inf, -np.inf, np.nan, 1.0 / 3.0,
              *10.0 ** np.arange(-8, 9), *(-np.pi * 10.0 ** np.arange(-8, 9))]
    values += [1.0] * (-len(values) % 4)
    columns = np.reshape(values, (-1, 4)).T
    expected = "".join(",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))
    assert _csv_rows(*columns) == expected


def test_csv_rows_print_other_columns_with_str():
    ints, floats, labels = np.arange(3), np.array([0.1, -2.0, np.inf]), ["even", "odd", ""]
    expected = "".join(f"{i},{fmt(x)},{label}\n" for i, x, label in zip(ints, floats, labels))
    assert _csv_rows(ints, floats, labels) == expected
    assert _csv_rows(np.arange(0), np.empty(0)) == ""


def test_check_dict_is_plain_json_data_that_aliases_no_record():
    report = engine.build_check(PlanarRotor(1.0, 5000), "q")
    data = report.to_dict()
    # json refuses numpy scalars, such as a numpy.bool_ verdict
    assert json.loads(json.dumps(data, sort_keys=True))["verdict_per_criterion"]["1"][
        "satisfied"] is True
    data["ground"]["energy"] = data["algebra"]["closure"] = None
    data["verdict_per_criterion"][1]["satisfied"] = None
    assert report.ground.energy == 0.0 and report.algebra.closure == 0.0
    assert report.verdicts[1].satisfied is True


def _assert_same_text(text, expected):
    """text == expected, shown by the first differing line; a diff of 4 MB strings takes minutes."""
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("zero_point_reset", [False, True])
@pytest.mark.parametrize("charge", ["Q", "q"])
@pytest.mark.parametrize("model,n_points", [(FreeParticle(6.0), 64), (PlanarRotor(0.7, 40), None)])
def test_report_json_is_the_indenting_encoders_bytes(model, n_points, charge, zero_point_reset):
    data = engine.build_check(model, charge, n_points=n_points,
                              zero_point_reset=zero_point_reset).to_dict()
    # %r would print a numpy scalar as np.float64(...); the long lists hold Python numbers
    assert {type(v) for pair in data["pairs"] for v in pair.values()} == {int, float}
    assert {type(i) for i in data["unpaired"]} == {int}
    payload = {"units": UNITS, **data}
    _assert_same_text(_report_json(payload), json.dumps(payload, indent=2, sort_keys=True))


_SPREAD = (np.random.default_rng(7).random(50000) * 10.0 ** np.arange(-25, 25)[
    np.arange(50000) % 50]).tolist()


@pytest.mark.parametrize("deltas,unpaired", [
    ([], []),
    (_SPREAD, [0, 100001]),
    ([float("nan"), float("inf"), -float("inf"), np.float64(0.1), -0.0, 1e300, 5e-324], [0]),
], ids=["empty", "50000_pairs", "nonfinite"])
def test_report_json_writes_any_long_lists_as_json_does(deltas, unpaired):
    payload = {"units": UNITS, "model": "m", "ground": {"energy": 0.0, "degeneracy_count": 1},
               "pairs": [{"index_even": 2 * k + 1, "index_odd": 2 * k + 2, "abs_delta_e": d}
                         for k, d in enumerate(deltas)],
               "unpaired": unpaired, "zero_point_reset": False}
    _assert_same_text(_report_json(payload), json.dumps(payload, indent=2, sort_keys=True))


def test_a_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    argvs = [
        ["check", "--model", "rotor", "--charge", "q", "--m-max", "3", "--zero-point-reset"],
        ["check", "--model", "rotor", "--charge", "q", "--m-max", "3"],
        ["spectrum", "--model", "free", "--points", "16", "--levels", "5"],
        ["check", "--model", "rotor", "--charge", "q", "--m-max", "0"],
        ["check", "--model", "rotor", "--charge", "Q", "--m-max", "3"],
    ]

    def outcome(i, argv, fresh):
        if fresh:
            build_parser.cache_clear()
        out = tmp_path / f"{'fresh' if fresh else 'reused'}{i}"
        code = main([*argv, "--out", str(out)])
        return code, out.read_bytes() if out.exists() else None, capsys.readouterr().err

    assert build_parser() is build_parser()
    reused = [outcome(i, argv, False) for i, argv in enumerate(argvs)]
    fresh = [outcome(i, argv, True) for i, argv in enumerate(argvs)]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
    assert reused[0][1] != reused[1][1]  # the reset flag did not carry over
    for argv in argvs:
        assert vars(build_parser().parse_args(argv)) == vars(
            build_parser.__wrapped__().parse_args(argv))


@pytest.mark.parametrize("m_max", [0, -2])
def test_a_rotor_cutoff_below_one_is_refused_in_one_line(tmp_path, capsys, m_max):
    with pytest.raises(ParameterError) as refused:
        PlanarRotor(1.0, m_max)
    line = f"m_max must be at least 1, got {m_max}"
    assert str(refused.value) == line
    for argv in (["spectrum", "--model", "rotor"], ["check", "--model", "rotor", "--charge", "q"]):
        assert main([*argv, "--m-max", str(m_max), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"configuration error: {line}\n"


# Reports whose every value is exact, so the eigensolver's last digits cannot
# move them: their bytes pin the report format.
@pytest.mark.parametrize("golden,argv", [
    ("check_rotor_q_m2.json", ["check", "--model", "rotor", "--charge", "q", "--m-max", "2"]),
    ("spectrum_rotor_m2.csv", ["spectrum", "--model", "rotor", "--m-max", "2",
                               "--levels", "5"]),
    ("check_rotor_charge_Q_m2.json", ["check", "--model", "rotor", "--charge", "Q",
                                      "--m-max", "2"]),
    ("check_rotor_charge_Q_m2_zero_point_reset.json",
     ["check", "--model", "rotor", "--charge", "Q", "--m-max", "2", "--zero-point-reset"]),
])
def test_report_matches_golden_file(tmp_path, golden, argv):
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert text == (ROOT / "tests" / "data" / golden).read_text(encoding="utf-8")


def _readme_commands():
    """The susyqm lines of README's "Command line" block, without their comments."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("susyqm ")]


def test_readme_command_examples_exit_zero(tmp_path):
    commands = _readme_commands()
    assert len(commands) == 10
    for i, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0, argv


def test_partner_rejects_other_models(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partner", "--model", "delta", "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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


def test_a_negative_scan_length_is_refused_as_its_grid_refuses_it(tmp_path, capsys):
    # a negative density would make the point count of a negative length
    # positive: the scan refuses the density first, in its own words
    code = main(["scan", "--L-values=-3,-2", "--points-per-length=-200",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: points_per_length must be positive and finite, got -200.0\n")


def test_a_scan_refuses_an_oversized_length_before_its_first_solve(monkeypatch, tmp_path,
                                                                  capsys):
    solved = []
    solve = partner.numeric_spectrum
    monkeypatch.setattr(partner, "numeric_spectrum",
                        lambda *a, **kw: solved.append(a) or solve(*a, **kw))
    code = main(["scan", "--L-values", "1,1e300", "--points-per-length", "10", "--levels", "2",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: length 1e+300 at 10 points per unit length gives "
                   f"more than the {MAX_POINTS} points a grid may have\n")
    assert max(map(len, re.findall(r"\d+", err))) <= 12
    assert not solved  # not even the length-1 box before it


@pytest.mark.parametrize("levels", ["-1", "0"])
def test_a_scan_refuses_a_level_count_below_one_before_any_solve(monkeypatch, tmp_path, capsys,
                                                                  levels):
    solved = []
    solve = partner.numeric_spectrum
    monkeypatch.setattr(partner, "numeric_spectrum",
                        lambda *a, **kw: solved.append(a) or solve(*a, **kw))
    code = main(["scan", "--L-values", "3,6", "--levels", levels,
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: a scan needs at least 1 level, got {levels}\n")
    assert not solved  # not even the first length's box
    assert not (tmp_path / "s.csv").exists()


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


def test_eq5_refuses_an_empty_wavenumber_list(tmp_path, capsys):
    for values in (",", ""):
        code = main(["eq5", "--points", "14", "--k-values", values,
                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--k-values is empty" in err[0]


def test_eq5_never_applies_an_operator_per_row(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("eq5 applied a charge to one wave at a time")

    monkeypatch.setattr(ops.MixedOperator, "apply", refuse)
    code, text = run(tmp_path, "eq5", "--points", "1024")
    assert code == 0
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 1 + 513


def test_eq5_rows_match_fmt_bytes(tmp_path):
    _, text = run(tmp_path, "eq5", "--points", "64", "--k-values", "0,3,-5,32,3",
                  "--no-dispersion")
    rows = engine.eq5_action_table(build_grid(np.pi, 64, "periodic"), [0, 3, -5, 32, 3],
                                   substitute_dispersion=False)
    body = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert body == [",".join(fmt(v) for v in (r.k, r.k_discrete, r.dev_q_cos, r.dev_q_sin,
                                             r.dev_qdag_sin, r.dev_qdag_cos)) for r in rows]


def test_eq5_incommensurate_wavenumber(tmp_path, capsys):
    code = main(["eq5", "--k-values", "1.05", "--out", str(tmp_path / "e.csv")])
    assert code == 2
    assert "commensurate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# general behavior

def test_eq5_refuses_wavenumbers_too_large_to_be_commensurate(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eq5", "--L", "6.28", "--points", "14", "--k-values", "1e300",
                     "--no-dispersion", "--out", str(tmp_path / "e.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: wavenumber")


def test_overflowing_rotor_inertia_is_refused_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", "--model", "rotor", "--I", "5e-324",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *[["spectrum", "--model", "box", "--points", "4001", "--levels", "33", "--L", length]
      for length in ("1e-60", "1e-40", "1e40", "1e60")],
    ["spectrum", "--model", "delta", "--L", "2.645377822988262e-61", "--levels", "4"],
])
def test_a_spectrum_at_an_extreme_length_is_solved_without_warnings(tmp_path, capsys, argv):
    # shift-invert Lanczos once overflowed or divided by zero at these scales of H
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("length,points", [("1", "2048"), ("0.5", "1024")])
def test_free_ground_energy_within_solver_accuracy_passes(tmp_path, length, points):
    # E0 is about 0.2 eps ||H||_1 here: 3.6e-10 and 3.0e-10, above the fixed 1e-10
    code, text = run(tmp_path, "check", "--model", "free", "--charge", "q", "--L", length,
                     "--points", points)
    report = json.loads(text)
    assert abs(report["ground"]["energy"]) > 1e-10
    assert code == 0, report["verdict_per_criterion"]


@pytest.mark.parametrize("argv", [
    ["check", "--model", "rotor", "--charge", "q", "--m-max", "4", "--points", "64"],
    ["spectrum", "--model", "rotor", "--m-max", "4", "--points", "64"],
])
def test_rotor_refuses_points(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "x.txt")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --model rotor does not read --points\n")


_BASE_ARGV = {
    "spectrum": ["spectrum", "--model", "box", "--points", "101", "--levels", "2"],
    "check": ["check", "--model", "free", "--charge", "q", "--points", "16"],
    "partner": ["partner", "--model", "box", "--points", "101", "--levels", "2"],
    "scan": ["scan", "--L-values", "3,6", "--points-per-length", "300"],
    "eq5": ["eq5", "--points", "16"],
}


@pytest.mark.parametrize("command,flag", [
    *[(c, ["--format", "csv"]) for c in _BASE_ARGV],
    *[(c, ["--rep", "standing"]) for c in ("spectrum", "check", "partner")],
    *[(c, ["--machine-tol", "1e-12"]) for c in ("spectrum", "partner", "scan", "eq5")],
    *[(c, ["--pair-tol", "1e-6"]) for c in ("partner", "scan", "eq5")],
    *[(c, ["--convergence-tol", "1e-4"]) for c in ("spectrum", "check", "partner", "eq5")],
    *[("partner", flag) for flag in (["--lambda", "1"], ["--I", "1"], ["--m-max", "8"])],
])
def test_flags_that_changed_nothing_are_refused(tmp_path, capsys, command, flag):
    argv = [*_BASE_ARGV[command], "--out", str(tmp_path / "x.txt")]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


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
    ["scan", "--L-values", "1,2", "--points-per-length", "1"],
    ["scan", "--L-values", "5e-324,1", "--points-per-length", "1e300", "--levels", "2"],
    ["spectrum", "--model", "box", "--points", "101", "--L", "inf"],
    ["check", "--model", "free", "--charge", "q", "--points", "64", "--L", "1e-300"],
    ["eq5", "--points", "64", "--k-values", "nan"],
    ["spectrum", "--model", "box", "--points", "0"],
    ["check", "--model", "free", "--charge", "q", "--points", "0"],
    ["partner", "--model", "box", "--points", "0"],
    ["eq5", "--points", "0"],
    ["eq5", "--points", "14", "--k-values", ","],
    ["check", "--model", "rotor", "--charge", "q", "--m-max", "4", "--points", "0"],
    ["spectrum", "--model", "rotor", "--m-max", "4", "--points", "-5"],
    ["spectrum", "--model", "box", "--points", "101", "--levels", "2", "--m-max", "4",
     "--I", "0", "--lambda", "-3"],
    ["spectrum", "--model", "rotor", "--L", "5"],
    ["spectrum", "--model", "free", "--points", "8", "--levels", "6", "--pair-tol", "nan"],
    ["check", "--model", "rotor", "--charge", "q", "--m-max", "3", "--machine-tol", "inf"],
    ["check", "--model", "rotor", "--charge", "q", "--m-max", "3", "--machine-tol", "-1"],
    ["check", "--model", "rotor", "--charge", "q", "--m-max", "3", "--pair-tol", "0"],
    ["scan", "--L-values", "3,6", "--convergence-tol", "-1"],
    ["scan", "--L-values", "3,6", "--convergence-tol", "nan"],
    ["scan", "--L-values", "3,6", "--convergence-tol", "inf"],
    ["scan", "--L-values", "1,x"],
    ["check", "--model", "free", "--charge", "q", "--pair-tol", "abc"],
    # a step of 1e-150 squares to 1e-300: the Hamiltonian's entries overflow when squared
    ["spectrum", "--model", "box", "--L", "1e-150", "--points", "11"],
])
def test_degenerate_input_exits_with_config_code(tmp_path, capsys, argv):
    try:
        code = main([*argv, "--out", str(tmp_path / "x.txt")])
    except SystemExit as exc:  # argparse rejects the value while parsing
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # one line names the refusal: the package's own, or argparse's after its usage text
    lines = err.splitlines()
    assert lines[-1].startswith(("configuration error: ", f"susyqm {argv[0]}: error: "))
    assert len(lines) == 1 or lines[0].startswith("usage: ")


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
    # a re-run over the report overwrites the same file in place
    inode = (tmp_path / "a.txt").stat().st_ino
    _, again = run(tmp_path, *argv, name="a.txt")
    assert again == first
    assert (tmp_path / "a.txt").stat().st_ino == inode


def test_stdout_default(capsys):
    code = main(["spectrum", "--model", "rotor", "--m-max", "2", "--levels", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n,energy,parity,flag" in out


# ---------------------------------------------------------------------------
# report files, overwritten in place

_BOX = ["spectrum", "--model", "box", "--points", "101"]


def test_a_shorter_report_over_a_longer_one_leaves_only_its_own_bytes(tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert main([*_BOX, "--levels", "8", "--out", str(path)]) == 0
    longer = path.read_bytes()
    assert main([*_BOX, "--levels", "2", "--out", str(path)]) == 0
    assert main([*_BOX, "--levels", "2"]) == 0
    shorter = capsys.readouterr().out.encode()
    assert len(shorter) < len(longer)
    assert path.read_bytes() == shorter


def test_a_new_report_takes_the_mode_open_gives(tmp_path):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert main([*_BOX, "--levels", "2", "--out", str(tmp_path / "r.csv")]) == 0
    finally:
        os.umask(umask)
    mode = (tmp_path / "r.csv").stat().st_mode & 0o777
    assert mode == (tmp_path / "reference").stat().st_mode & 0o777
    assert mode == 0o666 & ~0o022


def test_a_report_to_the_null_device_exits_zero(capsys):
    assert main([*_BOX, "--levels", "2", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_the_report_is_opened_without_truncating(monkeypatch, tmp_path):
    path, opens, real_open = str(tmp_path / "r.csv"), [], os.open

    def spy(file, flags, *args, **kwargs):
        if file == path:
            opens.append(flags)
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    assert main([*_BOX, "--levels", "2", "--out", path]) == 0
    assert len(opens) == 1
    assert not opens[0] & os.O_TRUNC


@pytest.mark.parametrize("target", [("missing", "dir", "r.csv"), ()],
                         ids=["missing-directory", "directory"])
def test_an_unwritable_out_is_refused_in_one_line(tmp_path, capsys, target):
    path = tmp_path.joinpath(*target)
    assert main([*_BOX, "--levels", "2", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith(f"configuration error: cannot write the report to {str(path)!r}: ")


# ---------------------------------------------------------------------------
# exit-code contract under fuzzed argv

# lengths, couplings and inertias: finite, infinite, NaN and tiny values
_ANY_FLOAT = st.one_of(
    st.floats(min_value=-10.0, max_value=1e3).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "0", "-0.0", "1e-300", "5e-324", "1e300"]))
# scan lengths and points per length stay small, so a scan grid stays below 64 points
_SMALL_FLOAT = st.one_of(
    st.floats(min_value=-1.0, max_value=8.0).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "0", "1e-300", "5e-324"]))
_POINTS = st.integers(min_value=-2, max_value=64)
_M_MAX = st.integers(min_value=-2, max_value=16)
_LEVELS = st.integers(min_value=-2, max_value=8)


def _flag(name, values):
    return values.map(lambda v: [name, str(v)])


def _joined(parts):
    return st.tuples(*parts).map(lambda ps: [arg for part in ps for arg in part])


_MODEL_FLAG_VALUES = {"--L": _ANY_FLOAT, "--lambda": _ANY_FLOAT, "--I": _ANY_FLOAT,
                      "--m-max": _M_MAX, "--points": _POINTS}
# the model flags each model reads; the others are refused
_READS = {"box": ["--L", "--points"], "sec2": ["--L", "--points"],
          "free": ["--L", "--points"], "delta": ["--L", "--lambda", "--points"],
          "rotor": ["--I", "--m-max"]}
_MODELS = list(_READS)


def _model(models, unread=False):
    """--model and, each optional, the flags it reads; with unread, one flag it does not read."""
    def flags(model):
        parts = [st.just(["--model", model])]
        parts += [st.one_of(st.just([]), _flag(f, _MODEL_FLAG_VALUES[f])) for f in _READS[model]]
        if unread:
            parts.append(st.sampled_from([f for f in _MODEL_FLAG_VALUES if f not in _READS[model]])
                         .flatmap(lambda f: _flag(f, _MODEL_FLAG_VALUES[f])))
        return _joined(parts)

    return st.sampled_from(models).flatmap(flags)


@st.composite
def _scan_that_can_pass(draw):
    """scan over strictly increasing positive lengths, each at 20 to 60 grid points."""
    lengths = [draw(st.floats(min_value=1.0, max_value=8.0))]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        lengths.append(lengths[-1] * draw(st.floats(min_value=1.05, max_value=1.7)))
    # the longest length is under 3 times the shortest, so this range is never empty
    per_length = draw(st.floats(min_value=20.0 / lengths[0], max_value=60.0 / lengths[-1]))
    # at so few points the partner levels match the box's only to about 1e-2
    tol = draw(st.floats(min_value=1e-2, max_value=0.1))
    return ["scan", "--L-values", ",".join(map(repr, lengths)),
            "--points-per-length", repr(per_length), "--convergence-tol", repr(tol),
            "--levels", str(draw(st.integers(min_value=1, max_value=4)))]


_ARGV = st.one_of(
    _joined([st.just(["spectrum"]), _model(_MODELS), _flag("--levels", _LEVELS)]),
    _joined([st.just(["check"]), _model(_MODELS), _flag("--charge", st.sampled_from(["Q", "q"])),
             st.sampled_from([[], ["--zero-point-reset"]])]),
    _joined([st.sampled_from([["spectrum"], ["check", "--charge", "q"]]),
             _model(_MODELS, unread=True)]),
    _joined([st.just(["partner"]), _model(["box"]), _flag("--levels", _LEVELS)]),
    _joined([st.just(["scan"]),
             _flag("--L-values", st.lists(_SMALL_FLOAT, min_size=1, max_size=3).map(",".join)),
             _flag("--points-per-length", _SMALL_FLOAT), _flag("--levels", _LEVELS)]),
    _scan_that_can_pass(),
    _joined([st.just(["eq5"]), _flag("--L", _ANY_FLOAT), _flag("--points", _POINTS),
             st.one_of(st.just([]), _flag("--k-values", st.lists(
                 _ANY_FLOAT, min_size=0, max_size=3).map(",".join))),
             st.sampled_from([[], ["--no-dispersion"]])]),
)


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter with the package on its path; its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("argv", [
    ["partner", "--model", "box", "--L", "3.14", "--points", "20001"],
    ["check", "--model", "free", "--charge", "Q", "--L", "9.42", "--points", "4096"],
], ids=["partner", "check"])
def test_a_report_keeps_its_bytes_with_the_blas_thread_variables_unset(argv):
    # at these sizes two OpenBLAS threads change the reports' last digits; with
    # the variables unset the package pins one thread before numpy loads. Each
    # run is held to at most two CPUs, so an unpinned OpenBLAS starts at most two.
    code = f"""
import os, runpy, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
sys.argv = ["susyqm", *{argv!r}]
runpy.run_module("susyqm.cli", run_name="__main__", alter_sys=True)
"""
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    unset["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           timeout=300)
            for env in (unset, dict(unset, **dict.fromkeys(_BLAS_THREADS, "1")))]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
    assert len(runs[0].stdout) > 1000


def test_lapack_is_loaded_only_by_a_solve_that_needs_it(tmp_path):
    # the rotor's diagonal blocks, the folded charges, eq5 and a refusal make no
    # LAPACK call, and scipy.linalg stays unimported; the box's solve imports it
    out = _fresh_python(f"""
import sys
from susyqm.cli import main
out = {str(tmp_path / "out.txt")!r}
for argv in (["check", "--model", "rotor", "--charge", "q", "--m-max", "6"],
             ["check", "--model", "rotor", "--charge", "Q", "--m-max", "6"],
             ["eq5", "--points", "64"],
             ["spectrum", "--model", "box", "--points", "0"],
             ["spectrum", "--model", "box", "--points", "101", "--levels", "4"]):
    print(main([*argv, "--out", out]), "scipy.linalg" in sys.modules)
""")
    assert out.split("\n") == ["0 False", "0 False", "0 False", "2 False", "0 True", ""]


def test_solver_failure_exits_with_numerical_code(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("stebz did not converge")

    monkeypatch.setattr(engine, "eigh_tridiagonal", fail)
    code = main(["spectrum", "--model", "box", "--points", "101", "--levels", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("owner,name,error,code,line", [
    (engine, "_sectors", NumericalContractError("numeric_spectrum requires a Hermitian matrix"),
     3, "numerical contract violation: numeric_spectrum requires a Hermitian matrix"),
    (ops, "hamiltonian", PotentialEvaluationError(0.0, float("inf")),
     2, "error: potential is not finite at x = 0.0 (value inf)"),
    # an allocation the host refuses; a real one of that size could exhaust memory instead
    (ops, "hamiltonian", MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                                     "(10000000000000,) and data type float64"),
     2, "configuration error: the request is larger than this machine can hold: Unable to "
        "allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64"),
], ids=["contract", "potential", "memory"])
def test_layer_errors_exit_with_their_code_and_one_line(monkeypatch, tmp_path, capsys,
                                                          owner, name, error, code, line):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, fail)
    assert main(["spectrum", "--model", "box", "--points", "101", "--levels", "4",
                 "--out", str(tmp_path / "x.csv")]) == code
    assert capsys.readouterr().err == line + "\n"


def test_a_grid_above_the_point_ceiling_is_refused_before_any_allocation(tmp_path, capsys):
    tracemalloc.start()
    try:
        code = main(["spectrum", "--model", "box", "--points", "10000000000000", "--levels", "2",
                     "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (f"configuration error: n_points must be at most "
                                       f"{MAX_POINTS}, got 10000000000000\n")
    assert peak < 2 ** 20


@settings(deadline=None, max_examples=150)
@given(argv=_ARGV)
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", os.devnull])
        except SystemExit as exc:  # argparse rejects the value while parsing
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
