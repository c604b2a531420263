"""Command-line front end.

Subcommands:

* spectrum -- eigenvalue table with parity labels for any catalog model
* check    -- six-criteria JSON report for the free particle or rotor
* partner  -- superpotential / partner potential and paired spectra for the box
* scan     -- box-to-free limit scan over a list of box lengths
* eq5      -- charge action table on standing waves of a periodic grid

Reports are deterministic: identical configuration gives byte-identical
files (floats printed with 17 significant digits). Exit codes: 0 success,
2 configuration or usage error, 3 numerical assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from itertools import chain

import numpy as np

from .engine import (CONVERGENCE_TOL, MACHINE_TOL, PAIR_TOL, build_check,
                     commensurate_wavenumbers, detect_pairing, eq5_action_table,
                     model_operators, numeric_spectrum)
from .errors import NumericalContractError, ParameterError, SusyqmError
from .grid import DIRICHLET, PERIODIC, build_grid
from .models import (DeltaWell, FreeParticle, ParticleInBox, PlanarRotor,
                     SecSquaredPartner, box_levels, sec_squared_potential)
from .partner import box_to_free_scan, partner_potential

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# every computation fixes hbar = m = I = 1; each report states it
UNITS = "units: hbar=1 m=1 I=1"


def fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_rows(*columns) -> str:
    """Rows of equal-length columns: a float column printed as fmt prints it, any other with %s.

    One %-formatting call over all values; a call to fmt per value costs
    more than the eigensolves at 10^5 grid points.
    """
    columns = [np.asarray(c) for c in columns]
    floats = [c.dtype.kind == "f" for c in columns]
    row = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    # an all-float table (the 10^5-row potentials) is stacked without object arrays
    table = np.column_stack(columns if all(floats) else [c.astype(object) for c in columns])
    return (row * len(table)) % tuple(table.ravel().tolist())


def _json_array(items: list) -> str:
    """A top-level list of the report as json.dumps(indent=2, sort_keys=True) writes it.

    items are numbers, or dicts of numbers that share their keys. Each
    column of numbers is written by json's C encoder, in one call without
    indent, so every value keeps json's form (float.__repr__, NaN,
    Infinity); the rows are laid out by one %-formatting call, as in
    _csv_rows.
    """
    if not items:
        return "[]"
    if isinstance(items[0], dict):
        keys = sorted(items[0])
        row = "    {\n" + ",\n".join(f'      "{k}": %s' for k in keys) + "\n    }"
        columns = [[item[k] for item in items] for k in keys]
    else:
        row, columns = "    %s", [items]
    cells = zip(*(json.dumps(c)[1:-1].split(", ") for c in columns))
    return "[\n" + ((row + ",\n") * len(items))[:-2] % tuple(chain.from_iterable(cells)) + "\n  ]"


# the report's lists that grow with the level count
_LONG_LISTS = ("pairs", "unpaired")


def _report_json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), with the long lists written by _json_array.

    With indent set, json encodes in pure Python, which took 0.29-0.40 s
    of a 50000-pair rotor report's 1.2 s; the rest of the payload is small.
    Each long list enters that dump as null and is spliced in at its key,
    a line of its own at the top level.
    """
    text = json.dumps({**payload, **dict.fromkeys(_LONG_LISTS)}, indent=2, sort_keys=True)
    for key in _LONG_LISTS:
        text = text.replace(f'\n  "{key}": null', f'\n  "{key}": {_json_array(payload[key])}', 1)
    return text


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_header(lines: list[str], columns: list[str]) -> str:
    out = [f"# {UNITS}"]
    out += [f"# {line}" for line in lines]
    out.append(",".join(columns))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# models

# model flag -> (argparse dest, type, help)
_MODEL_FLAGS = {
    "--L": ("L", float, "box/domain length (default pi)"),
    "--lambda": ("lam", float, "delta-well coupling (default 1)"),
    "--I": ("inertia", float, "rotor moment of inertia (default 1)"),
    "--m-max": ("m_max", int, "rotor basis cutoff (default 8)"),
    "--points": ("points", int, "grid point count (default 2001; free 512, delta 4001)"),
}
# the model flags each model reads, by dest, with their defaults; any other is refused
_MODEL_READS = {
    "box": {"L": np.pi, "points": 2001},
    "sec2": {"L": np.pi, "points": 2001},
    "free": {"L": np.pi, "points": 512},
    "delta": {"lam": 1.0, "L": np.pi, "points": 4001},
    "rotor": {"inertia": 1.0, "m_max": 8},
}


def _build_model(args):
    """The --model record and its grid point count (None for the rotor's basis).

    Each flag the model reads takes its default when not given; a model
    flag the model does not read is refused, not ignored.
    """
    name, reads = args.model, _MODEL_READS[args.model]
    unread = [flag for flag, (dest, _, _) in _MODEL_FLAGS.items()
              if dest not in reads and getattr(args, dest, None) is not None]
    if unread:
        raise ParameterError(f"--model {name} does not read {', '.join(unread)}")
    v = {dest: default if getattr(args, dest) is None else getattr(args, dest)
         for dest, default in reads.items()}
    if name == "rotor":
        return PlanarRotor(v["inertia"], v["m_max"]), None
    if name == "delta":
        return DeltaWell(v["lam"], v["L"]), v["points"]
    record = {"box": ParticleInBox, "sec2": SecSquaredPartner, "free": FreeParticle}[name]
    return record(v["L"]), v["points"]


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args) -> int:
    model, n_points = _build_model(args)
    h, parity, grid = model_operators(model, n_points)
    header = [f"command: spectrum model={args.model}"]
    if grid is None:
        header.append(f"I={fmt(model.inertia)} m_max={model.m_max}")
    elif isinstance(model, DeltaWell):
        header += [f"lambda={fmt(model.coupling)} L={fmt(model.box_length)} "
                   f"points={n_points} {grid.boundary}",
                   "absent_at_base_even=true absent_at_base_odd=true"]
    else:
        header.append(f"L={fmt(model.length)} points={n_points} {grid.boundary}")
        if isinstance(model, FreeParticle):
            header.append("absent_at_base_even=false absent_at_base_odd=true")
    spec = numeric_spectrum(h, parity, min(args.levels, h.dimension), vectors=False)

    pairing = detect_pairing(spec, args.pair_tol)
    flags = [""] * len(spec)
    for pid, (i, j, _) in enumerate(pairing.pairs):
        flags[i] = flags[j] = f"pair{pid}"
    for i in pairing.unpaired:
        flags[i] = "unpaired"
    # "bound" means genuinely negative, not a zero mode rounded below zero
    bound_cut = -1e-9 * max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    for i in np.flatnonzero(spec.eigenvalues < bound_cut):
        flags[i] = (flags[i] + ";" if flags[i] else "") + "bound"
    _write(args.out, _csv_header(header, ["n", "energy", "parity", "flag"])
           + _csv_rows(np.arange(len(spec)), spec.eigenvalues, spec.parity_labels, flags))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    """Write the six-criteria report as indented JSON with sorted keys (_report_json).

    Exits 0 when every applicable criterion passes, 3 otherwise. Dirichlet
    models are refused by the engine with the boundary caveat.
    """
    model, n_points = _build_model(args)
    report = build_check(model, args.charge, n_points=n_points,
                         zero_point_reset=args.zero_point_reset,
                         machine_tol=args.machine_tol, pair_tol=args.pair_tol)
    payload = {"units": UNITS, **report.to_dict()}
    _write(args.out, _report_json(payload) + "\n")
    return EXIT_OK if report.all_applicable_pass else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# partner

def cmd_partner(args) -> int:
    model, n_points = _build_model(args)
    length = model.length
    grid = build_grid(length / 2.0, n_points, DIRICHLET)
    ground = box_levels(length, 1)[0]
    result = partner_potential(ground, ground.energy, grid, n_levels=args.levels)

    analytic = sec_squared_potential(length)(grid.points)
    max_dev = float(np.max(np.abs(result.v_minus_samples - analytic)[result.wall_mask]))

    header = [
        f"command: partner model=box L={fmt(length)} points={n_points}",
        f"E0={fmt(result.e0)}",
        "missing_level_index=0",
        f"v_minus_max_abs_deviation_from_analytic={fmt(max_dev)}",
        "section: potentials (x, W, V_minus, V_plus)",
    ]
    e_plus, e_minus = result.spectrum_plus.eigenvalues, result.spectrum_minus.eigenvalues
    _write(args.out, "".join([
        _csv_header(header, ["x", "W", "V_minus", "V_plus"]),
        _csv_rows(grid.points, result.w_samples, result.v_minus_samples, result.v_plus_samples),
        "# section: spectra (n, E_plus, E_minus; E_minus blank at n=1)\n",
        f"n,E_plus,E_minus\n1,{fmt(e_plus[0])},\n",
        _csv_rows(np.arange(2, len(e_plus) + 1), e_plus[1:], e_minus[:-1])]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan

def cmd_scan(args) -> int:
    lengths = args.L_values
    if len(lengths) < 2:
        raise ParameterError("scan needs at least two lengths (--L-values)")
    rows = box_to_free_scan(lengths, args.points_per_length, n_levels=args.levels,
                            pair_rel_tol=args.convergence_tol)
    target = np.pi ** 2 / 2.0
    worst = max(abs(r.e1_times_l_squared - target) / target for r in rows)
    all_paired = all(r.pairs_matched == args.levels for r in rows)
    header = [
        "command: scan (box to free limit)",
        f"points_per_length={fmt(args.points_per_length)} levels={args.levels}",
        f"e1_l2_target={fmt(target)} worst_rel_deviation={fmt(worst)}",
        f"pairing_preserved={str(all_paired).lower()}",
    ]
    _write(args.out, _csv_header(header, ["L", "points", "E1", "gap", "E1_L2",
                                          "pairs_matched", "worst_pair_deviation"])
           + _csv_rows(*zip(*map(dataclasses.astuple, rows))))
    if worst > 1e-3 or not all_paired:
        print(f"scan assertion failed: worst E1*L^2 deviation {worst:.3e}, "
              f"pairing_preserved={all_paired}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# eq5 action table

def cmd_eq5(args) -> int:
    n_points = args.points
    grid = build_grid(args.L / 2.0, n_points, PERIODIC)
    if args.k_values is None:
        ks = commensurate_wavenumbers(grid)
    elif not args.k_values:
        raise ParameterError("--k-values is empty; give at least one wavenumber")
    else:
        ks = args.k_values
    rows = eq5_action_table(grid, ks, substitute_dispersion=not args.no_dispersion)
    header = [
        f"command: eq5 L={fmt(args.L)} points={n_points} "
        f"dispersion_substituted={str(not args.no_dispersion).lower()}",
        "residuals are relative to max(|k_discrete|,1)*||wave||",
    ]
    columns = ["k", "k_discrete", "dev_q_cos", "dev_q_sin", "dev_qdag_sin", "dev_qdag_cos"]
    _write(args.out, _csv_header(header, columns)
           + _csv_rows(*([getattr(r, c) for r in rows] for c in columns)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"float list {text!r} has a non-finite value")
    return values


def _tolerance(text: str) -> float:
    """A tolerance: a positive, finite float."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float {text!r}") from exc
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} must be positive and finite")
    return value


def _add_out(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_model_flags(sub, models):
    """--model and the model flags that at least one of the models reads."""
    sub.add_argument("--model", required=True, choices=models)
    read = {dest for m in models for dest in _MODEL_READS[m]}
    for flag, (dest, kind, help_) in _MODEL_FLAGS.items():
        if dest in read:
            sub.add_argument(flag, dest=dest, type=kind, help=help_)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Workbench for graded supersymmetry in simple quantum systems")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalue table with parity labels")
    _add_model_flags(sp, ["box", "sec2", "free", "delta", "rotor"])
    sp.add_argument("--levels", type=int, default=16)
    sp.add_argument("--pair-tol", type=_tolerance, default=PAIR_TOL)
    _add_out(sp)
    sp.set_defaults(func=cmd_spectrum)

    ck = subs.add_parser("check", help="six-criteria SUSY report (JSON)")
    _add_model_flags(ck, ["free", "rotor", "box", "sec2", "delta"])
    ck.add_argument("--charge", choices=["Q", "q"], required=True)
    ck.add_argument("--zero-point-reset", action="store_true")
    ck.add_argument("--machine-tol", type=_tolerance, default=MACHINE_TOL)
    ck.add_argument("--pair-tol", type=_tolerance, default=PAIR_TOL)
    _add_out(ck)
    ck.set_defaults(func=cmd_check)

    pa = subs.add_parser("partner", help="superpotential and partner potential")
    _add_model_flags(pa, ["box"])
    pa.add_argument("--levels", type=int, default=8)
    _add_out(pa)
    pa.set_defaults(func=cmd_partner)

    sc = subs.add_parser("scan", help="box-to-free limit scan")
    sc.add_argument("--L-values", type=_float_list, required=True,
                    help="comma-separated increasing box lengths")
    sc.add_argument("--points-per-length", type=float, default=200.0)
    sc.add_argument("--levels", type=int, default=4)
    sc.add_argument("--convergence-tol", type=_tolerance, default=CONVERGENCE_TOL,
                    help="relative tolerance of the level pairing")
    _add_out(sc)
    sc.set_defaults(func=cmd_scan)

    eq = subs.add_parser("eq5", help="charge action table on standing waves")
    eq.add_argument("--L", type=float, default=2.0 * float(np.pi))
    eq.add_argument("--points", type=int, default=512)
    eq.add_argument("--k-values", type=_float_list, default=None)
    eq.add_argument("--no-dispersion", action="store_true",
                    help="do not substitute the discrete dispersion (show O(h^2) error)")
    _add_out(eq)
    eq.set_defaults(func=cmd_eq5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SusyqmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: the request is larger than this machine can hold: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
