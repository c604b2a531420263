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
import json
import sys

import numpy as np

from . import operators as ops
from .engine import (CONVERGENCE_TOL, MACHINE_TOL, PAIR_TOL, build_check,
                     detect_pairing, eq5_action_table, numeric_spectrum)
from .errors import NumericalContractError, ParameterError, SusyqmError
from .grid import DIRICHLET, PERIODIC, build_grid
from .models import (DeltaWell, FreeParticle, ParticleInBox, PlanarRotor,
                     SecSquaredPartner, box_levels, rotor_states,
                     sec_squared_potential)
from .partner import box_to_free_scan, partner_potential
from .units import UNITS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_header(lines: list[str], columns: list[str]) -> str:
    out = [f"# {UNITS.header_line()}"]
    out += [f"# {line}" for line in lines]
    out.append(",".join(columns))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# spectrum

def _default_points(model_name: str) -> int:
    return {"box": 2001, "sec2": 2001, "delta": 4001, "free": 512}.get(model_name, 512)


def _build_model(args) -> object:
    name = args.model
    if name == "box":
        return ParticleInBox(args.L)
    if name == "sec2":
        return SecSquaredPartner(args.L)
    if name == "free":
        return FreeParticle(args.L, args.rep)
    if name == "delta":
        return DeltaWell(args.lam, args.L)
    if name == "rotor":
        return PlanarRotor(args.inertia, args.m_max)
    raise ParameterError(f"unknown model {name!r}")


def cmd_spectrum(args) -> int:
    model = _build_model(args)
    n_points = args.points or _default_points(args.model)
    levels = args.levels
    header = [f"command: spectrum model={args.model}"]
    absent = None

    if isinstance(model, PlanarRotor):
        lz, t, h = ops.rotor_basis_operators(model.m_max, model.inertia)
        spec = numeric_spectrum(h, t.linear_part, min(levels, h.dimension))
        header.append(f"I={fmt(model.inertia)} m_max={model.m_max}")
    elif isinstance(model, FreeParticle):
        grid = build_grid(model.length / 2.0, n_points, PERIODIC)
        h = ops.hamiltonian(grid, lambda x: 0.0)
        spec = numeric_spectrum(h, ops.parity_operator(grid), min(levels, n_points))
        header.append(f"L={fmt(model.length)} points={n_points} periodic")
        absent = {"even": False, "odd": True}
    elif isinstance(model, DeltaWell):
        grid = build_grid(model.box_length / 2.0, n_points, DIRICHLET)
        h = ops.delta_well_hamiltonian(grid, model.coupling)
        spec = numeric_spectrum(h, ops.parity_operator(grid), min(levels, n_points))
        header.append(f"lambda={fmt(model.coupling)} L={fmt(model.box_length)} "
                      f"points={n_points} dirichlet")
        absent = {"even": True, "odd": True}
    else:
        length = model.length
        grid = build_grid(length / 2.0, n_points, DIRICHLET)
        if isinstance(model, SecSquaredPartner):
            h = ops.hamiltonian(grid, sec_squared_potential(length))
        else:
            h = ops.hamiltonian(grid, lambda x: 0.0)
        spec = numeric_spectrum(h, ops.parity_operator(grid), min(levels, n_points))
        header.append(f"L={fmt(length)} points={n_points} dirichlet")

    if absent is not None:
        header.append(f"absent_at_base_even={str(absent['even']).lower()} "
                      f"absent_at_base_odd={str(absent['odd']).lower()}")
    pairing = detect_pairing(spec, args.pair_tol)
    flags = {}
    for pid, (i, j, _) in enumerate(pairing.pairs):
        flags[i] = flags[j] = f"pair{pid}"
    for i in pairing.unpaired:
        flags[i] = "unpaired"
    rows = []
    # "bound" means genuinely negative, not a zero mode rounded below zero
    bound_cut = -1e-9 * max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    for i, e in enumerate(spec.eigenvalues):
        flag = flags.get(i, "")
        if e < bound_cut:
            flag = (flag + ";" if flag else "") + "bound"
        rows.append(f"{i},{fmt(float(e))},{spec.parity_labels[i]},{flag}")
    text = _csv_header(header, ["n", "energy", "parity", "flag"]) + "\n".join(rows) + "\n"
    _write(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    if args.model == "free":
        model = FreeParticle(args.L)
        n_points = args.points or 512
    elif args.model == "rotor":
        model = PlanarRotor(args.inertia, args.m_max)
        n_points = 0
    else:
        # Dirichlet models are refused by the engine with the boundary caveat
        model = _build_model(args)
        n_points = args.points or _default_points(args.model)
    report = build_check(model, args.charge, n_points=n_points or 512,
                         zero_point_reset=args.zero_point_reset,
                         machine_tol=args.machine_tol, pair_tol=args.pair_tol)
    payload = {"units": UNITS.header_line(), **report.to_dict()}
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.all_applicable_pass else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# partner

def cmd_partner(args) -> int:
    if args.model != "box":
        raise ParameterError(
            f"partner construction supports only the box model, got {args.model!r}; "
            "supported models: box")
    length = args.L
    n_points = args.points or 2001
    grid = build_grid(length / 2.0, n_points, DIRICHLET)
    ground = box_levels(length, 1)[0]
    result = partner_potential(ground, ground.energy, grid, n_levels=args.levels)

    analytic = sec_squared_potential(length)(grid.points)
    max_dev = float(np.max(np.abs(result.v_minus_samples - analytic)[result.wall_mask]))

    header = [
        f"command: partner model=box L={fmt(length)} points={n_points}",
        f"E0={fmt(result.e0)}",
        f"missing_level_index={result.missing_level_index}",
        f"v_minus_max_abs_deviation_from_analytic={fmt(max_dev)}",
        "section: potentials (x, W, V_minus, V_plus)",
    ]
    lines = [_csv_header(header, ["x", "W", "V_minus", "V_plus"])]
    for x, w, vm, vp in zip(grid.points, result.w_samples,
                            result.v_minus_samples, result.v_plus_samples):
        lines.append(f"{fmt(x)},{fmt(w)},{fmt(vm)},{fmt(vp)}\n")
    lines.append("# section: spectra (n, E_plus, E_minus; E_minus blank at n=1)\n")
    lines.append("n,E_plus,E_minus\n")
    n_levels = len(result.spectrum_plus.eigenvalues)
    for n in range(n_levels):
        e_plus = fmt(float(result.spectrum_plus.eigenvalues[n]))
        e_minus = "" if n == 0 else fmt(float(result.spectrum_minus.eigenvalues[n - 1]))
        lines.append(f"{n + 1},{e_plus},{e_minus}\n")
    _write(args.out, "".join(lines))
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
    lines = [_csv_header(header, ["L", "points", "E1", "gap", "E1_L2",
                                  "pairs_matched", "worst_pair_deviation"])]
    for r in rows:
        lines.append(f"{fmt(r.length)},{r.n_points},{fmt(r.e1)},{fmt(r.gap)},"
                     f"{fmt(r.e1_times_l_squared)},{r.pairs_matched},"
                     f"{fmt(r.worst_pair_deviation)}\n")
    _write(args.out, "".join(lines))
    if worst > 1e-3 or not all_paired:
        print(f"scan assertion failed: worst E1*L^2 deviation {worst:.3e}, "
              f"pairing_preserved={all_paired}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# eq5 action table

def cmd_eq5(args) -> int:
    n_points = args.points or 512
    grid = build_grid(args.L / 2.0, n_points, PERIODIC)
    if args.k_values:
        ks = args.k_values
    else:
        ks = list(2.0 * np.pi * np.arange(n_points // 2 + 1) / grid.length)
    rows = eq5_action_table(grid, ks, substitute_dispersion=not args.no_dispersion)
    header = [
        f"command: eq5 L={fmt(args.L)} points={n_points} "
        f"dispersion_substituted={str(not args.no_dispersion).lower()}",
        "residuals are relative to max(|k_discrete|,1)*||wave||",
    ]
    lines = [_csv_header(header, ["k", "k_discrete", "dev_q_cos", "dev_q_sin",
                                  "dev_qdag_sin", "dev_qdag_cos"])]
    for r in rows:
        lines.append(f"{fmt(r.k)},{fmt(r.k_discrete)},{fmt(r.dev_q_cos)},"
                     f"{fmt(r.dev_q_sin)},{fmt(r.dev_qdag_sin)},{fmt(r.dev_qdag_cos)}\n")
    _write(args.out, "".join(lines))
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


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="out_format", choices=["csv", "json"],
                     default=None, help="output format (fixed per command)")
    sub.add_argument("--machine-tol", type=float, default=MACHINE_TOL)
    sub.add_argument("--convergence-tol", type=float, default=CONVERGENCE_TOL)
    sub.add_argument("--pair-tol", type=float, default=PAIR_TOL)


def _add_model_flags(sub, models):
    sub.add_argument("--model", required=True, choices=models)
    sub.add_argument("--L", type=float, default=float(np.pi),
                     help="box/domain length (default pi)")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="delta-well coupling")
    sub.add_argument("--I", dest="inertia", type=float, default=1.0,
                     help="rotor moment of inertia")
    sub.add_argument("--m-max", type=int, default=8, help="rotor basis cutoff")
    sub.add_argument("--points", type=int, default=None, help="grid point count")
    sub.add_argument("--rep", choices=["standing", "traveling"], default="standing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Workbench for graded supersymmetry in simple quantum systems")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalue table with parity labels")
    _add_model_flags(sp, ["box", "sec2", "free", "delta", "rotor"])
    sp.add_argument("--levels", type=int, default=16)
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    ck = subs.add_parser("check", help="six-criteria SUSY report (JSON)")
    _add_model_flags(ck, ["free", "rotor", "box", "sec2", "delta"])
    ck.add_argument("--charge", choices=["Q", "q"], required=True)
    ck.add_argument("--zero-point-reset", action="store_true")
    _add_common(ck)
    ck.set_defaults(func=cmd_check)

    pa = subs.add_parser("partner", help="superpotential and partner potential")
    _add_model_flags(pa, ["box", "sec2", "free", "delta", "rotor"])
    pa.add_argument("--levels", type=int, default=8)
    _add_common(pa)
    pa.set_defaults(func=cmd_partner)

    sc = subs.add_parser("scan", help="box-to-free limit scan")
    sc.add_argument("--L-values", type=_float_list, required=True,
                    help="comma-separated increasing box lengths")
    sc.add_argument("--points-per-length", type=float, default=200.0)
    sc.add_argument("--levels", type=int, default=4)
    _add_common(sc)
    sc.set_defaults(func=cmd_scan)

    eq = subs.add_parser("eq5", help="charge action table on standing waves")
    eq.add_argument("--L", type=float, default=2.0 * float(np.pi))
    eq.add_argument("--points", type=int, default=512)
    eq.add_argument("--k-values", type=_float_list, default=None)
    eq.add_argument("--no-dispersion", action="store_true",
                    help="do not substitute the discrete dispersion (show O(h^2) error)")
    _add_common(eq)
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
    except SusyqmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
