"""The benchmark's workloads: seeded lists of susyqm CLI invocations.

The seed picks only physical parameters (lengths, the delta coupling, the
rotor inertia, the scan's base length) from fixed ranges. Grid sizes, level
counts and the rotor cutoff are fixed, so the cost of a pass does not depend
on the seed. The program sees only the generated argv.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Callable, NamedTuple

import verify

FREE_POINTS = 1024
ROTOR_M_MAX = 384
ROTOR_RESET_M_MAX = 256
DIRICHLET_POINTS = 100001
BOX_LEVELS = 16
DELTA_LEVELS = 32
DELTA_BOX_LENGTH = 40.0
SCAN_LENGTHS = 5
SCAN_POINTS_AT_PI = 1000.0  # points per unit length when the base length is pi
SCAN_LEVELS = 4


class Op(NamedTuple):
    """One CLI invocation (without ``--out``) and the check of its report."""

    command: str
    argv: list[str]
    check: Callable[[str], list[str]]


def _value(rng: random.Random, low: float, high: float) -> str:
    """A parameter drawn from [low, high], as the argv text the program parses."""
    return f"{rng.uniform(low, high):.6f}"


def periodic_free(rng: random.Random) -> list[Op]:
    """Dense operator algebra: the free-particle check for both charges, then eq5."""
    ops = []
    for charge in ("Q", "q"):
        length = _value(rng, math.pi, 3 * math.pi)
        ops.append(Op("check", ["check", "--model", "free", "--charge", charge,
                                "--L", length, "--points", str(FREE_POINTS)],
                      partial(verify.check_report, charge=charge,
                              expected_pairs=FREE_POINTS // 2 - 1)))
    length = _value(rng, math.pi, 3 * math.pi)
    ops.append(Op("eq5", ["eq5", "--L", length, "--points", str(FREE_POINTS)],
                  partial(verify.eq5_report, points=FREE_POINTS)))
    return ops


def rotor_antilinear(rng: random.Random) -> list[Op]:
    """Antilinear and mixed charges of the planar rotor, dominated by per-vector apply."""
    ops = []
    for charge, m_max, reset in (("Q", ROTOR_M_MAX, False), ("q", ROTOR_M_MAX, False),
                                 ("q", ROTOR_RESET_M_MAX, True)):
        argv = ["check", "--model", "rotor", "--charge", charge,
                "--I", _value(rng, 0.5, 2.0), "--m-max", str(m_max)]
        if reset:
            argv.append("--zero-point-reset")
        ops.append(Op("check", argv,
                      partial(verify.check_report, charge=charge, expected_pairs=m_max)))
    return ops


def dirichlet_spectral(rng: random.Random) -> list[Op]:
    """Tridiagonal spectra, the partner construction and the widening-box scan."""
    points = str(DIRICHLET_POINTS)
    ops = []
    for model in ("box", "sec2"):
        length = _value(rng, 2.0, 6.0)
        ops.append(Op("spectrum", ["spectrum", "--model", model, "--L", length,
                                   "--points", points, "--levels", str(BOX_LEVELS)],
                      partial(verify.spectrum_box_report, length=float(length),
                              levels=BOX_LEVELS, partner=model == "sec2")))
    coupling = _value(rng, 0.5, 2.0)
    ops.append(Op("spectrum", ["spectrum", "--model", "delta", "--lambda", coupling,
                               "--L", f"{DELTA_BOX_LENGTH:g}", "--points", points,
                               "--levels", str(DELTA_LEVELS)],
                  partial(verify.spectrum_delta_report, coupling=float(coupling),
                          length=DELTA_BOX_LENGTH, levels=DELTA_LEVELS)))
    length = _value(rng, 2.0, 6.0)
    ops.append(Op("partner", ["partner", "--model", "box", "--L", length, "--points", points],
                  partial(verify.partner_report, length=float(length),
                          points=DIRICHLET_POINTS)))
    base = float(_value(rng, 2.0, 4.0))
    lengths = [f"{base * 2 ** k:.6f}" for k in range(SCAN_LENGTHS)]
    # points per length scaled so every length gets the same point count as at base pi
    per_length = repr(SCAN_POINTS_AT_PI * math.pi / base)
    ops.append(Op("scan", ["scan", "--L-values", ",".join(lengths),
                           "--points-per-length", per_length, "--levels", str(SCAN_LEVELS)],
                  partial(verify.scan_report, lengths=[float(v) for v in lengths],
                          levels=SCAN_LEVELS)))
    return ops


# Tiny calls of every subcommand a workload uses: they pay the import-time and
# lazy BLAS/LAPACK start-up that a CLI user pays on every invocation.
_WARMUP = {
    "check-free": ["check", "--model", "free", "--charge", "q", "--points", "16"],
    "eq5": ["eq5", "--points", "16"],
    "check-rotor": ["check", "--model", "rotor", "--charge", "q", "--m-max", "4"],
    "spectrum": ["spectrum", "--model", "sec2", "--points", "101", "--levels", "4"],
    "partner": ["partner", "--model", "box", "--points", "101"],
    "scan": ["scan", "--L-values", "3,6", "--points-per-length", "300"],
}

WORKLOADS = {
    "periodic-free": (periodic_free, ["check-free", "eq5"]),
    "rotor-antilinear": (rotor_antilinear, ["check-rotor"]),
    "dirichlet-spectral": (dirichlet_spectral, ["spectrum", "partner", "scan"]),
}

def build(name: str, seed: int) -> tuple[list[Op], list[list[str]]]:
    """The workload's ops for this seed, and its warm-up argvs."""
    make, warmups = WORKLOADS[name]
    return make(random.Random(f"{name}:{seed}")), [_WARMUP[w] for w in warmups]
