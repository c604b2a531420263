"""Physics checks on the reports the susyqm CLI writes, and corruptions of them.

Every check compares a report against the closed forms in ``susyqm.models``
with the tolerances that ``tests/test_acceptance.py`` (and, for the partner
potential, ``tests/test_partner.py``) state. A check returns a list of
problems; an empty list means the report is correct.

``corrupt`` alters one physics value in a report. The benchmark applies it
to the reports of its first pass and requires the matching check to reject
every corrupted copy, so a check that accepts anything cannot go unnoticed.
"""

from __future__ import annotations

import json
import math

from susyqm.models import box_energy

CONVERGENCE_RTOL = 1e-4   # criteria 1 and 2: grid levels against analytic levels
DELTA_BOUND_ATOL = 1e-2   # criterion 3: delta-well bound state
MACHINE_TOL = 1e-12       # criteria 4, 5 and 6: algebra, nilpotency, action table
ZERO_TOL = 1e-10          # criterion 7: ground energy and annihilation
PAIR_LEAK_TOL = 1e-8      # criterion 3 of the check report: pair invariance
SCAN_RTOL = 1e-3          # criterion 10: E1 * L^2 against pi^2 / 2
V_MINUS_ATOL = 1e-6       # test_partner: V_minus against the analytic sec^2


def _csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header ``key=value`` fields and the rows of a single-table CSV report."""
    header: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    columns = None
    for line in text.splitlines():
        if line.startswith("#"):
            for field in line[1:].split():
                key, sep, value = field.partition("=")
                if sep:
                    header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return header, rows


def _close(value: float, target: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= rtol * abs(target)


# ---------------------------------------------------------------------------
# check

def check_report(text: str, *, charge: str, expected_pairs: int) -> list[str]:
    """Criteria 4, 5, 6, 7 and 11 on a six-criteria JSON report."""
    rep = json.loads(text)
    problems = []
    if rep.get("all_applicable_pass") is not True:
        problems.append("all_applicable_pass is not true")
    verdicts = rep["verdict_per_criterion"]
    for n in ("1", "2", "3", "4", "6"):
        if verdicts[n]["satisfied"] is not True:
            problems.append(f"criterion {n} not satisfied")
    by_design = charge == "Q"
    if verdicts["5"]["by_design_failure"] is not by_design \
            or verdicts["5"]["satisfied"] is by_design:
        problems.append("criterion 5 verdict does not match the charge")
    alg = rep["algebra"]
    residuals = [alg["comm_HQ"], alg["comm_HQdag"], alg["anticomm_minus_H"], alg["closure"]]
    if not by_design:
        residuals += [alg["nilpotency_q"], alg["nilpotency_qdag"]]
    if not all(0.0 <= r <= MACHINE_TOL for r in residuals):
        problems.append(f"algebra residuals above {MACHINE_TOL}: {residuals}")
    ground = rep["ground"]
    if ground["degeneracy_count"] != 1 or not abs(ground["energy"]) <= ZERO_TOL:
        problems.append(f"ground state not a single zero level: {ground}")
    if not max(ground["annihilation_residuals"].values()) <= ZERO_TOL:
        problems.append("ground state not annihilated")
    if not rep["pair_invariance_residual"] <= PAIR_LEAK_TOL:
        problems.append("pair subspaces leak")
    if len(rep["pairs"]) != expected_pairs:
        problems.append(f"{len(rep['pairs'])} pairs, expected {expected_pairs}")
    return problems


def corrupt_check(text: str) -> str:
    rep = json.loads(text)
    rep["algebra"]["comm_HQ"] = 1e-6
    return json.dumps(rep, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# spectrum

def spectrum_box_report(text: str, *, length: float, levels: int,
                        partner: bool = False) -> list[str]:
    """Criteria 1 and 2: box levels n^2 pi^2 / 2L^2; the sec^2 partner lacks n = 1."""
    _, rows = _csv(text)
    first = 2 if partner else 1
    problems = []
    if len(rows) != levels:
        problems.append(f"{len(rows)} levels, expected {levels}")
    for i, row in enumerate(rows):
        n = first + i
        if not _close(float(row["energy"]), box_energy(length, n), CONVERGENCE_RTOL):
            problems.append(f"level {n}: {row['energy']} != {box_energy(length, n)}")
        if row["parity"] != ("even" if (n % 2 == 1) != partner else "odd"):
            problems.append(f"level {n}: parity {row['parity']}")
    return problems


def spectrum_delta_report(text: str, *, coupling: float, length: float,
                          levels: int) -> list[str]:
    """Criterion 3 bound state, and the odd levels on the free dispersion k^2 / 2.

    Odd states vanish at the well, so in the box of length L they are the
    free standing waves sin(k x) with k = 2 pi m / L.
    """
    _, rows = _csv(text)
    problems = []
    if len(rows) != levels:
        problems.append(f"{len(rows)} levels, expected {levels}")
    bound = float(rows[0]["energy"])
    if not abs(bound + 0.5 * coupling ** 2) <= DELTA_BOUND_ATOL or "bound" not in rows[0]["flag"]:
        problems.append(f"bound state {bound} != {-0.5 * coupling ** 2}")
    odd = [float(r["energy"]) for r in rows if r["parity"] == "odd"]
    if len(odd) != levels // 2:  # the bound state, then odd and even levels alternate
        problems.append(f"{len(odd)} odd levels, expected {levels // 2}")
    for m, e in enumerate(odd, start=1):
        k = 2.0 * math.pi * m / length
        if not _close(e, 0.5 * k * k, CONVERGENCE_RTOL):
            problems.append(f"odd level {m}: {e} != {0.5 * k * k}")
    if any("bound" in r["flag"] for r in rows[1:]):
        problems.append("more than one bound state")
    return problems


def corrupt_spectrum(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("0,"))
    n, energy, rest = lines[i].split(",", 2)
    e = float(energy)
    lines[i] = f"{n},{e + 0.1 * abs(e) + 0.02!r},{rest}"
    return "".join(lines)


# ---------------------------------------------------------------------------
# partner

def partner_report(text: str, *, length: float, points: int) -> list[str]:
    """Criterion 2 on the partner pair, E-[n-1] = E+[n], and the printed V- deviation."""
    split = text.index("# section: spectra")
    header, pot_rows = _csv(text[:split])
    problems = []
    if len(pot_rows) != points:
        problems.append(f"{len(pot_rows)} potential rows, expected {points}")
    if not float(header["v_minus_max_abs_deviation_from_analytic"]) <= V_MINUS_ATOL:
        problems.append("V_minus deviates from the analytic sec^2")
    _, rows = _csv(text[split:])
    if not rows:
        problems.append("no spectra rows")
    for row in rows:
        n = int(row["n"])
        e_plus = float(row["E_plus"])
        if not _close(e_plus, box_energy(length, n), CONVERGENCE_RTOL):
            problems.append(f"E+ level {n}: {e_plus} != {box_energy(length, n)}")
        if n > 1 and not _close(float(row["E_minus"]), e_plus, CONVERGENCE_RTOL):
            problems.append(f"E- level {n - 1} does not pair with E+ level {n}")
    return problems


def corrupt_partner(text: str) -> str:
    potentials, sep, spectra = text.partition("# section: spectra")
    lines = spectra.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("2,"))
    n, e_plus, e_minus = lines[i].rstrip("\n").split(",")
    lines[i] = f"{n},{e_plus},{float(e_minus) * 1.01!r}\n"
    return potentials + sep + "".join(lines)


# ---------------------------------------------------------------------------
# scan

def scan_report(text: str, *, lengths: list[float], levels: int) -> list[str]:
    """Criterion 10: E1 L^2 = pi^2 / 2 and the partner pairing at every length."""
    _, rows = _csv(text)
    problems = []
    if [float(r["L"]) for r in rows] != lengths:
        problems.append("scan rows do not match the requested lengths")
    target = math.pi ** 2 / 2.0
    for row in rows:
        if not _close(float(row["E1_L2"]), target, SCAN_RTOL):
            problems.append(f"L={row['L']}: E1 L^2 = {row['E1_L2']}")
        if int(row["pairs_matched"]) != levels:
            problems.append(f"L={row['L']}: {row['pairs_matched']} pairs matched")
    return problems


def corrupt_scan(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("L,")) + 1
    cols = lines[i].rstrip("\n").split(",")
    cols[4] = repr(float(cols[4]) * 1.01)
    lines[i] = ",".join(cols) + "\n"
    return "".join(lines)


# ---------------------------------------------------------------------------
# eq5

def eq5_report(text: str, *, points: int) -> list[str]:
    """Criterion 6: with the dispersion substituted every deviation is at machine level."""
    _, rows = _csv(text)
    problems = []
    if len(rows) != points // 2 + 1:
        problems.append(f"{len(rows)} wavenumbers, expected {points // 2 + 1}")
    columns = ("dev_q_cos", "dev_q_sin", "dev_qdag_sin", "dev_qdag_cos")
    worst = max((float(r[c]) for r in rows for c in columns), default=math.inf)
    if not worst <= MACHINE_TOL:
        problems.append(f"worst action-table deviation {worst} above {MACHINE_TOL}")
    return problems


def corrupt_eq5(text: str) -> str:
    lines = text.splitlines(keepends=True)
    cols = lines[-1].rstrip("\n").split(",")
    cols[2] = "1.0000000000000001e-09"
    lines[-1] = ",".join(cols) + "\n"
    return "".join(lines)


CORRUPT = {"check": corrupt_check, "spectrum": corrupt_spectrum,
           "partner": corrupt_partner, "scan": corrupt_scan, "eq5": corrupt_eq5}
