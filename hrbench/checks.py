"""Checks of each operation's output files against the reference module.

Each check returns a list of problems; an empty list means the operation's
outputs agree with the independent computations and with the properties
the method must have.  Nothing is compared against stored program output.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import reference as ref

SE_LIMIT = 6.0        # |p_hat - exact| allowance, in binomial standard errors
EXACT_RTOL = 1e-9     # closed-form bound sums against the textbook sums
ESTIMATED_RTOL = 0.1  # Monte Carlo moment profiles against the textbook sums
FSUM_RTOL = 1e-11     # compensated prefix sums against math.fsum, per unit of sum |x|


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _weights(cfg: dict) -> list[float]:
    w, n = cfg["weights"], cfg["sequence"]["n"]
    return ref.weights(w["kind"], n, w.get("beta", 1.0), w.get("values", ()))


def _law(cfg: dict) -> tuple[str, dict]:
    seq = cfg["sequence"]
    return seq["family"], seq.get("params", {})


def _shape_scale(cfg: dict) -> tuple:
    sh, sc = cfg["shape"], cfg["scale"]
    return sh["kind"], sh["exponent"], sc["kind"], sc["epsilon"], sc.get("rho", 1.0)


def _event(cfg: dict, kind: str) -> tuple[float, int, str]:
    """(epsilon, m, sidedness) of the maximum event an upper bound constrains."""
    if kind == "amini":
        return cfg["epsilon"], 1, "abs"
    return cfg["epsilon"], cfg.get("m", 1), cfg.get("sided", "abs")


def textbook_raw(cfg: dict, kind: str) -> float:
    family, params = _law(cfg)
    b = _weights(cfg)
    phi_kind, p, chi_kind, eps, rho = _shape_scale(cfg)
    if kind == "theorem1":
        return ref.theorem1_raw(family, params, p, chi_kind, eps, rho, b)
    if kind == "rao":
        return ref.rao_raw(family, params, p, chi_kind, eps, rho, b)
    epsilon, m, _ = _event(cfg, kind)
    if kind == "amini":
        return ref.amini_raw(family, params, epsilon, b)
    return ref.hajek_renyi_raw(family, params, epsilon, m, b)


def exact_probability(cfg: dict, kind: str) -> Fraction | None:
    """The exact probability of the event `kind` bounds, for sign increments."""
    family, _ = _law(cfg)
    n = cfg["sequence"]["n"]
    if family != "rademacher" or n > 20:
        return None
    b = _weights(cfg)
    if kind in ("theorem1", "rao"):
        phi_kind, p, chi_kind, eps, rho = _shape_scale(cfg)
        return ref.rademacher_an(n, phi_kind, p, chi_kind, eps, rho, b,
                                 process="S" if kind == "theorem1" else "u")
    epsilon, m, sided = _event(cfg, kind)
    return ref.rademacher_max(n, b, epsilon, m, sided)


def check_report(cfg: dict, kind: str, report: dict, estimated: bool) -> list[str]:
    """Bound value against the textbook formula and its own terms."""
    problems = []
    lower = report["direction"] == "lower"
    raw = report["raw_value"]
    mass = 1.0 - raw if lower else raw  # the summed part of the bound
    if not _close(math.fsum(report["terms"]), mass, 1e-12):
        problems.append(f"{kind}: terms do not sum to the raw value")
    if report["value"] != min(1.0, max(0.0, raw)):
        problems.append(f"{kind}: value is not the raw value clamped to [0, 1]")
    want = textbook_raw(cfg, kind)
    want_mass = 1.0 - want if lower else want
    rtol = ESTIMATED_RTOL if estimated and kind in ("theorem1", "rao") else EXACT_RTOL
    if not _close(mass, want_mass, rtol):
        problems.append(f"{kind}: raw {raw!r} differs from textbook {want!r}")
    return problems


def check_against_probability(kind: str, report: dict, exact: Fraction | None,
                              estimate: dict | None) -> list[str]:
    """A lower bound may not exceed the probability, an upper bound may not undercut it."""
    problems = []
    value, lower = report["value"], report["direction"] == "lower"
    if exact is not None:
        if (value > exact) if lower else (value < exact):
            problems.append(f"{kind}: {report['direction']} bound {value!r} "
                            f"on the wrong side of exact {float(exact)!r}")
    if estimate is not None:
        if lower and value > estimate["ci_high"]:
            problems.append(f"{kind}: lower bound above the Monte Carlo interval")
        if not lower and value < estimate["ci_low"]:
            problems.append(f"{kind}: upper bound below the Monte Carlo interval")
        if exact is not None:
            p, reps = float(exact), estimate["replications"]
            se = math.sqrt(p * (1.0 - p) / reps)
            if abs(estimate["p_hat"] - p) > SE_LIMIT * se:
                problems.append(f"{kind}: p_hat {estimate['p_hat']!r} is more than "
                                f"{SE_LIMIT} standard errors from exact {p!r}")
    return problems


def check_verify(cfg: dict, out: Path, rc: int) -> list[str]:
    problems = []
    estimated = cfg.get("profile") == "estimated"
    for kind in cfg["kinds"]:
        doc = _load(out / f"verify_{kind}.json")
        report, estimate = doc["report"], doc["estimate"]
        exact = exact_probability(cfg, kind)
        problems += check_report(cfg, kind, report, estimated)
        problems += check_against_probability(kind, report, exact, estimate)
        if doc["exact"] is not None:
            got = Fraction(doc["exact"]["numerator"], doc["exact"]["denominator"])
            if got != exact:
                problems.append(f"{kind}: enumerated {got} differs from dynamic program {exact}")
        if estimate["event_digest"] != report["inputs_digest"]:
            problems.append(f"{kind}: estimate and bound describe different events")
    if rc != 0:
        problems.append(f"verify exited with code {rc}")
    return problems


def check_bound(cfg: dict, out: Path, rc: int) -> list[str]:
    problems = []
    for kind in cfg["kinds"]:
        report = _load(out / f"bound_{kind}.json")["report"]
        problems += check_report(cfg, kind, report, estimated=False)
        problems += check_against_probability(kind, report, exact_probability(cfg, kind), None)
    if rc != 0:
        problems.append(f"bound exited with code {rc}")
    return problems


def check_enumerate(cfg: dict, out: Path, rc: int) -> list[str]:
    doc = _load(out / "enumerate.json")
    got = Fraction(doc["numerator"], doc["denominator"])
    n, b = cfg["sequence"]["n"], _weights(cfg)
    if cfg["event"] == "A_n":
        phi_kind, p, chi_kind, eps, rho = _shape_scale(cfg)
        want = ref.rademacher_an(n, phi_kind, p, chi_kind, eps, rho, b)
    else:
        want = ref.rademacher_max(n, b, cfg["epsilon"], cfg.get("m", 1),
                                  cfg.get("sided", "abs"))
    problems = []
    if got != want:
        problems.append(f"enumerated {got} differs from dynamic program {want}")
    if doc["value"] != float(got):
        problems.append("enumerate value is not the float of its fraction")
    if rc != 0:
        problems.append(f"enumerate exited with code {rc}")
    return problems


def check_demi(cfg: dict, out: Path, rc: int) -> list[str]:
    """Centred Gaussian sums pass; drifted ones are flagged at every j."""
    report = _load(out / "check_demi.json")["report"]
    n = cfg["sequence"]["n"]
    mu = cfg["sequence"]["params"]["mu"]
    problems = []
    if len(report["records"]) != (n - 1) * len(report["family"]):
        problems.append("demi report does not cover every (j, g) pair")
    for r in report["records"]:
        # with g = 1 the margin is the mean increment, whose expectation is mu
        if r["g"] == "const" and abs(r["margin"] - mu) > SE_LIMIT * r["se"]:
            problems.append(f"constant-g margin at j={r['j']} is far from the drift {mu!r}")
    flagged = sorted({r["j"] for r in report["records"] if r["flagged"]})
    if mu == 0.0:
        if flagged or not report["passed"] or rc != 0:
            problems.append(f"centred sums flagged at j in {flagged}")
    elif flagged != list(range(1, n)) or rc != 2:
        problems.append(f"drifted sums flagged only at j in {flagged}")
    return problems


def check_slln(cfg: dict, out: Path, rc: int) -> list[str]:
    problems = []
    series = _load(out / "slln_series.json")["series"]
    if series["verdict"] != "converging":
        problems.append(f"series verdict {series['verdict']!r}, expected converging")
    total = ref.series_partial_sum(cfg["series"]["alpha"], cfg["series"]["r"], _weights(cfg))
    if not _close(series["partial_sum"], total, EXACT_RTOL):
        problems.append(f"series partial sum {series['partial_sum']!r} differs from {total!r}")
    with open(out / "slln_checkpoints.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["checkpoint"]) for r in rows] != list(cfg["checkpoints"]):
        problems.append("checkpoint rows do not match the configured checkpoints")
    q95 = [float(r["q95_abs_ratio"]) for r in rows]
    if any(b >= a for a, b in zip(q95, q95[1:])):
        problems.append(f"q95 |S_k|/b_k does not decrease across checkpoints: {q95}")
    if rc != 0:
        problems.append(f"slln exited with code {rc}")
    return problems


def check_replicate_sums(x, s, checkpoints) -> list[str]:
    """S_k of one replicate against math.fsum of its increments."""
    problems = []
    for k in checkpoints:
        head = x[:k].tolist()
        want = math.fsum(head)
        tol = FSUM_RTOL * math.fsum(abs(v) for v in head)
        if abs(float(s[k - 1]) - want) > tol:
            problems.append(f"S_{k} = {float(s[k - 1])!r} differs from fsum {want!r}")
    return problems


CHECKS = {
    "verify": check_verify,
    "bound": check_bound,
    "enumerate": check_enumerate,
    "check-demi": check_demi,
    "slln": check_slln,
}
