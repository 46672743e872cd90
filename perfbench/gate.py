"""Correctness gate applied to every invocation, traced ones included.

A miss here counts the invocation as failed.  The gate reads only the public
artifacts the CLI writes (`report.json`, `residuals.csv`) and its exit code.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# relative tolerance on reference rho/beta norms, plus an absolute floor in
# units of the seed norm; residual norms are roundoff (~1e-17) and are not
# compared
REL_TOL = 1e-8
ABS_FLOOR = 1e-12
# band around 2^(K+1) that acceptance test 7 uses for the halving ratio
RATIO_BAND = (0.75, 1.25)
# the "floor" gate: derivative_sup of an exactly solved family stays at
# roundoff (about 1e-17) and must not exceed ROUNDOFF
ROUNDOFF = 1e-12
# the "ratio" gate needs derivative_sup at t/2 well above that floor, or the
# ratio is a ratio of rounding errors
RATIO_MIN = 1e-14


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, ref: float, floor: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + floor


def _deform_failures(w, report: dict, out_dir: Path, ref: dict | None) -> list[str]:
    bad = []
    k = w.order
    expected_support = 2 * k * k + 2 * k + 1  # two frequencies and their negatives
    if report.get("support_size") != expected_support:
        bad.append(f"support_size {report.get('support_size')} != {expected_support}")
    orders = report.get("orders", [])
    if len(orders) != k:
        bad.append(f"{len(orders)} orders reported, expected {k}")
    verification = report.get("verification", {})
    samples = [verification.get("at_t", {}), verification.get("at_half_t", {})]
    if not all(s.get("metric_positive") is True for s in samples):
        bad.append("a verification sample reports a non-positive metric")
    full = samples[0].get("derivative_sup", float("nan"))
    half = samples[1].get("derivative_sup", float("nan"))
    if w.derivative_gate == "ratio":
        expected = 2.0 ** (k + 1)
        lo, hi = RATIO_BAND[0] * expected, RATIO_BAND[1] * expected
        if not half > RATIO_MIN:
            bad.append(f"derivative_sup at t/2 is {half:.3e}, at roundoff; no halving ratio")
        elif not lo <= full / half <= hi:
            bad.append(f"halving ratio {full / half:.3f} outside [{lo:g}, {hi:g}]")
    elif not (full <= ROUNDOFF and half <= ROUNDOFF):
        bad.append(f"derivative_sup {full:.3e} / {half:.3e} above {ROUNDOFF:g}")
    if ref is not None:
        floor = ABS_FLOOR * report["psi_norm"]
        for key in ("rho_norm", "beta_norm"):
            got = [o[key] for o in orders]
            want = ref[f"{key}s"]
            if len(got) != len(want) or not all(_close(g, r, floor) for g, r in zip(got, want)):
                bad.append(f"{key} per order {got} differs from reference {want}")
    rows = _residual_rows(out_dir)
    if [int(r["order"]) for r in rows] != list(range(1, k + 1)):
        bad.append("residuals.csv does not list every order")
    return bad


def _hodge_failures(report: dict, ref: dict | None) -> list[str]:
    bad = []
    checks = report.get("checks", [])
    failed = [c["name"] for c in checks if not c.get("pass")]
    if failed:
        bad.append(f"failed checks {failed}")
    if ref is not None and sorted(c["name"] for c in checks) != sorted(ref["check_names"]):
        bad.append(f"check names {sorted(c['name'] for c in checks)} differ from reference")
    return bad


def _residual_rows(out_dir: Path) -> list[dict]:
    path = out_dir / "residuals.csv"
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def order_ms(out_dir: Path) -> tuple[float, float]:
    """First and last per-order wall times from the public residuals.csv."""
    rows = _residual_rows(out_dir)
    return float(rows[0]["wall_ms"]), float(rows[-1]["wall_ms"])


def failures(w, seed: int, exit_code: int, out_dir: Path, reference: dict) -> list[str]:
    """Everything wrong with one invocation's outputs; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    path = out_dir / "report.json"
    if not path.exists():
        return ["no report.json written"]
    report = json.loads(path.read_text(encoding="utf-8"))
    bad = [] if report.get("ok") is True else ["report.json has ok != true"]
    entry = reference.get("workloads", {}).get(w.name)
    if w.command == "deform":
        ref = entry if entry is not None and seed == reference.get("seed") else None
        return bad + _deform_failures(w, report, out_dir, ref)
    return bad + _hodge_failures(report, entry)
