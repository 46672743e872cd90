"""Record the correctness reference the gate compares against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs every workload once at seed 0 with the reference-free part of the gate
and writes reference.json: the per-order rho/beta norms of each deform
workload and the check names of the hodge workload.  Re-record only when a
change is meant to alter those numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run
from workloads import WORKLOADS, make_config

SEED = 0


def main() -> int:
    run.check_checkout()
    entries = {}
    for w in WORKLOADS.values():
        run_dir = run.WORK / f"reference-{w.name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            config = run_dir / "config.json"
            config.write_text(json.dumps(make_config(w, SEED), indent=1), encoding="utf-8")
            deadline = time.monotonic() + run.RUN_BUDGET_S
            res = run.invoke(w, SEED, run_dir, "ref", deadline, config, {"workloads": {}})
            if res["failures"]:
                sys.stderr.write(f"{w.name}: {res['failures']}\n")
                return 1
            report = json.loads((res["out_dir"] / "report.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if w.command == "deform":
            entries[w.name] = {
                "psi_norm": report["psi_norm"],
                "rho_norms": [o["rho_norm"] for o in report["orders"]],
                "beta_norms": [o["beta_norm"] for o in report["orders"]],
            }
        else:
            entries[w.name] = {"check_names": sorted(c["name"] for c in report["checks"])}
        print(f"{w.name}: recorded", flush=True)
    doc = {"seed": SEED, "workloads": entries}
    gate.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
