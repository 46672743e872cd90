"""genkahler benchmark: cold-process runs of the `genkahler` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one after another

Every measured invocation is a fresh Python process running `cli.main` on a
config this script generates from the seed, against the checkout's own
`src/` (never an installed copy).  Each invocation passes the correctness gate
in gate.py or counts as failed.

--trace 0 reports the end-to-end metrics: the median wall time of
`cli.main` (artifacts written), the median set-up time from spawn until
`genkahler.cli` is imported, and the median peak RSS.  After a few
import-only set-up probes, invocations repeat while another one is expected
to end within S seconds; there is always at least one.

--trace 1 reports per-layer metrics instead: two traced invocations, whose
exact counts must agree, around one untraced one.  The tracer wraps the layer
boundaries from outside the package (tracer.py).

Human-readable lines go first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Exit code 2 means the
checkout cannot be benchmarked (no `src/genkahler`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from workloads import WORKLOADS, Workload, cli_argv, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
# every run must end well inside 180 s: a child still running this many
# seconds after the run started is killed and counted as failed
RUN_BUDGET_S = 165.0


class CheckoutError(RuntimeError):
    """The directory this script lives in is not a benchmarkable checkout."""


def check_checkout() -> None:
    if not (SRC / "genkahler" / "cli.py").is_file():
        raise CheckoutError(f"no genkahler sources under {SRC}; run from a full checkout")


# ---------------------------------------------------------------------------
# environment record


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def checkout_record() -> dict:
    """Commit, dirty flag, a digest and the line count of the measured src/."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# one fresh process


def spawn(w: Workload, run_dir: Path, tag: str, deadline: float, *, argv: list[str] | None, trace: bool = False) -> dict:
    """Run child.py once; return its measurements plus ``setup_s``.

    ``argv`` None makes an import-only set-up probe.  A child still running
    at ``deadline`` is killed and reported as crashed.
    """
    inv_dir = run_dir / tag
    inv_dir.mkdir(parents=True)
    spec = {
        "argv": argv or [],
        "setup_only": argv is None,
        "trace": trace,
        "result": str(inv_dir / "result.json"),
        "spans": str(inv_dir / "spans.json"),
    }
    spec_path = inv_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(w.thread_env)
    with open(inv_dir / "output.txt", "wb") as log:
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                env=env, cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT,
                timeout=max(deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired:  # the child has been killed and reaped
            return {"crashed": f"{tag} still running at the run deadline"}
    result_path = Path(spec["result"])
    if done.returncode != 0 or not result_path.exists():
        tail = (inv_dir / "output.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"crashed": f"{tag} exited {done.returncode}: {tail}"}
    out = json.loads(result_path.read_text(encoding="utf-8"))
    out["setup_s"] = out["ready"] - spawned
    package = Path(out["package_file"]).resolve()
    if SRC.resolve() not in package.parents:
        out["crashed"] = f"measured {package}, not the checkout under {SRC}"
    return out


def invoke(w: Workload, seed: int, run_dir: Path, tag: str, deadline: float, config: Path, reference: dict,
           trace: bool = False) -> dict:
    """One CLI invocation with its correctness verdict in ``failures``."""
    out_dir = run_dir / tag / "out"
    res = spawn(w, run_dir, tag, deadline, argv=cli_argv(w, seed, str(config), str(out_dir)), trace=trace)
    if "crashed" in res:
        res["failures"] = [res["crashed"]]
        return res
    res["failures"] = gate.failures(w, seed, res["exit_code"], out_dir, reference)
    report = out_dir / "report.json"
    res["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    res["out_dir"] = out_dir
    return res


# ---------------------------------------------------------------------------
# runs


def timed_run(w: Workload, seed: int, seconds: float, run_dir: Path, deadline: float, config: Path,
              reference: dict) -> dict:
    probes = [spawn(w, run_dir, f"probe{i}", deadline, argv=None) for i in range(SETUP_PROBES)]
    invocations = []
    durations: list[float] = []
    # another invocation starts only if one as slow as the slowest so far
    # still ends within the measured seconds and before the run deadline
    stop = min(time.monotonic() + seconds, deadline)
    while not invocations or time.monotonic() + max(durations) <= stop:
        t = time.monotonic()
        invocations.append(invoke(w, seed, run_dir, f"run{len(invocations)}", deadline, config, reference))
        durations.append(time.monotonic() - t)
    run_failures = [p["crashed"] for p in probes if "crashed" in p]
    good = [r for r in invocations if not r["failures"]]
    if len({r["report_sha256"] for r in good}) > 1:
        run_failures.append("report.json differs between invocations of one seed")
    setups = [r["setup_s"] for r in probes + invocations if "crashed" not in r]
    metrics = {}
    if good:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in good), "s", len(good)),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB", len(good)),
        }
    return {"invocations": invocations, "metrics": metrics, "run_failures": run_failures,
            "samples": {"wall_s": [r["wall_s"] for r in good], "setup_s": setups}}


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "flop_computed" if key.endswith(".flops") else "count"


def traced_run(w: Workload, seed: int, run_dir: Path, deadline: float, config: Path, reference: dict) -> dict:
    # the untraced invocation sits between the traced ones, so a drift in
    # machine speed during the run biases the overhead figure less
    invocations = [
        invoke(w, seed, run_dir, "traced0", deadline, config, reference, trace=True),
        invoke(w, seed, run_dir, "untraced", deadline, config, reference),
        invoke(w, seed, run_dir, "traced1", deadline, config, reference, trace=True),
    ]
    if any(r["failures"] for r in invocations):
        return {"invocations": invocations, "metrics": {}, "run_failures": []}
    plain, traced = invocations[1], [invocations[0], invocations[2]]
    layers = [r["layers"] for r in traced]
    run_failures = []
    counts = [{k: v for k, v in lay.items() if _unit(k) != "s"} for lay in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        run_failures.append(f"traced counts differ between two runs of one seed: {diff}")
    span_count = layers[0].pop("span_count")
    missing = traced[0]["missing"]
    metrics = {}
    for key, value in layers[0].items():
        if value is not None and _unit(key) == "s":
            value = statistics.median(lay[key] for lay in layers)
        metrics[key] = (value, _unit(key), len(layers))
    if w.command == "deform":
        order_ms = [gate.order_ms(r["out_dir"]) for r in traced]
        first = statistics.median(ms[0] for ms in order_ms)
        last = statistics.median(ms[1] for ms in order_ms)
        report = json.loads((plain["out_dir"] / "report.json").read_text(encoding="utf-8"))
        support = report["support_size"]
    else:
        first = last = 0.0
        support = 0
    metrics["solver.order_ms.first"] = (first, "ms", len(traced))
    metrics["solver.order_ms.last"] = (last, "ms", len(traced))
    metrics["solver.support_size"] = (support, "count", 1)
    metrics["cli.report_bytes"] = (sum(p.stat().st_size for p in plain["out_dir"].iterdir()), "bytes", 1)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace_overhead_frac"] = (traced_wall / plain["wall_s"] - 1.0, "ratio", len(traced))
    WORK.mkdir(exist_ok=True)
    shutil.copyfile(run_dir / "traced0" / "spans.json", WORK / f"spans-{w.name}.json")
    return {"invocations": invocations, "metrics": metrics, "run_failures": run_failures, "span_count": span_count,
            "missing": missing}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """One benchmark run of one workload; returns the result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "config.json"
        config.write_text(json.dumps(make_config(w, seed), indent=1), encoding="utf-8")
        if trace:
            rec = traced_run(w, seed, run_dir, deadline, config, reference)
        else:
            rec = timed_run(w, seed, seconds, run_dir, deadline, config, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    invocations = rec.pop("invocations")
    rec["attempted"] = len(invocations)
    rec["failed"] = sum(1 for r in invocations if r["failures"])
    rec["failures"] = [f for r in invocations for f in r["failures"]] + rec.pop("run_failures")
    rec["correct"] = not rec["failures"] and bool(rec["metrics"])
    library = next((r["env"] for r in invocations if "env" in r), {})
    rec["env"] = {**library, **w.thread_env, "nproc": nproc(), "executable": sys.executable, **checkout_record()}
    rec.update({"workload": w.name, "seed": seed, "trace": int(trace)})
    return rec


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['attempted']} invocations, {rec['failed']} failed")
    rows = dict(rec["metrics"])
    rows["fail_frac"] = (rec["failed"] / rec["attempted"], "ratio", rec["attempted"])
    for name, (value, unit, n) in rows.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {unit:<6} n={n}")
    for failure in rec["failures"]:
        print(f"  FAILED: {failure}")
    for name in rec.get("missing", []):
        sys.stderr.write(f"perfbench: warning: boundary {name} does not exist in this checkout; reported as null\n")
    print("  env: " + json.dumps(rec["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        reference = gate.load_reference()
    except (CheckoutError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        print_record(rec)
        records.append(rec)
        WORK.mkdir(exist_ok=True)
        record_path = WORK / f"record-{name}-trace{args.trace}.json"
        record_path.write_text(json.dumps(rec, indent=1, sort_keys=True, default=str), encoding="utf-8")
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": unit}
            for r in records
            for k, (v, unit, _) in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
