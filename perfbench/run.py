"""fglab benchmark: cold verify time, descent throughput, and a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-2-2 --seed 1 --seconds 55 --trace 0

Workloads are described in perfbench/README.md.  Every session runs in a
fresh interpreter (perfbench/child.py) with ``src`` on PYTHONPATH, one at a
time, so cold verifies stay cold.  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of one
traced session.  The line
before it holds the details: per-metric median, tail percentile and sample
count, the desk-scale guard figures and every gate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT_S = 170.0  # whole run, so that it ends within 180 s

WORKLOADS = {
    # Cold (2,2) at M = 32: exact-rational FGL stage and isogeny lead.
    "verify-2-2": {
        "p": 2, "n": 2, "u_prec": 32, "force": False,
        "batch_size": 100, "trace_batches": 13,
    },
    # Cold (2,1) at M = 96: bigseries leads; the guard refuses it without --force.
    "verify-2-1-m96": {
        "p": 2, "n": 1, "u_prec": 96, "force": True,
        "batch_size": 10, "trace_batches": 16,
    },
}
SESSIONS = 3  # cold sessions per untraced run
MIN_DESCENT_S = 2.0  # descent batches per session, at the least


class Budget:
    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def left(self) -> float:
        return self.deadline - time.monotonic()


def spawn(spec: dict, budget: Budget) -> dict:
    """Run one child; returns its result, or an error entry."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spec = dict(spec, spawn_t=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(budget.left(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{spec['mode']} child ran past the time limit"], "crashed": True}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"{spec['mode']} child exited {proc.returncode}: {tail}"], "crashed": True}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "end_t" in result:
        result["wall_s"] = result["end_t"] - spec["spawn_t"]
    return result


def ref_keys(w: dict) -> tuple:
    """Keys of the recorded digests: the verify report of (p, n, M) and the
    reference descent batch (seed 0) at this workload's batch size."""
    key = f"{w['p']}-{w['n']}-{w['u_prec']}"
    return key, f"{key}-b{w['batch_size']}"


def session_spec(w: dict, refs: dict, trace: bool, tag: str, seed_base: int = 0,
                 until: float | None = None, count: int | None = None,
                 calibrate: bool = False) -> dict:
    """One session: a cold verify, then descent batches until the monotonic
    time ``until`` (and for MIN_DESCENT_S at the least), or ``count`` batches;
    with ``calibrate``, under a calibration ticker (perfbench/calibrate.py)."""
    verify_key, descent_key = ref_keys(w)
    return {
        "mode": "session",
        "p": w["p"],
        "n": w["n"],
        "u_prec": w["u_prec"],
        "force": w["force"],
        "trace": trace,
        "calibrate": calibrate,
        "ref_verify": refs["verify"].get(verify_key),
        "ref_descent": refs["descent"].get(descent_key),
        "report_path": str(OUT / f"report-{tag}.json"),
        "trace_path": str(OUT / f"trace-{tag}.npz"),
        "batch_size": w["batch_size"],
        "seed_base": seed_base,
        "until": until,
        "min_seconds": MIN_DESCENT_S,
        "count": count,
    }


def seed_base(seed: int, session: int) -> int:
    """Descent batch k of a session uses seed ``seed_base + k``; batch 0 is
    the reference batch at seed 0."""
    return seed * 1_000_003 + session * 10_007


def tail_stat(values: list, better: str) -> tuple:
    """The most extreme percentile on the bad side with at least ten samples
    beyond it, as (percent, value); (None, None) with fewer than eleven."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    if better == "higher":
        return round(100.0 * 10 / n, 2), ordered[10]
    return round(100.0 * (n - 10) / n, 2), ordered[n - 11]


def describe(values: list, unit: str, better: str) -> dict:
    pct, tail = tail_stat(values, better)
    return {
        "median": statistics.median(values) if values else None,
        "min": min(values) if values else None,
        "tail_percentile": pct,
        "tail_value": tail,
        "count": len(values),
        "unit": unit,
        "samples": [round(v, 6) for v in values],
    }


class Tally:
    """Operations attempted and failed, plus every gate message.  An
    operation is one cold verify or one descent trace."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def session(self, r: dict, batch_size: int) -> tuple:
        """Counts one session; returns (verify passed, gated batches)."""
        self.errors += r["errors"]
        self.attempted += 1
        verify_ok = not r.get("crashed") and r.get("verify_ok", False)
        self.failed += 0 if verify_ok else 1
        if r.get("crashed"):  # its batches are lost: count one batch as failed
            self.attempted += batch_size
            self.failed += batch_size
        good = []
        for b in r.get("batches", []):
            self.attempted += b["traces"]
            self.failed += b["failed"]
            if not b["failed"]:
                good.append(b)
        return verify_ok, good


def calibrated(seconds: float, spent: float, slowdown: float) -> float:
    """A raw time less the calibration ticker's share of it, divided by the
    host slowdown over the same window (perfbench/calibrate.py)."""
    return (seconds - spent) / slowdown


def run_untraced(w: dict, refs: dict, seed: int, seconds: int, budget: Budget):
    """SESSIONS cold sessions, one at a time, each after an import-only probe.
    Session i runs descent batches until (i + 1) / SESSIONS of --seconds have
    passed since the run began, so the run measures for about --seconds
    whatever a verify costs on the day.  Every time is calibrated for the
    host's speed over its own window (perfbench/calibrate.py), and every
    metric is the median of its samples (peak RSS: the largest); the raw
    samples and the slowdowns go to the details."""
    tally = Tally()
    samples = {"verify_s": [], "setup_s": [], "descents_per_s": [], "peak_rss_mb": []}
    raw = {"verify_s": [], "setup_s": [], "descents_per_s": []}
    slowdowns = {"verify": [], "descent": [], "import": []}
    build_s, extra = [], {}
    steps = horizon = traces = 0

    def add_setup(r: dict):
        samples["setup_s"].append(calibrated(r["import_s"], 0.0, r["import_slowdown"]))
        raw["setup_s"].append(r["import_s"])
        slowdowns["import"].append(r["import_slowdown"])

    t0 = time.monotonic()
    for i in range(SESSIONS):
        probe = spawn({"mode": "import", "calibrate": True}, budget)
        tally.errors += probe["errors"]
        if not probe.get("crashed"):
            add_setup(probe)
        until = t0 + seconds * (i + 1) / SESSIONS
        spec = session_spec(w, refs, False, f"s{i}", seed_base(seed, i), until=until,
                            calibrate=True)
        r = spawn(spec, budget)
        verify_ok, batches = tally.session(r, w["batch_size"])
        if verify_ok:
            cal = r["verify_cal"]
            if cal["slowdown"] is None:
                tally.errors.append("verify: no calibration pass fell inside it")
            else:
                samples["verify_s"].append(calibrated(r["verify_s"], cal["spent"], cal["slowdown"]))
                raw["verify_s"].append(r["verify_s"])
                slowdowns["verify"].append(cal["slowdown"])
            add_setup(r)
            build_s.append(r["build_s"])
        if "rss_mb" in r:
            samples["peak_rss_mb"].append(r["rss_mb"])
            extra.update(cost_estimate=r["cost_estimate"], guard_limit=r["guard_limit"])
        slowdown = r.get("descent_cal", {}).get("slowdown")
        if batches and slowdown is None:
            tally.errors.append("descent batches: no calibration pass fell inside them")
        elif batches:
            slowdowns["descent"].append(slowdown)
        for b in batches:
            raw["descents_per_s"].append(b["traces"] / b["dt"])
            if slowdown is not None:
                dt = calibrated(b["dt"], b["spent"], slowdown)
                samples["descents_per_s"].append(b["traces"] / dt)
            steps += b["steps"]
            horizon += b["horizon"]
            traces += b["traces"]

    details = {
        "seed_used": "descent starts only; the verify is deterministic",
        "measured_s": time.monotonic() - t0,
        **extra,
        "failed_share": tally.failed / tally.attempted,
        "horizon_share": horizon / traces if traces else None,
        "steps_per_trace": steps / traces if traces else None,
        "pipeline_build_s": build_s,
        "raw_samples": {k: [round(v, 6) for v in vs] for k, vs in raw.items()},
        "raw_medians": {k: statistics.median(vs) if vs else None for k, vs in raw.items()},
        "slowdowns": {k: [round(v, 4) for v in vs] for k, vs in slowdowns.items()},
    }
    s = samples
    median = statistics.median
    metrics = {
        "verify_s": median(s["verify_s"]) if s["verify_s"] else None,
        "setup_s": median(s["setup_s"]) if s["setup_s"] else None,
        "descents_per_s": median(s["descents_per_s"]) if s["descents_per_s"] else None,
        "peak_rss_mb": max(s["peak_rss_mb"]) if s["peak_rss_mb"] else None,
    }
    return tally, metrics, samples, details


def run_traced(w: dict, refs: dict, seed: int, seconds: int, budget: Budget):
    """One untraced and one traced session of the same inputs; the per-layer
    metrics come from the traced one, the overhead from their difference."""
    tally = Tally()
    runs = []
    for trace in (False, True):
        tag = "traced" if trace else "untraced"
        spec = session_spec(w, refs, trace, tag, seed_base(seed, 0), count=w["trace_batches"])
        r = spawn(spec, budget)
        tally.session(r, w["batch_size"])
        runs.append(r)
    untraced, traced = runs
    metrics = {}
    if "layers" in traced and "wall_s" in untraced:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    details = {"untraced_wall_s": untraced.get("wall_s"), "traced_wall_s": traced.get("wall_s")}
    return tally, metrics, {}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fglab" / "__init__.py").is_file():
        print(f"no fglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    OUT.mkdir(exist_ok=True)
    budget = Budget()

    # Fill the bytecode cache and the page cache, as a user's second run would.
    warm = spawn({"mode": "import"}, budget)
    if warm.get("crashed"):
        print("cannot import fglab: " + "; ".join(warm["errors"]), file=sys.stderr)
        return 1

    w = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    tally, measured, samples, details = run(w, refs, args.seed, args.seconds, budget)

    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in section:
        value = measured.get(m["name"])
        if value is None:
            tally.errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    declared_by_name = {m["name"]: m for m in section}
    details["metrics"] = {
        k: describe(v, declared_by_name[k]["unit"], declared_by_name[k]["better"])
        for k, v in samples.items()
    }
    details["errors"] = tally.errors
    correct = not tally.errors and tally.failed == 0 and len(metrics) == len(section)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
