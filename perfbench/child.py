"""One benchmark session, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
PYTHONPATH.  The last line of standard output is a JSON object with the
session's times (all taken here, outside the package), its correctness-gate
result and, for a traced session, the per-layer summary.

A session is one cold ``fglab verify`` through ``fglab.cli.main``, then
descent batches on the pipeline that verify built: a reference batch at seed 0
(untimed; its digest is checked), then timed batches until a batch count or a
deadline.  The verify's own ``build_pipeline(p, n, 0, M)`` call is timed from
outside too, since it is the set-up a descent user pays.  With ``"mode":
"import"`` the child only imports fglab (set-up probe and bytecode warm-up).
A calibrating session runs a ``calibrate.Ticker`` from the start of its
verify to the end of its batches and returns, next to each raw time, the
ticker's record of the same window; an import-only probe with ``calibrate``
times a short slice of calibration passes right after its import.  ``run.py``
turns these into calibrated times.

Times are ``time.monotonic()`` readings; on Linux that clock is shared by all
processes, so the parent's spawn time and this process's import time can be
subtracted.
"""

import json
import sys
import time

import fglab  # the set-up clock stops when this returns

T_IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402

import fglab.cli  # noqa: E402
import fglab.report  # noqa: E402
import fglab.schema  # noqa: E402
import fglab.verify  # noqa: E402
from fglab.fgl import ChromaticConfig  # noqa: E402
from fglab.report import canonical_json, strip_timing  # noqa: E402
from fglab.schema import validate_report  # noqa: E402

# Bound before any tracer is installed: the gate's own calls below use these
# originals, so they never show up as spans.  The program's calls, and the
# emission timed in run_batch, go through the module attributes.
BUILD_PIPELINE = fglab.verify.build_pipeline  # the lru_cache object

IMPORT_CAL_S = 0.15  # calibration slice right after the import


def digest(payload: dict) -> str:
    """sha256 of fglab.report.comparable_bytes(payload)."""
    return hashlib.sha256(canonical_json(strip_timing(payload)).encode()).hexdigest()


def is_unit(rendered: str) -> bool:
    """A rendered u-series is a unit when its lowest term is a constant."""
    return rendered != "0" and "u" not in rendered.split(" + ")[0]


def cache_counts() -> tuple:
    info = BUILD_PIPELINE.cache_info()
    return info.hits, info.misses


def cold_verify(spec: dict, tracer, ticker, out: dict):
    """One cold verify through the CLI entry, gated; records verify_s and the
    time of the build_pipeline call inside it."""
    p, n, M = spec["p"], spec["n"], spec["u_prec"]
    inner = fglab.verify.build_pipeline
    build_time = []

    def timed_build(*args, **kwargs):
        t = time.monotonic()
        try:
            return inner(*args, **kwargs)
        finally:
            build_time.append(time.monotonic() - t)

    fglab.verify.build_pipeline = timed_build
    argv = ["verify", "--p", str(p), "--n", str(n), "--u-prec", str(M)]
    argv += ["--force"] if spec["force"] else []
    argv += ["--out", spec["report_path"]]
    mark = ticker.mark() if ticker is not None else None
    t0 = time.monotonic()
    if tracer is not None:
        with tracer.span("bench.cli_main"):
            rc = fglab.cli.main(argv)
    else:
        rc = fglab.cli.main(argv)
    out["verify_s"] = time.monotonic() - t0
    if ticker is not None:
        out["verify_cal"] = ticker.since(mark)
    fglab.verify.build_pipeline = inner
    out["build_s"] = build_time[0] if build_time else None

    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    if cache_counts() != (0, 1):
        problems.append(f"pipeline cache not cold: {BUILD_PIPELINE.cache_info()}")
    try:
        with open(spec["report_path"]) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"report unreadable: {exc}")
    else:
        schema_errors = validate_report(payload)
        if schema_errors:
            problems.append(f"schema: {schema_errors[:3]}")
        if payload.get("epsilon_sign") != 1:
            problems.append(f"epsilon_sign {payload.get('epsilon_sign')}")
        if any(c["status"] == "fail" for c in payload.get("checks", [])):
            problems.append("a check row failed")
        out["verify_digest"] = digest(payload)
        if out["verify_digest"] != spec["ref_verify"]:
            problems.append("report digest differs from the recorded one")
    out["verify_ok"] = not problems
    if problems:
        out["errors"].append("verify: " + "; ".join(problems))


def run_batch(spec: dict, k: int, ticker, out: dict) -> dict:
    """Descent batch k through run_descent_command plus report emission;
    returns its time (and the ticker's share of it) and trace counts, and
    records gate failures in out."""
    size = spec["batch_size"]
    mark = ticker.mark() if ticker is not None else None
    t0 = time.monotonic()
    report = fglab.verify.run_descent_command(
        spec["p"],
        spec["n"],
        u_prec=spec["u_prec"],
        random_count=size,
        seed=0 if k == 0 else spec["seed_base"] + k,
        force=spec["force"],
    )
    payload = report.to_dict()
    schema_errors = fglab.schema.validate_report(payload)
    fglab.report.canonical_json(payload)
    dt = time.monotonic() - t0
    spent = ticker.since(mark)["spent"] if ticker is not None else 0.0

    traces = payload["descent_traces"]
    failed = sum(
        1
        for row, tr in zip(payload["checks"], traces)
        if row["status"] == "fail" or not is_unit(tr["terminal"])
    )
    problems = []
    if schema_errors:
        problems.append(f"schema: {schema_errors[:3]}")
    if payload["epsilon_sign"] != 1:
        problems.append(f"epsilon_sign {payload['epsilon_sign']}")
    if len(traces) != size or len(payload["checks"]) != size:
        problems.append(f"{len(traces)} traces for {size} starts")
    if k == 0:
        out["ref_batch_digest"] = digest(payload)
        if out["ref_batch_digest"] != spec["ref_descent"]:
            problems.append("reference batch digest differs from the recorded one")
    if problems:
        out["errors"].append(f"descent batch {k}: " + "; ".join(problems))
        failed = size
    return {
        "dt": dt,
        "spent": spent,
        "traces": size,
        "failed": failed,
        "steps": sum(len(tr["steps"]) for tr in traces),
        "horizon": sum(1 for tr in traces if tr["horizon_flagged"]),
    }


def run_batches(spec: dict, tracer, ticker, out: dict) -> list:
    """The reference batch, then timed batches until spec["count"] batches in
    all, or until the monotonic time spec["until"] and for spec["min_seconds"]
    at the least; returns the timed ones.  With a ticker, out["descent_cal"]
    is its record of the timed batches' window."""
    timed = []
    k = 0
    deadline = mark = None
    while True:
        if k == 1:
            mark = ticker.mark() if ticker is not None else None
            if spec.get("until") is not None:
                deadline = max(spec["until"], time.monotonic() + spec["min_seconds"])
        if spec.get("count") is not None and k >= spec["count"]:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if tracer is not None:
            tracer.current_sample = k
            with tracer.span("bench.descent_batch"):
                batch = run_batch(spec, k, ticker, out)
        else:
            batch = run_batch(spec, k, ticker, out)
        if k:
            timed.append(batch)
        k += 1
    if mark is not None:
        out["descent_cal"] = ticker.since(mark)
    return timed


def main(spec: dict) -> dict:
    out = {"import_s": T_IMPORTED - spec["spawn_t"], "errors": []}
    if spec.get("calibrate"):
        out["import_slowdown"] = calibrate.slowdown(IMPORT_CAL_S)
    if spec["mode"] == "import":
        return out
    out["cost_estimate"] = ChromaticConfig(
        spec["p"], spec["n"], u_precision=spec["u_prec"]
    ).cost_estimate()
    out["guard_limit"] = fglab.verify.GUARD_LIMIT

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ticker = None
    if spec["calibrate"]:
        ticker = calibrate.Ticker()
        ticker.start()
    try:
        cold_verify(spec, tracer, ticker, out)
        out["batches"] = run_batches(spec, tracer, ticker, out)
    finally:
        if ticker is not None:
            ticker.stop()
    if cache_counts() != (len(out["batches"]) + 1, 1):
        out["errors"].append(
            f"descent batches missed the pipeline cache: {BUILD_PIPELINE.cache_info()}"
        )
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["end_t"] = time.monotonic()

    if tracer is not None:
        tracer.uninstall()
        if fglab.verify.build_pipeline is not BUILD_PIPELINE:
            out["errors"].append("tracer left a wrapper installed")
        tracer.save(spec["trace_path"])
        out["layers"] = tracer.summary("bench.cli_main")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
