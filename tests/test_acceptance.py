"""Acceptance suite: every exit criterion at its stated tolerance.

All equality assertions are exact (the arithmetic is exact); the time bounds
are the stated expectations, asserted as hard limits.  One line prints per
criterion per configuration; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fglab.descent import descent_run
from fglab.dvr import eisenstein_check, reconstruction_defect
from fglab.isogeny import equal_within_prec
from fglab.report import comparable_bytes
from fglab.scalars import USeries
from fglab.verify import run_verify

CONFIGS = [(2, 1), (3, 1), (2, 2)]
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "goldens")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _line(num: int, ok: bool, desc: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_1_fgl_axioms_and_addition_congruences(pipeline, p, n):
    pipe = pipeline(p, n)
    rows = {r.name: r for r in pipe.congruences}
    ok = all(
        rows[name].ok
        for name in ("fgl_unit_x", "fgl_unit_y", "fgl_symmetry", "fgl_associativity",
                     "fgl_integrality")
    )
    ok = ok and all(
        rows[f"addition_congruence_k{k}"].ok for k in range(1, n + 1)
    )
    ok = ok and rows["addition_congruence_top"].ok
    in_time = pipe.timing_ms["fgl_build_ms"] + pipe.timing_ms["fgl_congruences_ms"] < 60_000
    _line(
        1,
        ok and in_time,
        f"({p},{n}) unit/symmetry/associativity + addition congruences exact "
        f"in {pipe.timing_ms['fgl_build_ms'] + pipe.timing_ms['fgl_congruences_ms']} ms (< 60 s)",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_2_iseries_table(pipeline, p, n):
    pipe = pipeline(p, n)
    rows = {r.name: r for r in pipe.congruences}
    imax = p * p + 1
    wanted = []
    for i in range(imax + 1):
        for k in range(1, n + 1):
            wanted.append(f"iseries_congruence_i{i}_k{k}")
        wanted.append(f"iseries_congruence_i{i}_top")
    ok = all(rows[name].ok for name in wanted)
    in_time = pipe.timing_ms["fgl_congruences_ms"] < 30_000
    _line(
        2,
        ok and in_time,
        f"({p},{n}) multiplication-series residue table ({len(wanted)} rows, "
        f"0 <= i <= {imax}) exact in {pipe.timing_ms['fgl_congruences_ms']} ms (< 30 s)",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_3_weierstrass_factorization(pipeline, p, n):
    pipe = pipeline(p, n)
    cfg = pipe.config
    d = cfg.eisenstein_degree
    g = pipe.factorization.distinguished
    monic = g.coefficients[d] == USeries.one(p, cfg.u_precision)
    gbar = all((g.coefficients[i].weight() or 1) >= 1 for i in range(d))
    const = g.coefficients[0].weight() == 1
    defect = reconstruction_defect(
        pipe.factorization, pipe.data.p_series_a, cfg.u_precision
    )
    ms = pipe.timing_ms["bigseries_ms"] + pipe.timing_ms["weierstrass_ms"]
    _line(
        3,
        monic and gbar and const and not defect and ms < 30_000,
        f"({p},{n}) [p](a) = U a^{p ** n} g reconstructed bit-exactly at "
        f"u-precision {cfg.u_precision}; g monic deg {d}, gbar = a^d, "
        f"const val 1; {ms} ms (< 30 s)",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_4_valuation_ring(pipeline, p, n):
    pipe = pipeline(p, n)
    d = pipe.config.eisenstein_degree
    ok = (
        eisenstein_check(pipe.factorization.distinguished)
        and pipe.ring.un().valuation() == d
        and pipe.ring.a().valuation() == 1
        and not pipe.psi.is_zero()
        and pipe.psi.valuation() == p - 1
    )
    _line(
        4,
        ok,
        f"({p},{n}) Eisenstein passes; val(u) = {d}, val(a) = 1, "
        f"val(psi) = {p - 1}, psi != 0",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_5_quotient_identity(pipeline, p, n):
    pipe = pipeline(p, n)
    defects_ok = all(
        v is None or v >= prec for (v, prec) in pipe.norm.residual_defects
    )
    integral = all(pipe.norm.quotient.integral)
    ms = pipe.timing_ms["isogeny_ms"]
    in_time = ms < 300_000 if (p, n) == (2, 2) else True
    _line(
        5,
        defects_ok and integral and in_time,
        f"({p},{n}) quotient p-series identity holds to x-cap "
        f"{pipe.config.isogeny_x_cap}; all {len(pipe.norm.quotient.integral) - 1} "
        f"coefficients integral; {ms} ms",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_6_vanishing_division_weights(pipeline, p, n):
    pipe = pipeline(p, n)
    d = pipe.config.eisenstein_degree
    q = pipe.norm.quotient.coefficients
    vanish = all(q[j].is_zero() for j in range(1, p**n))
    prod = pipe.un_image_divided * pipe.psi ** (p**n - 1)
    division_ok, _ = equal_within_prec(prod, pipe.ring.un())
    wt_psi = pipe.psi.weight().as_fraction() == Fraction(p - 1, d)
    wt_img = pipe.un_image_divided.weight().as_fraction() == Fraction(p - 1, d)
    routes, _ = equal_within_prec(pipe.un_image_extracted, pipe.un_image_divided)
    extra = " (incl. the y^p coefficient at height 3)" if (p, n) == (2, 2) else ""
    _line(
        6,
        vanish and division_ok and wt_psi and wt_img and routes,
        f"({p},{n}) lower coefficients vanish{extra}; "
        f"(u-image) psi^(p^n - 1) = u exactly; wt(psi) = wt(u-image) = "
        f"{Fraction(p - 1, d)}; extraction = division bit-exactly",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_7_epsilon_sign(pipeline, p, n):
    pipe = pipeline(p, n)
    consistent = pipe.epsilon_extracted == pipe.epsilon_divided
    report = run_verify(p, n)
    stated = report.to_dict()["epsilon_sign"]
    note = " (trivially, +1 = -1 mod 2)" if p == 2 else ""
    _line(
        7,
        consistent and stated == pipe.epsilon_divided,
        f"({p},{n}) epsilon = {stated:+d} on both routes{note}; stated in the report",
    )


@pytest.mark.parametrize("p,n", CONFIGS)
def test_criterion_8_descent(pipeline, p, n):
    pipe = pipeline(p, n)
    M = pipe.config.u_precision
    d = pipe.ring.d
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(100):
        w = rng.randint(1, 20)
        coeffs = [0] * w + [rng.randrange(p) for _ in range(M - w)]
        coeffs[w] = rng.randrange(1, p)
        z = USeries(p, coeffs)
        trace = descent_run(z, pipe.operator)
        ws = trace.weights
        assert all(b < a for a, b in zip(ws, ws[1:])), "weights not strictly decreasing"
        assert trace.terminal.weight() == 0, "did not reach a unit"
        assert len(trace.steps) <= w * d, "step bound violated"
    elapsed = time.perf_counter() - t0
    single = descent_run(USeries.monomial(p, M, 1), pipe.operator)
    one_step_ok = len(single.steps) == 1 if (p, n) == (2, 1) else len(single.steps) >= 1
    _line(
        8,
        elapsed < 60 and one_step_ok,
        f"({p},{n}) 100 seeded descents (wt 1..20) strictly decreasing to a unit "
        f"in {elapsed:.1f} s (< 60 s); z = u takes {len(single.steps)} step(s)",
    )


@pytest.mark.parametrize(
    "p,n,M,name",
    [(3, 1, 32, "verify_p3_n1"), (2, 2, 32, "verify_p2_n2"), (5, 1, 8, "verify_p5_n1_m8")],
    ids=["3-1", "2-2", "5-1-m8"],
)
def test_verify_golden(p, n, M, name):
    """The complete (3,1) and (2,2) reports, timing stripped, byte-exactly;
    run_verify reuses the pipelines the criteria above cached.  (5,1) at
    M = 8 pins Weierstrass, the isogeny and descent at p >= 5."""
    got = comparable_bytes(run_verify(p, n, u_prec=M).to_dict())
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "rb") as fh:
        assert got == fh.read()


def test_criterion_9_determinism_and_goldens(tmp_path):
    """The second run is the CLI in a fresh interpreter, with its own hash
    seed and an empty pipeline cache."""
    rep1 = run_verify(2, 1)
    out = tmp_path / "verify_p2_n1.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    argv = ["verify", "--p", "2", "--n", "1", "--out", str(out)]
    code = f"import sys; from fglab.cli import main; sys.exit(main({argv!r}))"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=600)
    rep2 = json.loads(out.read_text())
    same = comparable_bytes(rep1.to_dict()) == comparable_bytes(rep2)
    with open(os.path.join(GOLDEN_DIR, "verify_p2_n1.json"), "rb") as fh:
        golden_ok = comparable_bytes(rep1.to_dict()) == fh.read()
    _line(
        9,
        same and golden_ok,
        "two verify runs byte-identical modulo the timing block; "
        "(2,1) golden matches bit-exactly",
    )
