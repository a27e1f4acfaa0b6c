"""End-to-end pipeline: build, verify, report.

One Pipeline object per configuration carries every computed stage; the
check-row builders below turn the stages into the report.  Failures are data
(rows with status "fail"), not exceptions, except for structural errors that
leave nothing meaningful to report.

The desk-scale guard refuses configurations whose size metric exceeds
GUARD_LIMIT unless forced; the metric grows like the square of the a-degree
the big-series stage has to reach, which is what actually hurts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bigseries import ReducedLawData, build_reduced_law_data
from .descent import (
    ReducedPowerOperator,
    descent_run,
    weight_rule_witness,
)
from .dvr import (
    DvrRing,
    WeierstrassFactorization,
    compute_psi,
    compute_psi_negative,
    eisenstein_check,
    reconstruction_defect,
    reduce_to_un,
    reduced_p_series,
    weierstrass_from_rows,
)
from .errors import DeskScaleExceeded
from .fgl import (
    CheckRow,
    ChromaticConfig,
    FormalGroupLaw,
    build_fgl,
    ideal_text,
    iseries_congruence,
    k_label,
    verify_fgl_congruences,
)
from .isogeny import (
    NormData,
    equal_within_prec,
    extract_un_image,
    quotient_p_series,
    sign_check,
    slab_row_tables,
    un_image_by_division,
)
from .report import RunReport, trace_payload
from .scalars import USeries

# Size estimates: (2,1) ~200, (2,2) ~750, (3,1) ~1600 run in seconds.
# (2,3) ~2900, (3,2) ~14100 and (5,1) ~17200 need --force, though each ran
# in under 10 s on a 2-vCPU host; the estimate is a formula guess, not a fit.
GUARD_LIMIT = 2500


def guard_config(cfg: ChromaticConfig, force: bool = False):
    est = cfg.cost_estimate()
    if est > GUARD_LIMIT and not force:
        raise DeskScaleExceeded(
            f"estimated size {est} exceeds the desk-scale guard {GUARD_LIMIT} "
            f"for (p, n) = ({cfg.p}, {cfg.n}); pass --force to run anyway"
        )


@dataclass
class Pipeline:
    config: ChromaticConfig
    law: FormalGroupLaw
    congruences: list[CheckRow]
    data: ReducedLawData
    factorization: WeierstrassFactorization
    ring: DvrRing
    psi: object
    psi_negative: object
    norm: NormData
    un_image_extracted: object
    un_image_divided: object
    epsilon_extracted: int
    epsilon_divided: int
    operator: ReducedPowerOperator
    started_at: float  # time.perf_counter() when the build began
    stage_ends: tuple  # (timing key, time.perf_counter() at the end of that stage)

    @property
    def timing_ms(self) -> dict:
        return _durations(self.started_at, self.stage_ends)


def _durations(start: float, ends) -> dict:
    """Milliseconds per stage from consecutive stage end times.  Each stage is
    the difference of rounded times since ``start``, so the stages add up to
    the rounded time of the last end exactly."""
    out, prev = {}, 0
    for name, t in ends:
        ms = int((t - start) * 1000)
        out[name] = ms - prev
        prev = ms
    return out


@lru_cache(maxsize=8)
def certified_law(cfg: ChromaticConfig) -> FormalGroupLaw:
    """The law of one configuration, built and certified once and shared by
    ``build_pipeline`` and ``run_pseries_command``.  A pipeline that finds it
    here times the lookup as ``fgl_build_ms``, not the original build."""
    return build_fgl(cfg)


@lru_cache(maxsize=8)
def build_pipeline(p: int, n: int, x_deg: int = 0, u_prec: int = 32) -> Pipeline:
    cfg = ChromaticConfig(p, n, formal_cap=x_deg, u_precision=u_prec)
    started_at = time.perf_counter()
    ends: list = []

    def stage_done(name: str):
        ends.append((name, time.perf_counter()))

    law = certified_law(cfg)
    stage_done("fgl_build_ms")
    congruences = verify_fgl_congruences(law)
    stage_done("fgl_congruences_ms")

    data = build_reduced_law_data(cfg)
    stage_done("bigseries_ms")

    fact = weierstrass_from_rows(
        p,
        data.p_series_a,
        cfg.eisenstein_degree,
        p**n,
        cfg.u_precision,
        cfg.u_precision,
        depth=data.a_cap,
    )
    ring = DvrRing(fact.distinguished)
    psi = compute_psi(ring, data.series_a)
    psi_neg = compute_psi_negative(ring, data.series_a)
    stage_done("weierstrass_ms")

    rows = slab_row_tables(data.slab, data.x_cap)
    norm = quotient_p_series(ring, rows, data.series_a, data.p_series_x, data.x_cap)
    nbar_ext = extract_un_image(norm, n)
    nbar_div = un_image_by_division(psi, n)
    eps_ext = sign_check(nbar_ext, psi, n)
    eps_div = sign_check(nbar_div, psi, n)
    stage_done("isogeny_ms")

    op = ReducedPowerOperator(nbar_div)
    return Pipeline(
        config=cfg,
        law=law,
        congruences=congruences,
        data=data,
        factorization=fact,
        ring=ring,
        psi=psi,
        psi_negative=psi_neg,
        norm=norm,
        un_image_extracted=nbar_ext,
        un_image_divided=nbar_div,
        epsilon_extracted=eps_ext,
        epsilon_divided=eps_div,
        operator=op,
        started_at=started_at,
        stage_ends=tuple(ends),
    )


def _row(name, ok, detail="", defect="", horizon=False) -> CheckRow:
    return CheckRow(name=name, ok=bool(ok), detail=detail, defect=defect, horizon=horizon)


def reduced_series_rows(pipe: Pipeline) -> list:
    """The two leading-behavior checks of the reduced p-series, from the
    exact-rational route, plus agreement between the two routes."""
    cfg = pipe.config
    p, n = cfg.p, cfg.n
    rows = []
    grid = reduced_p_series(pipe.law)
    low = {k: v for k, v in grid.items() if k[1] <= p**n}
    expect_low = {(1, p**n): 1}
    rows.append(
        _row(
            "reduced_pseries_leading",
            low == expect_low,
            detail=f"[p](a) = u*a^{p ** n} mod a^{p ** n + 1}",
            defect="" if low == expect_low else str(sorted(low.items())),
        )
    )
    top = {
        k: v for k, v in grid.items() if k[0] == 0 and k[1] <= p ** (n + 1)
    }
    expect_top = {(0, p ** (n + 1)): 1}
    rows.append(
        _row(
            "reduced_pseries_top",
            top == expect_top,
            detail=f"[p](a) = a^{p ** (n + 1)} mod (u, a^{p ** (n + 1) + 1})",
            defect="" if top == expect_top else str(sorted(top.items())),
        )
    )

    # Route agreement on the overlap region.
    d = pipe.data.d
    vb = pipe.data.vbound
    D = cfg.formal_cap
    big = {
        k: v
        for k, v in pipe.data.p_series_a.items()
        if k[1] <= D and k[0] * d + k[1] <= vb
    }
    small = {k: v for k, v in grid.items() if k[0] * d + k[1] <= vb}
    rows.append(
        _row(
            "route_agreement_pseries",
            big == small,
            detail=f"rational-stage vs large-degree engine on {len(small)} overlap terms",
        )
    )

    def on_slab_overlap(k) -> bool:
        return k[1] + k[2] <= D and k[2] <= cfg.isogeny_x_cap and k[0] * d + k[1] <= vb

    big_slab = {k: v for k, v in pipe.data.slab.items() if on_slab_overlap(k)}
    small_slab = {k: v for k, v in reduce_to_un(pipe.law).items() if on_slab_overlap(k)}
    rows.append(
        _row(
            "route_agreement_addition",
            big_slab == small_slab,
            detail=f"addition law routes agree on {len(small_slab)} overlap terms",
        )
    )
    return rows


def weierstrass_rows(pipe: Pipeline) -> list:
    cfg = pipe.config
    p, n, M = cfg.p, cfg.n, cfg.u_precision
    d = cfg.eisenstein_degree
    g = pipe.factorization.distinguished
    rows = []
    rows.append(
        _row(
            "weierstrass_monic",
            g.coefficients[d] == USeries.one(p, M),
            detail=f"g monic of degree d = {d}",
        )
    )
    gbar_ok = all(
        (g.coefficients[i].weight() or 1) >= 1 for i in range(d)
    )
    rows.append(
        _row("weierstrass_gbar", gbar_ok, detail="g = a^d modulo u")
    )
    w0 = g.coefficients[0].weight()
    rows.append(
        _row(
            "weierstrass_const_val",
            w0 == 1,
            detail=f"constant term u-valuation {w0}, want exactly 1",
        )
    )
    rows.append(
        _row(
            "weierstrass_unit_const",
            pipe.factorization.unit_constant() != 0,
            detail="unit factor has invertible constant term",
        )
    )
    defect = reconstruction_defect(pipe.factorization, pipe.data.p_series_a, M)
    rows.append(
        _row(
            "weierstrass_reconstruction",
            not defect,
            detail=(
                f"U * a^{p ** n} * g reproduces [p](a) bit-exactly on the "
                f"valid region (u-precision {M})"
            ),
            defect="" if not defect else str(sorted(defect.items())[:6]),
        )
    )
    fact2 = weierstrass_from_rows(
        p, pipe.data.p_series_a, d, p**n, M, M, depth=pipe.data.a_cap
    )
    rows.append(
        _row(
            "weierstrass_determinism",
            fact2.distinguished == g and fact2.unit_rows == pipe.factorization.unit_rows,
            detail="re-running preparation reproduces (U, g) exactly",
        )
    )
    rows.append(
        _row(
            "eisenstein",
            eisenstein_check(g),
            detail="irreducibility certificate for g",
        )
    )
    return rows


def dvr_rows(pipe: Pipeline) -> list:
    cfg = pipe.config
    p, n = cfg.p, cfg.n
    d = cfg.eisenstein_degree
    ring = pipe.ring
    rows = []
    rows.append(
        _row("val_a", ring.a().valuation() == 1, detail="val(a) = 1")
    )
    rows.append(
        _row(
            "val_un",
            ring.un().valuation() == d,
            detail=f"val(u) = d = {d}, so wt(u) = 1",
        )
    )
    sample = pipe.psi + ring.one()
    rows.append(
        _row(
            "residue_field",
            sample.residue_mod_m() in range(p),
            detail="reducing mod (a, u) lands in F_p",
        )
    )
    rows.append(
        _row(
            "psi_nonzero",
            not pipe.psi.is_zero(),
            detail="the cyclic product is nonzero in R",
        )
    )
    rows.append(
        _row(
            "psi_val",
            pipe.psi.valuation() == p - 1,
            detail=f"val(psi) = p - 1 = {p - 1}",
        )
    )
    wt = pipe.psi.weight()
    rows.append(
        _row(
            "wt_psi",
            wt.as_fraction() == Fraction(p - 1, d),
            detail=f"wt(psi) = {wt.render()}",
        )
    )
    rows.append(
        _row(
            "psi_negative_product",
            pipe.psi == pipe.psi_negative,
            detail="product over negated multiples equals psi exactly",
        )
    )
    return rows


def isogeny_rows(pipe: Pipeline) -> list:
    cfg = pipe.config
    p, n = cfg.p, cfg.n
    d = cfg.eisenstein_degree
    rows = []
    lin = pipe.norm.f_coeffs[1]
    eq_plus, _ = equal_within_prec(lin, pipe.psi)
    eq_minus, _ = equal_within_prec(lin, -pipe.psi)
    rows.append(
        _row(
            "norm_linear_coeff",
            lin.valuation() == p - 1 and (eq_plus or eq_minus),
            detail=(
                f"linear coefficient of the norm coordinate has valuation {p - 1} "
                f"and equals {'+psi' if eq_plus else '-psi' if eq_minus else '???'}"
            ),
        )
    )
    worst = min(
        (prec for (v, prec) in pipe.norm.residual_defects),
        default=pipe.ring.prec_cap,
    )
    rows.append(
        _row(
            "quotient_identity",
            all(v is None or v >= prec for (v, prec) in pipe.norm.residual_defects),
            detail=(
                "back-substitution defect vanishes at every x-degree "
                f"(worst precision {worst})"
            ),
        )
    )
    integral_table = pipe.norm.quotient.integral[1:]
    rows.append(
        _row(
            "quotient_integrality",
            all(integral_table),
            detail=(
                "every quotient p-series coefficient lies in R (no residual "
                f"pole); integral flags for y^1..y^{len(integral_table)}: "
                + ("all true" if all(integral_table)
                   else str([int(b) for b in integral_table]))
            ),
        )
    )
    q = pipe.norm.quotient.coefficients
    nonzero_degrees = [
        j for j in range(1, len(q)) if not q[j].num.is_zero_within_prec()
    ]
    rows.append(
        _row(
            "quotient_support",
            bool(nonzero_degrees) and min(nonzero_degrees) == p**n,
            detail=(
                f"nonzero coefficients at y-degrees {nonzero_degrees}; "
                f"the first is y^(p^n) = y^{p ** n}"
            ),
        )
    )
    rows.append(
        _row(
            "quotient_vanishing_y1",
            q[1].is_zero(),
            detail="y^1 coefficient vanishes (the image of p in characteristic p)",
        )
    )
    for i in range(1, n):
        rows.append(
            _row(
                f"quotient_vanishing_yp{i}",
                q[p**i].is_zero(),
                detail=f"y^(p^{i}) coefficient vanishes in R (sequential extraction)",
            )
        )
    below = [j for j in range(1, p**n) if not q[j].is_zero()]
    rows.append(
        _row(
            "quotient_vanishing_below",
            not below,
            detail=f"all coefficients below y^{p ** n} vanish",
            defect="" if not below else f"nonzero at y-degrees {below}",
        )
    )
    ext, div = pipe.un_image_extracted, pipe.un_image_divided
    rows.append(
        _row(
            "un_image_val",
            ext.valuation() == p - 1 and div.valuation() == p - 1,
            detail=f"val = d - (p^n - 1)(p - 1) = {p - 1} on both routes",
        )
    )
    rows.append(
        _row(
            "wt_un_image",
            div.weight().as_fraction() == Fraction(p - 1, d),
            detail=f"wt(u-image) = {div.weight().render()}",
        )
    )
    prod = div * pipe.psi ** (p**n - 1)
    ok, prec = equal_within_prec(prod, pipe.ring.un())
    rows.append(
        _row(
            "division_identity",
            ok,
            detail=f"(u-image) * psi^(p^n - 1) = u exactly (precision {prec})",
        )
    )
    agree, prec = equal_within_prec(ext, div)
    rows.append(
        _row(
            "un_image_route_agreement",
            agree,
            detail=(
                "extraction route equals division route bit-for-bit "
                f"up to precision {prec}"
            ),
            horizon=prec <= (p - 1) + d,
        )
    )
    rows.append(
        _row(
            "epsilon_consistent",
            pipe.epsilon_extracted == pipe.epsilon_divided,
            detail=(
                f"epsilon = {pipe.epsilon_extracted:+d} on both routes"
                + (" (signs coincide in characteristic 2)" if p == 2 else "")
            ),
        )
    )
    return rows


def descent_rows(pipe: Pipeline) -> tuple[list, list]:
    """Deterministic descent demonstrations; returns (rows, trace payloads)."""
    cfg = pipe.config
    p, M = cfg.p, cfg.u_precision
    rows, traces = [], []
    witness = weight_rule_witness(p, M)
    rows.append(
        _row(
            "wt_rule_min_not_additive",
            witness["min_rule_holds"] and not witness["additive_rule_holds"],
            detail=(
                "wt(f1 + f2) follows the ultrametric minimum rule on a witness "
                f"pair (wt {witness['wt_f1']}, {witness['wt_f2']} -> "
                f"{witness['wt_sum']}); the additive reading fails as expected"
            ),
        )
    )
    samples = [
        ("descent_un", USeries.monomial(p, M, 1)),
        ("descent_un_squared", USeries.monomial(p, M, 2)),
        ("descent_un5_plus_un7", USeries.monomial(p, M, 5) + USeries.monomial(p, M, 7)),
    ]
    for name, z in samples:
        if z.is_zero():  # the sample lies past the horizon: nothing to descend from
            detail = f"the sample vanishes at u-precision {M}; no descent to run"
            rows.append(_row(name, True, detail=detail, horizon=True))
            continue
        trace = descent_run(z, pipe.operator)
        traces.append(trace_payload(trace))
        strictly = all(b < a for a, b in zip(trace.weights, trace.weights[1:]))
        rows.append(
            _row(
                name,
                strictly
                and trace.terminal.weight() == 0
                and len(trace.steps) <= (z.weight() or 0) * pipe.ring.d,
                detail=(
                    f"{len(trace.steps)} step(s), weights "
                    f"{[s.weight for s in trace.steps]}, terminal a unit"
                ),
                horizon=trace.horizon_flagged,
            )
        )
    return rows, traces


def _report_config(cfg: ChromaticConfig, command: str, seed: int | None = None) -> dict:
    return {
        "p": cfg.p,
        "n": cfg.n,
        "x_deg": cfg.formal_cap,
        "u_prec": cfg.u_precision,
        "command": command,
        "seed": seed,
    }


def run_verify(
    p: int,
    n: int,
    x_deg: int = 0,
    u_prec: int = 32,
    force: bool = False,
) -> RunReport:
    """Build (or reuse) the pipeline and report every check.

    The timing block carries the pipeline's stage times only when this call
    built it; a pipeline reused from the cache is marked ``"pipeline":
    "reused"`` instead.  The stage times add up to ``total_ms``."""
    cfg = ChromaticConfig(p, n, formal_cap=x_deg, u_precision=u_prec)
    guard_config(cfg, force)
    t_total = time.perf_counter()
    pipe = build_pipeline(p, n, x_deg, u_prec)
    report = RunReport(config=_report_config(cfg, "verify"))
    report.extend(pipe.congruences)
    report.extend(reduced_series_rows(pipe))
    report.extend(weierstrass_rows(pipe))
    report.extend(dvr_rows(pipe))
    report.extend(isogeny_rows(pipe))
    ends = [("check_rows_ms", time.perf_counter())]
    rows, traces = descent_rows(pipe)
    report.extend(rows)
    report.descent_traces = traces
    report.epsilon_sign = pipe.epsilon_divided
    ends.append(("descent_ms", time.perf_counter()))
    if pipe.started_at >= t_total:
        report.timing = _durations(t_total, pipe.stage_ends + tuple(ends))
    else:
        report.timing = {"pipeline": "reused", **_durations(t_total, ends)}
    report.timing["total_ms"] = int((ends[-1][1] - t_total) * 1000)
    return report


def run_descent_command(
    p: int,
    n: int,
    u_prec: int = 32,
    z_exprs: list | None = None,
    random_count: int = 0,
    max_weight: int = 20,
    seed: int = 0,
    force: bool = False,
) -> RunReport:
    import random as _random

    cfg = ChromaticConfig(p, n, u_precision=u_prec)
    guard_config(cfg, force)
    M = cfg.u_precision
    if random_count and not 1 <= max_weight <= M - 1:
        raise ValueError(f"max_weight {max_weight} is outside 1..{M - 1} (u-precision {M})")
    t_total = time.perf_counter()
    pipe = build_pipeline(p, n, 0, u_prec)
    report = RunReport(config=_report_config(cfg, "descent", seed if random_count else None))
    report.epsilon_sign = pipe.epsilon_divided
    zs: list[tuple[str, USeries]] = []
    for expr in z_exprs or []:
        zs.append((expr, parse_useries(expr, p, M)))
    if random_count:
        rng = _random.Random(seed)
        for idx in range(random_count):
            w = rng.randint(1, max_weight)
            coeffs = [0] * w + [rng.randrange(p) for _ in range(M - w)]
            coeffs[w] = rng.randrange(1, p)
            zs.append((f"random_{idx}", USeries(p, coeffs)))
    for label, z in zs:
        if z.is_zero():
            report.add(
                _row(f"descent_{label}", False, detail="zero start is not allowed")
            )
            continue
        if z.weight() == 0:
            report.descent_traces.append(
                {
                    "start": z.render(),
                    "steps": [],
                    "terminal": z.render(),
                    "horizon_flagged": False,
                }
            )
            report.add(
                _row(
                    f"descent_{label}",
                    True,
                    detail="already a unit; empty trace",
                )
            )
            continue
        trace = descent_run(z, pipe.operator)
        report.descent_traces.append(trace_payload(trace))
        report.add(
            _row(
                f"descent_{label}",
                trace.terminal.weight() == 0,
                detail=(
                    f"wt {z.weight()} -> unit in {len(trace.steps)} step(s), "
                    f"weights {[s.weight for s in trace.steps]}"
                ),
                horizon=trace.horizon_flagged,
            )
        )
    report.timing = {"total_ms": int((time.perf_counter() - t_total) * 1000)}
    return report


def parse_useries(expr: str, p: int, precision: int) -> USeries:
    """Parse ``1``, ``u``, ``u^3``, ``2*u^5 + u``, or a comma list of
    coefficients ``0,1,0,2``."""
    expr = expr.strip()
    if "," in expr:
        coeffs = [int(c) for c in expr.split(",")]
        return USeries.from_coeffs(p, precision, coeffs)
    out = USeries.zero(p, precision)
    for part in expr.replace("-", "+-").split("+"):
        part = part.strip()
        if not part:
            continue
        coef, t = 1, 0
        if "*" in part:
            cs, part = part.split("*", 1)
            coef = int(cs)
        part = part.strip()
        if part.startswith("-"):
            coef = -coef
            part = part[1:]
        if part.startswith("u"):
            t = 1 if part == "u" else int(part[2:])
        elif part:
            coef *= int(part)
        out = out + USeries.monomial(p, precision, t, coef)
    return out


def run_pseries_command(
    p: int,
    n: int,
    i_max: int | None = None,
    u_prec: int = 32,
    force: bool = False,
) -> RunReport:
    """Residue table of the multiplication series modulo each cited ideal;
    each row's status is the i-series congruence checked on that residue."""
    cfg = ChromaticConfig(p, n, u_precision=u_prec)
    if i_max is None:
        i_max = p * p + 1
    if i_max < 0:
        raise ValueError(f"--i-max must be >= 0, got {i_max}")
    guard_config(cfg, force)
    t_total = time.perf_counter()
    law = certified_law(cfg)
    report = RunReport(config=_report_config(cfg, "pseries"))
    for i in range(i_max + 1):
        for k in range(1, n + 2):
            check, resid = iseries_congruence(law, i, k)
            ideal = ideal_text(k - 1, f"x^{p ** k + 1}", with_p=True)
            report.add(
                _row(
                    f"pseries_row_i{i}_{k_label(k, n)}",
                    check.ok,
                    detail=f"[{i}](x) = {resid.render()} mod {ideal}",
                    defect=check.defect,
                )
            )
    report.timing = {"total_ms": int((time.perf_counter() - t_total) * 1000)}
    return report
