"""Construction and verification of the p-typical formal group law.

The law is built over the exact rationals in u_1,...,u_n from the Hazewinkel
generator recursion

    p * m_j = sum_{0 <= i < j} m_i * v_{j-i}^(p^i),        m_0 = 1,

specialized at v_k = u_k for 1 <= k <= n, v_{n+1} = 1 and v_j = 0 otherwise.
The logarithm is log(x) = sum_j m_j x^(p^j), the exponential is its
compositional inverse, and the addition law is F(x,y) = exp(log x + log y),
truncated at the configured formal degree cap.

Every coefficient of F is certified p-integral at construction (the
functional-equation construction guarantees this; a failure is a bug), and so
are the axioms unit, symmetry and associativity up to the cap: ``build_fgl``
runs those checks once and the law keeps the rows it certified.  The
structural congruences the rest of the pipeline relies on are *asserted at
runtime* rather than assumed, for 1 <= k <= n+1:

* F(x,y) = x + y + u_k C_{p^k}(x,y)   mod (u_1,...,u_{k-1}) + (x,y)^(p^k + 1)
* [i](x) = i x + u_k gamma_{i,k} x^(p^k)   mod (p, u_1,...,u_{k-1}, x^(p^k+1))

where C_q(x,y) = (x^q + y^q - (x+y)^q)/p, gamma_{i,k} = (i - i^(p^k))/p, and
the top case k = n+1 reads u_{n+1} = v_{n+1} = 1.  Any coordinate passing
these congruences supports everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IntegralityFailure
from .scalars import is_p_integral, reduce_mod_p, validate_prime
from .series import MultiSeries


@dataclass(frozen=True)
class ChromaticConfig:
    """Global parameters: prime p, index n >= 1 (the height is n+1), formal
    degree cap and u-series precision."""

    p: int
    n: int
    formal_cap: int = 0  # 0 means "use the default p^(n+1) + 2"
    u_precision: int = 32

    def __post_init__(self):
        validate_prime(self.p)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.formal_cap == 0:
            object.__setattr__(self, "formal_cap", self.p ** (self.n + 1) + 2)
        if self.formal_cap < self.p ** (self.n + 1) + 1:
            raise ValueError(
                f"formal cap {self.formal_cap} too small to see degree "
                f"{self.p ** (self.n + 1)} congruences"
            )
        if self.u_precision < 2:
            raise ValueError("u-precision must be at least 2")

    @property
    def height(self) -> int:
        return self.n + 1

    @property
    def eisenstein_degree(self) -> int:
        """d = p^(n+1) - p^n, the degree of the distinguished polynomial."""
        return self.p ** (self.n + 1) - self.p**self.n

    @property
    def isogeny_x_cap(self) -> int:
        """x-degree cap for the norm-coordinate stage: >= p * p^n + guard."""
        return self.p ** (self.n + 1) + self.p + 2

    @property
    def u_names(self) -> tuple:
        return tuple(f"u{k}" for k in range(1, self.n + 1))

    def cost_estimate(self) -> int:
        """Rough size metric used by the desk-scale guard."""
        big = (self.u_precision + 2) * self.eisenstein_degree + self.isogeny_x_cap
        return big * big * (self.u_precision + 2) // 1000



def c_poly(p: int, m: int) -> MultiSeries:
    """C_{p^m}(x,y) = (x^(p^m) + y^(p^m) - (x+y)^(p^m)) / p, an integral
    bivariate polynomial."""
    validate_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    q = p**m
    variables = ("x", "y")
    terms = {}
    # -(x+y)^q expanded, with the pure powers x^q, y^q cancelled.
    binom = 1
    for i in range(q + 1):
        if 0 < i < q:
            terms[(q - i, i)] = Fraction(-binom, p)
        binom = binom * (q - i) // (i + 1)
    return MultiSeries(variables, q, terms)


def gamma(i: int, k: int, p: int) -> Fraction:
    """gamma_{i,k} = (i - i^(p^k)) / p; an integer by Fermat."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(i - i ** (p**k), p)


def hazewinkel_coefficients(cfg: ChromaticConfig, jmax: int) -> list[MultiSeries]:
    """The logarithm coefficients m_0..m_jmax as polynomials in u_1..u_n."""
    p, n = cfg.p, cfg.n
    uvars = cfg.u_names

    def upoly(terms):
        return MultiSeries(uvars, 0, terms)

    zero_exp = (0,) * n
    ms = [upoly({zero_exp: Fraction(1)})]
    for j in range(1, jmax + 1):
        acc = MultiSeries.zero(uvars, 0)
        for i in range(j):
            k = j - i
            if k <= n:
                e = [0] * n
                e[k - 1] = p**i
                vk_pow = upoly({tuple(e): Fraction(1)})
            elif k == n + 1:
                vk_pow = upoly({zero_exp: Fraction(1)})
            else:
                continue
            acc = acc + (ms[i] * vk_pow)
        ms.append(acc.scale(Fraction(1, p)))
    return ms


@dataclass(frozen=True)
class FormalGroupLaw:
    """The constructed law, over the exact rationals.

    ``addition`` has variables (x, y, u1..un); ``log_series`` and
    ``exp_series`` have variables (x, u1..un).  All invariants (unit,
    symmetry, associativity up to the cap, p-integrality) are checked by
    :func:`build_fgl` before the instance is returned; ``axiom_rows`` are the
    passing unit, symmetry and associativity rows of that certification,
    derived data that takes no part in equality or hashing.
    """

    config: ChromaticConfig
    log_series: MultiSeries
    exp_series: MultiSeries
    addition: MultiSeries
    axiom_rows: tuple = field(compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def _embed_log(ms_list, cfg: ChromaticConfig, varname: str, variables) -> MultiSeries:
    """log(v) = sum_j m_j v^(p^j) over the given variable list."""
    D = cfg.formal_cap
    terms = {}
    pos = {v: i for i, v in enumerate(variables)}
    for j, mj in enumerate(ms_list):
        deg = cfg.p**j
        if deg > D:
            break
        for ue, c in mj.terms.items():
            e = [0] * len(variables)
            e[pos[varname]] = deg
            for uk, ev in zip(cfg.u_names, ue):
                e[pos[uk]] = ev
            terms[tuple(e)] = c
    return MultiSeries(variables, D, terms)


def build_fgl(config: ChromaticConfig) -> FormalGroupLaw:
    """Construct the law and certify its invariants.

    Raises IntegralityFailure if any coefficient of the addition law fails to
    be p-integral, or if an axiom check fails (the message names the axiom and
    renders its defect); with this construction either indicates a bug, not
    bad input.
    """
    p, n, D = config.p, config.n, config.formal_cap
    jmax = 0
    while p ** (jmax + 1) <= D:
        jmax += 1
    ms_list = hazewinkel_coefficients(config, jmax)

    xvars = ("x",) + config.u_names
    log_x = _embed_log(ms_list, config, "x", xvars)
    exp_x = log_x.reversion()

    fvars = ("x", "y") + config.u_names
    log_in_f = _embed_log(ms_list, config, "x", fvars)
    log_y = _embed_log(ms_list, config, "y", fvars)
    addition = exp_x.compose({"x": log_in_f + log_y})

    for e, c in addition.terms.items():
        if not is_p_integral(c, p):
            raise IntegralityFailure(
                f"coefficient {c} of exponent {e} is not {p}-integral"
            )

    axiom_rows = tuple(fgl_axiom_checks(addition))
    for row in axiom_rows:
        if not row.ok:
            raise IntegralityFailure(
                f"formal group law axiom failed: {row.name}: {row.defect}"
            )
    return FormalGroupLaw(
        config=config,
        log_series=log_x,
        exp_series=exp_x,
        addition=addition,
        axiom_rows=axiom_rows,
    )


def fgl_axiom_checks(F: MultiSeries) -> list:
    """Unit, symmetry and associativity rows of an addition law F(x, y, u1..un)."""
    fvars, D = F.variables, F.formal_cap
    x = MultiSeries.variable(fvars, "x", D)
    y = MultiSeries.variable(fvars, "y", D)
    zero = MultiSeries.zero(fvars, D)

    def row(name: str, defect: MultiSeries) -> CheckRow:
        ok = defect.is_zero()
        return CheckRow(name, ok, defect="" if ok else defect.render())

    swapped = F.rename_variables({"x": "y", "y": "x"})
    avars = ("x", "y", "z") + fvars[2:]
    xa = MultiSeries.variable(avars, "x", D)
    ya = MultiSeries.variable(avars, "y", D)
    za = MultiSeries.variable(avars, "z", D)
    fxy = F.compose({"x": xa, "y": ya})
    fyz = F.compose({"x": ya, "y": za})
    return [
        row("fgl_unit_x", F.compose({"x": x, "y": zero}) - x),
        row("fgl_unit_y", F.compose({"x": zero, "y": y}) - y),
        row("fgl_symmetry", swapped.extend_variables(fvars) - F),
        row("fgl_associativity",
            F.compose({"x": fxy, "y": za}) - F.compose({"x": xa, "y": fyz})),
    ]


def formal_inverse(F: FormalGroupLaw) -> MultiSeries:
    """iota(x) = exp(-log(x)), so that F(x, iota(x)) = 0 up to the cap."""
    if "inverse" not in F._cache:
        F._cache["inverse"] = F.exp_series.compose({"x": -F.log_series})
    return F._cache["inverse"]


def i_series(F: FormalGroupLaw, i: int) -> MultiSeries:
    """[i](x): the i-fold formal sum of x, over the exact rationals.

    [0] = 0, [i] = F([i-1](x), x), and [-i] = iota([i](x)).
    """
    cache = F._cache.setdefault("iseries", {})
    if i in cache:
        return cache[i]
    cfg = F.config
    xvars = ("x",) + cfg.u_names
    if i == 0:
        out = MultiSeries.zero(xvars, cfg.formal_cap)
    elif i == 1:
        out = MultiSeries.variable(xvars, "x", cfg.formal_cap)
    elif i > 1:
        prev = i_series(F, i - 1)
        x = MultiSeries.variable(xvars, "x", cfg.formal_cap)
        out = F.addition.compose({"x": prev, "y": x})
    else:
        out = formal_inverse(F).compose({"x": i_series(F, -i)})
    cache[i] = out
    return out


def reduce_series(ms: MultiSeries, p: int, kill) -> dict:
    """The residues of a rational series with the ``kill`` variables set to 0:
    {exponents over the remaining variables: nonzero residue mod p}.

    This is the exact-rational stage's one way out to F_p, the counterpart
    of ``TriangleGrid.certify``: a coefficient that is not p-integral raises
    NotPIntegral.  Killing first reduces fewer coefficients and is exact,
    since setting variables to 0 drops terms without merging any.
    """
    out = {}
    for e, c in ms.substitute_zero(kill).terms.items():
        r = reduce_mod_p(c, p)
        if r:
            out[e] = r
    return out


@dataclass
class CheckRow:
    """One verification row: failures are data, not exceptions."""

    name: str
    ok: bool
    detail: str = ""
    defect: str = ""
    horizon: bool = False

    @property
    def status(self) -> str:
        if not self.ok:
            return "fail"
        return "horizon-flagged" if self.horizon else "pass"


def ideal_text(kill_upto: int, extra: str = "", with_p: bool = False) -> str:
    """Human rendering of the working ideal, e.g. ``(p, u_1, u_2, x^10)``."""
    parts = (["p"] if with_p else []) + [f"u_{j}" for j in range(1, kill_upto + 1)]
    if extra:
        parts.append(extra)
    return "(" + ", ".join(parts) + ")"


def k_label(k: int, n: int) -> str:
    """Row-name suffix of the congruence at k: ``k<k>``, or ``top`` at k = n+1."""
    return "top" if k > n else f"k{k}"


def verify_fgl_congruences(F: FormalGroupLaw) -> list[CheckRow]:
    """The axiom rows certified at construction, then a row for every
    structural congruence of the constructed coordinate, for 1 <= k <= n+1.

    The addition congruence against u_k C_{p^k} is an exact identity over the
    rationals after killing u_1..u_{k-1} and truncating at total degree p^k;
    the i-series congruences for 0 <= i <= p^2 + 1 are
    :func:`iseries_congruence`.  The top case k = n+1 reads u_{n+1} = 1.
    """
    cfg = F.config
    p, n = cfg.p, cfg.n
    rows = list(F.axiom_rows)
    rows.append(CheckRow("fgl_integrality", True, detail="certified at construction"))

    fvars = F.addition.variables
    x = MultiSeries.variable(fvars, "x", cfg.formal_cap)
    y = MultiSeries.variable(fvars, "y", cfg.formal_cap)

    # Addition congruences, exact over the rationals.
    for k in range(1, n + 2):
        kill = [f"u{j}" for j in range(1, k)]
        q = p**k
        keep_vars = tuple(v for v in fvars if v not in kill)
        lhs = F.addition.substitute_zero(kill).truncate_formal(q)
        if k <= n:
            uk = MultiSeries.variable(keep_vars, f"u{k}", q)
        else:
            uk = MultiSeries.one(keep_vars, q)
        ck = c_poly(p, k).extend_variables(keep_vars)
        rhs = (x + y).substitute_zero(kill).truncate_formal(q) + uk * ck
        defect = lhs - rhs
        rows.append(
            CheckRow(
                f"addition_congruence_{k_label(k, n)}",
                defect.is_zero(),
                detail=f"modulo {ideal_text(k - 1)} + (x,y)^{q + 1}",
                defect="" if defect.is_zero() else defect.render(),
            )
        )

    for i in range(p * p + 2):
        rows.extend(iseries_congruence(F, i, k)[0] for k in range(1, n + 2))
    return rows


def iseries_congruence(F: FormalGroupLaw, i: int, k: int) -> tuple:
    """Check [i](x) = i x + u_k gamma_{i,k} x^(p^k) mod (p, u_1..u_{k-1}, x^(p^k+1))
    for 1 <= k <= n+1, reading u_{n+1} = 1 in the top case k = n+1.

    Returns the check row and the residue of [i](x) that it compared, as a
    series with integer coefficients in [0, p).  Residue tables and defects
    render through ``MultiSeries.render``.
    """
    cfg = F.config
    p, n = cfg.p, cfg.n
    q = p**k
    ser = i_series(F, i)
    kill = [f"u{j}" for j in range(1, k)]
    keep_vars = tuple(v for v in ser.variables if v not in kill)
    got = {e: r for e, r in reduce_series(ser, p, kill).items() if e[0] <= q}
    linear = {tuple(int(v == "x") for v in keep_vars): i % p} if i % p else {}
    # u_{n+1} is not among keep_vars, so at k = n+1 this is the key of x^q.
    e_top = tuple(q if v == "x" else int(v == f"u{k}") for v in keep_vars)

    def expected(reading: int) -> dict:
        g = reduce_mod_p(gamma(i, reading, p), p)
        return {**linear, e_top: g} if g else linear

    want = expected(k)
    ok = got == want
    uk = f"u{k}*" if k <= n else ""
    detail = (f"[{i}](x) = {i}x + {uk}gamma({i},{k})*x^{q} "
              f"mod {ideal_text(k - 1, f'x^{q + 1}', with_p=True)}")
    if not ok and k > n:
        # Diagnose whether some other exponent reading would have passed.
        for alt in range(1, n + 1):
            if got == expected(alt):
                detail += f" [note: exponent reading k={alt} would pass]"
                break
    defect = {e: (got.get(e, 0) - want.get(e, 0)) % p for e in got.keys() | want.keys()}
    row = CheckRow(
        f"iseries_congruence_i{i}_{k_label(k, n)}",
        ok,
        detail=detail,
        defect="" if ok else MultiSeries(keep_vars, q, defect).render(),
    )
    return row, MultiSeries(keep_vars, q, got)
