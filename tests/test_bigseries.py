"""The large-degree engine against the exact-rational route and direct oracles."""

import hashlib
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fglab import bigseries
from fglab.bigseries import (
    TriangleGrid,
    _grade,
    _power_chain,
    _power_pass,
    _shared_p_power,
    _triangle_mul,
    _zero_triangle,
    addition_slab,
    reduced_exp_rows,
    reduced_log_rows,
)
from fglab.cli import main
from fglab.errors import IntegralityFailure, OffGrading
from fglab.fgl import ChromaticConfig, i_series, reduce_series
from fglab.scalars import reduce_mod_p


class DictGrid:
    """Oracle values mantissa * p^(-scale) at one shared scale over dict keys:
    the scaled-integer discipline of the engine, on the layout the oracles
    below are written in."""

    def __init__(self, p, scale=0, terms=None):
        self.p, self.scale, self.terms = p, scale, {} if terms is None else terms

    def absorb(self, scale, terms):
        """Add mantissas given at ``scale``, lifting whichever side has the
        smaller scale."""
        if not terms:
            return
        if scale > self.scale:
            lift = self.p ** (scale - self.scale)
            self.terms = {k: m * lift for k, m in self.terms.items()}
            self.scale = scale
        lift = self.p ** (self.scale - scale)
        for k, m in terms.items():
            self.terms[k] = self.terms.get(k, 0) + m * lift

    def strip(self):
        """Drop zeros and divide out the common p-power, by trial division."""
        terms = {k: m for k, m in self.terms.items() if m}
        g = trial_division_p_power(self.p, self.scale, terms.values())
        self.terms = {k: m // self.p**g for k, m in terms.items()}
        self.scale -= g
        return self

    def certify(self):
        """Residues mod p of the exact values; NotPIntegral if one is not p-integral."""
        q = self.p**self.scale
        out = {k: reduce_mod_p(Fraction(m, q), self.p) for k, m in self.terms.items()}
        return {k: r for k, r in out.items() if r}


def triangle_terms(cells, w, p, n):
    """The nonzero cells of a weight-w triangle, keyed (t, degree)."""
    ts, gs = np.nonzero(cells)
    return {
        (t, w + (p**n - 1) * t + (p ** (n + 1) - 1) * (g - t)): cells[t, g]
        for t, g in zip(ts.tolist(), gs.tolist())
    }


def fraction_log_oracle(p, n, jmax):
    """Independent recomputation of the specialized logarithm coefficients as
    exact Fractions in u (dict exponent -> Fraction)."""
    ms = [{0: Fraction(1)}]
    for j in range(1, jmax + 1):
        acc = {}
        if j - n >= 0:
            for t, c in ms[j - n].items():
                acc[t + p ** (j - n)] = acc.get(t + p ** (j - n), 0) + c
        if j - n - 1 >= 0:
            for t, c in ms[j - n - 1].items():
                acc[t] = acc.get(t, 0) + c
        ms.append({t: c / p for t, c in acc.items() if c})
    return ms


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_log_rows_match_fraction_oracle(p, n):
    jmax = 6
    rows = reduced_log_rows(p, n, jmax)
    oracle = fraction_log_oracle(p, n, jmax)
    for j, (scale, terms) in enumerate(rows):
        got = {t: Fraction(m, p**scale) for t, m in terms.items()}
        assert got == oracle[j], f"m_{j} differs"


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_exp_rows_match_rational_reversion(pipeline, p, n):
    """The scaled-integer exp agrees with the exact-Fraction reversion of the
    full law specialized at u_1 = ... = u_{n-1} = 0.  At p = 3 the addition
    chain has steps that are no squares (3 = 1 + 2, 9 = 4 + 5)."""
    pipe = pipeline(p, n)
    cfg, F = pipe.config, pipe.law
    exp_small = F.exp_series.substitute_zero([f"u{j}" for j in range(1, n)])
    # variables now (x, un)
    rows = reduced_exp_rows(p, n, cfg.formal_cap, 40, cfg.eisenstein_degree, 1000)
    for K in range(1, cfg.formal_cap + 1):
        scale, terms = rows[K]
        got = {t: Fraction(m, p**scale) for t, _, m in terms}
        want = {}
        for e, c in exp_small.terms.items():
            if e[0] == K and c:
                want[e[1]] = c
        assert got == want, f"exp row {K} differs"



def exp_rows_oracle(p, n, deg_cap, ulevels, uweight, vbound):
    """Reference exp rows: log(exp(x)) = x solved degree by degree on dict
    u-rows, extending every power on the addition chain one x-degree at a
    time, each product kept while t <= min(ulevels - 1, (vbound - K) //
    uweight)."""

    def rows_mul(r1, r2, tmax):
        out = {}
        for t1, m1 in r1.items():
            for t2, m2 in r2.items():
                if t1 + t2 <= tmax:
                    out[t1 + t2] = out.get(t1 + t2, 0) + m1 * m2
        return out

    jmax = 0
    while p ** (jmax + 1) <= deg_cap:
        jmax += 1
    ms = reduced_log_rows(p, n, jmax)
    chain, plan = [1], {}

    def ensure(e):
        if e not in chain:
            ensure(e // 2)
            ensure(e - e // 2)
            plan[e] = (e // 2, e - e // 2)
            chain.append(e)

    for j in range(1, jmax + 1):
        ensure(p**j)
    chain.sort()
    arrays = {e: [DictGrid(p)] * (deg_cap + 1) for e in chain}
    arrays[1][1] = DictGrid(p, 0, {0: 1})
    for K in range(2, deg_cap + 1):
        tm = min(ulevels - 1, (vbound - K) // uweight)
        for e in chain[1:]:
            e1, e2 = plan[e]
            acc = DictGrid(p)
            for i in range(e1, K - e2 + 1):
                r1, r2 = arrays[e1][i], arrays[e2][K - i]
                if r1.terms and r2.terms:
                    acc.absorb(r1.scale + r2.scale, rows_mul(r1.terms, r2.terms, tm))
            arrays[e][K] = acc.strip()
        acc = DictGrid(p)
        for j in range(1, jmax + 1):
            if p**j > K:
                break
            rp = arrays[p**j][K]
            if rp.terms:
                acc.absorb(ms[j][0] + rp.scale, rows_mul(ms[j][1], rp.terms, tm))
        acc.strip()
        arrays[1][K] = DictGrid(p, acc.scale, {t: -m for t, m in acc.terms.items()})
    return arrays[1]


@pytest.mark.parametrize(
    "p,n,M", [(2, 1, 2), (2, 1, 8), (2, 1, 32), (3, 1, 8), (2, 2, 8), (2, 3, 4), (5, 1, 6)]
)
def test_exp_rows_match_k_ordered_oracle(monkeypatch, p, n, M):
    """The grade-ordered solve gives the K-ordered dict solve's rows bit for
    bit, scale and terms in the same order, each term with its own grade, on
    the call build_reduced_law_data makes, and on a call whose vbound is past
    deg_cap, so the K <= deg_cap cut bounds t below in each column."""
    calls = []

    def recording(*args):
        calls.append(args)
        return reduced_exp_rows(*args)

    monkeypatch.setattr(bigseries, "reduced_exp_rows", recording)
    bigseries.build_reduced_law_data(ChromaticConfig(p, n, u_precision=M))
    cfg = ChromaticConfig(p, n)
    calls.append((p, n, cfg.formal_cap, 40, cfg.eisenstein_degree, 1000))
    for args in calls:
        got = reduced_exp_rows(*args)
        want = exp_rows_oracle(*args)
        assert len(got) == len(want) == args[2] + 1
        for K, ((scale, terms), w) in enumerate(zip(got, want)):
            assert (scale, [(t, m) for t, _, m in terms]) == (w.scale, list(w.terms.items())), (
                f"{args}: E_{K} differs"
            )
            assert all(g == _grade(f"E_{K}", t, K, 1, p, n) for t, g, _ in terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_chain_covers_p_powers(p):
    """Every entry is the sum of two earlier ones, the chain reaches each
    p^j, and it is p's own chain once per level: no longer than
    (len(p's chain) - 1) * jmax + 1."""
    own = len(_power_chain(p, 1)) + 1
    for jmax in range(6):
        plan = _power_chain(p, jmax)
        chain = [1, *plan]
        assert chain == sorted(set(chain))
        for e, (e1, e2) in plan.items():
            assert e1 + e2 == e and e1 in chain[: chain.index(e)] and e2 in chain[: chain.index(e)]
        assert {p**j for j in range(1, jmax + 1)} <= set(chain)
        assert len(chain) <= (own - 1) * jmax + 1


def small_route_pseries(F):
    cfg = F.config
    red = reduce_series(i_series(F, cfg.p), cfg.p, [f"u{j}" for j in range(1, cfg.n)])
    return {(e[1], e[0]): r for e, r in red.items()}


def small_route_slab(F):
    red = reduce_series(F.addition, F.config.p, [f"u{j}" for j in range(1, F.config.n)])
    return {(e[2], e[1], e[0]): r for e, r in red.items()}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_routes_agree(pipeline, p, n):
    pipe = pipeline(p, n)
    cfg, data = pipe.config, pipe.data
    d, vb, D = data.d, data.vbound, cfg.formal_cap

    small = small_route_pseries(pipe.law)
    big = {
        k: v
        for k, v in data.p_series_a.items()
        if k[1] <= D and k[0] * d + k[1] <= vb
    }
    small = {k: v for k, v in small.items() if k[0] * d + k[1] <= vb}
    assert big == small

    slab_small = {
        k: v
        for k, v in small_route_slab(pipe.law).items()
        if k[1] + k[2] <= D and k[0] * d + k[1] <= vb and k[2] <= data.x_cap
    }
    slab_big = {
        k: v
        for k, v in data.slab.items()
        if k[1] + k[2] <= D and k[0] * d + k[1] <= vb
    }
    assert slab_big == slab_small


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_iseries_rows_agree_with_rational_route(pipeline, p, n):
    pipe = pipeline(p, n)
    cfg, data, F = pipe.config, pipe.data, pipe.law
    d, vb, D = data.d, data.vbound, cfg.formal_cap
    for i in list(range(1, p)) + [-k for k in range(1, p)]:
        red = reduce_series(i_series(F, i), p, [f"u{j}" for j in range(1, n)])
        small = {(e[1], e[0]): r for e, r in red.items() if e[1] * d + e[0] <= vb}
        big = {
            k: v
            for k, v in data.series_a[i].items()
            if k[1] <= D and k[0] * d + k[1] <= vb
        }
        assert big == small, f"[{i}](a) differs"


def test_pseries_x_slice_exact_on_read_levels():
    """p_series_x is [p](a) cut at x_cap, exact where t*d + deg <= a_cap =
    (M + 2)d + p^n.  The isogeny stage reads t <= M - 1, all inside that
    region iff x_cap <= 3d + p^n, i.e. 2 p^n (p - 1) >= p + 2."""
    for p in (2, 3, 5, 7, 11, 13, 17):
        for n in range(1, 5):
            cfg = ChromaticConfig(p, n)
            d = cfg.eisenstein_degree
            assert cfg.isogeny_x_cap <= 3 * d + p**n, (p, n)
            assert 2 * p**n * (p - 1) >= p + 2, (p, n)


def test_slab_unit_rows(pipeline):
    """F(0, y) = y and F(x, 0) = x hold in the slab exactly."""
    data = pipeline(3, 1).data
    x_rows = {k: v for k, v in data.slab.items() if k[1] == 0}
    assert x_rows == {(0, 0, 1): 1}
    y_rows = {k: v for k, v in data.slab.items() if k[2] == 0}
    assert y_rows == {(0, 1, 0): 1}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_slab_symmetric(pipeline, p, n):
    """F(x, y) = F(y, x), although the recursion treats x and y apart: every
    key (t, j, i) with i, j <= x_cap on the kept region matches (t, i, j).
    F(x, 0) = x: y-degree 0 holds the key (0, 0, 1) alone."""
    data = pipeline(p, n).data
    M, d, vb, x_cap = data.config.u_precision, data.d, data.vbound, data.x_cap
    pairs = [
        (t, j, i)
        for t in range(M + 2)
        for j in range(x_cap + 1)
        for i in range(j)
        if t * d + j <= vb
    ]
    assert any((t, j, i) in data.slab for t, j, i in pairs)
    for t, j, i in pairs:
        assert data.slab.get((t, j, i), 0) == data.slab.get((t, i, j), 0), (t, j, i)
    assert {k: v for k, v in data.slab.items() if k[1] == 0} == {(0, 0, 1): 1}


def _dict_mul(g1: dict, g2: dict, keep) -> dict:
    out: dict = {}
    for (t1, d1), m1 in g1.items():
        for (t2, d2), m2 in g2.items():
            if keep(t1 + t2, d1 + d2):
                out[(t1 + t2, d1 + d2)] = out.get((t1 + t2, d1 + d2), 0) + m1 * m2
    return out


def _slab_mul(xgrid: dict, ygrid: dict, tmax: int, w: int, vb: int) -> dict:
    """Product of an x-side and a y-side grid, keyed (t, ydeg, xdeg); the
    truncation bounds apply to the y-degree."""
    out: dict = {}
    for (t1, xdeg), m1 in xgrid.items():
        for (t2, ydeg), m2 in ygrid.items():
            t = t1 + t2
            if t <= tmax and t * w + ydeg <= vb:
                out[(t, ydeg, xdeg)] = out.get((t, ydeg, xdeg), 0) + m1 * m2
    return out


def log_grid(p, ms, tmax, w, vb):
    """log as a (t, degree) grid, m_j at degree p^j, under the product bounds."""
    out = DictGrid(p)
    for j, (scale, terms) in enumerate(ms):
        kept = {(t, p**j): m for t, m in terms.items() if t <= tmax and t * w + p**j <= vb}
        out.absorb(scale, kept)
    return out


def slab_oracle(p, n, M):
    """The slab by exp on dict grids: F(x, y) = sum_m (log x)^m H_m(y) with
    H_m(y) = sum_l C(m + l, m) E_(m+l) (log y)^l, kept on t <= M + 1,
    t*d + y-degree <= vbound; only the total is certified p-integral."""
    cfg = ChromaticConfig(p, n, u_precision=M)
    d, x_cap = cfg.eisenstein_degree, cfg.isogeny_x_cap
    vb, tmax = (M + 2) * d, M + 1
    deg_cap = vb + x_cap
    exp_rows = reduced_exp_rows(p, n, deg_cap, M + 2, d, deg_cap)
    jmax = 0
    while p ** (jmax + 1) <= deg_cap:
        jmax += 1
    ms = reduced_log_rows(p, n, jmax)

    def y_keep(t, deg):
        return t <= tmax and t * d + deg <= vb

    log_y = log_grid(p, ms, tmax, d, vb)
    H = [DictGrid(p, 0, {(0, 1): 1})] + [DictGrid(p) for _ in range(x_cap)]
    power = DictGrid(p, 0, {(0, 0): 1})  # (log y)^l
    for l in range(vb + 1):
        for m in range(1, x_cap + 1):
            scale, terms = exp_rows[m + l]
            row = {t: c for t, _, c in terms}
            prod = row_grid_mul_oracle(row, power.terms, tmax, d, vb)
            H[m].absorb(scale + power.scale, {k: comb(m + l, m) * v for k, v in prod.items()})
        power = DictGrid(
            p, power.scale + log_y.scale, _dict_mul(power.terms, log_y.terms, y_keep)
        ).strip()

    xt = min(tmax, vb // d)
    log_x = log_grid(p, ms, xt, 0, x_cap)
    slab = DictGrid(p)
    power = DictGrid(p, 0, {(0, 0): 1})  # (log x)^m over keys (t, x-degree)
    for h in H:
        slab.absorb(h.scale + power.scale, _slab_mul(power.terms, h.terms, tmax, d, vb))
        power = DictGrid(
            p,
            power.scale + log_x.scale,
            _dict_mul(power.terms, log_x.terms, lambda t, deg: t <= xt and deg <= x_cap),
        ).strip()
    return slab.certify()


@pytest.mark.parametrize(
    "p,n,M",
    [(2, 1, 2), (2, 1, 8), (2, 1, 32), (3, 1, 8), (2, 2, 8), (2, 3, 4), (3, 2, 4), (5, 1, 6)],
)
def test_slab_matches_exp_oracle(pipeline, p, n, M):
    """The recursion's certified residues equal those of the exp route."""
    if (p, n, M) == (2, 1, 32):
        slab = pipeline(2, 1).data.slab
    else:
        slab = bigseries.build_reduced_law_data(ChromaticConfig(p, n, u_precision=M)).slab
    assert slab == slab_oracle(p, n, M)


def _corrupt_m1(monkeypatch, scale_shift: int, key: int, mantissa):
    def rows(p, n, jmax):
        ms = reduced_log_rows(p, n, jmax)
        ms[1] = (ms[1][0] + scale_shift, {**ms[1][1], key: mantissa})
        return ms

    monkeypatch.setattr(bigseries, "reduced_log_rows", rows)


def test_slab_failure_paths(monkeypatch, capsys):
    """At p = 2, m_1 = u/2 sits at x-degree 2 = 1 + t + 3j.  An off-grading
    key raises OffGrading.  IntegralityFailure names what breaks: 2 m_1 not
    integral (scale 2); F_2 left with a 2 in its denominator on the kept
    region (m_1 = u); a mantissa 1/3 in m_1, which 3 cannot divide out of
    3 F_3.  Any law with log in Z[1/p][u] passes that division, so only a
    value outside Z[1/p] reaches it; verify exits 1 on it."""
    for key in [0, 4]:  # (0, 2) misses the grading; (4, 2) needs j = -1
        _corrupt_m1(monkeypatch, 0, key, 1)
        with pytest.raises(OffGrading, match=rf"m_1: key \({key}, 2\)"):
            addition_slab(2, 1, 7, 14, 8)
    _corrupt_m1(monkeypatch, 1, 1, 1)
    with pytest.raises(IntegralityFailure, match=r"p\^1 m_1 is not p-integral"):
        addition_slab(2, 1, 7, 14, 8)
    _corrupt_m1(monkeypatch, 0, 1, 2)  # m_1 = u: F is no longer 2-integral
    with pytest.raises(IntegralityFailure, match=r"F_2: coefficient at \(3, 2\)"):
        addition_slab(2, 1, 7, 14, 8)
    _corrupt_m1(monkeypatch, 0, 1, Fraction(1, 3))
    with pytest.raises(IntegralityFailure, match=r"F_3: 3 does not divide"):
        addition_slab(2, 1, 7, 14, 8)
    assert main(["verify", "--p", "2", "--n", "1", "--u-prec", "5"]) == 1
    assert "IntegralityFailure: F_3: 3 does not divide" in capsys.readouterr().err


def trial_division_p_power(p, cap, mantissas):
    """Reference: trial-divide each mantissa by p, at most down to the
    smallest count so far."""
    g = cap
    for m in mantissas:
        if g == 0:
            break
        k = 0
        while k < g and m % p == 0:
            m //= p
            k += 1
        g = k
    return g


@example(p=3, cap=5, parts=[], fraction=None)  # nothing bounds g: cap
@example(p=3, cap=5, parts=[(0, 0), (0, 3)], fraction=None)  # all zero: cap
@example(p=3, cap=0, parts=[(1, 2), (1, 3)], fraction=None)
@example(p=2, cap=3, parts=[(-1, 9), (1, 7)], fraction=None)  # deeper than cap
@example(p=2, cap=3, parts=[(-5, 2), (0, 0), (1, 7)], fraction=None)
@example(p=2, cap=3, parts=[(1, 2)], fraction=(1, Fraction(1, 3)))
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    cap=st.integers(0, 8),
    parts=st.lists(
        st.tuples(st.integers(-(10**12), 10**12), st.integers(0, 12)), max_size=8
    ),
    fraction=st.none()
    | st.tuples(st.integers(0, 8), st.fractions().filter(lambda f: f.denominator > 1)),
)
def test_shared_p_power_matches_trial_division(p, cap, parts, fraction):
    """One gcd gives what trial division gives: for negative mantissas, for
    zeros (which bound nothing; all zeros give cap), for cap = 0, for
    p-powers deeper than cap, and 0 for a value outside Z."""
    mantissas = [u * p**k for u, k in parts]
    if fraction is not None:
        mantissas.insert(min(fraction[0], len(mantissas)), fraction[1])
    want = trial_division_p_power(p, cap, mantissas)
    assert _shared_p_power(p, cap, mantissas) == want
    assert _shared_p_power(p, cap, np.array(mantissas + [0], dtype=object)) == want
    if not any(mantissas):
        assert want == cap


def _cells(rows):
    return np.array(rows, dtype=object)


def test_grid_to_residues_certifies():
    # 3 / 2 is not 2-integral: the mantissa 3 at scale 1 fails; the weight-1
    # cell (0, 0) at p = 2, n = 1 is the key (0, 1).
    with pytest.raises(IntegralityFailure, match=r"test: coefficient at \(0, 1\)"):
        TriangleGrid(2, 1, _cells([[3]])).certify(1, 1, "test")
    assert TriangleGrid(2, 1, _cells([[6]])).certify(1, 1, "test") == {(0, 1): 1}
    assert TriangleGrid(2, 1, _cells([[4]])).certify(1, 1, "test") == {}


def test_scaled_grid_absorb_and_strip():
    """absorb lifts to the larger scale; strip returns to the smallest one
    that keeps every mantissa integral, whatever the values were built from."""
    g = TriangleGrid(3, 1, _cells([[2, 0], [0, 0]]))  # 2/3 at (0, 0)
    g.absorb(2, 1, [(0, 0, 1)], _cells([[3, 0], [0, 9]]))  # + 3/9 at (0, 0), + 9/9 at (1, 1)
    assert (g.scale, g.cells.tolist()) == (2, [[9, 0], [0, 9]])
    g.strip()
    assert (g.scale, g.cells.tolist()) == (0, [[1, 0], [0, 1]])
    g.absorb(1, -1, [(0, 0, 3)], _cells([[1, 0], [0, 0]]))  # - 3/3 at (0, 0)
    assert (g.strip().scale, g.cells.tolist()) == (0, [[0, 0], [0, 1]])


@st.composite
def triangles(draw):
    """(p, scale, cells): cells u * p^k on t <= g, zero below, with k up to
    scale + 1, so some cells are divisible by p^scale and some are not."""
    p, scale = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 4))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = np.zeros((rows, cols), dtype=object)
    for t in range(rows):
        for g in range(t, cols):
            u, k = draw(st.integers(-(10**6), 10**6)), draw(st.integers(0, scale + 1))
            cells[t, g] = u * p**k
    return p, scale, cells


@example(tri=(3, 0, _cells([[-4, 0], [0, 7]])), w=1, n=1)  # scale 0: all integral
@example(tri=(2, 2, _cells([[4, -2, 8], [0, 6, 0]])), w=-3, n=2)  # (0, 1) fails first
@example(tri=(2, 1, _cells([[2, -4, 1], [0, 3, 0]])), w=1, n=1)  # (0, 2) before (1, 1)
@example(tri=(5, 1, _cells([[0, 0], [0, 0]])), w=0, n=1)  # nothing to certify
@given(tri=triangles(), w=st.integers(-8, 8), n=st.integers(1, 2))
def test_triangle_certify_matches_fraction_oracle(tri, w, n):
    """Where p^scale divides every cell, certify gives the residue of
    Fraction(m, p^scale) at each cell whose residue is nonzero, keyed
    (t, w + (p^n - 1) t + (p^(n+1) - 1)(g - t)); otherwise it names the first
    cell in row-major order that p^scale does not divide."""
    p, scale, cells = tri

    def key(t, g):
        return (t, w + (p**n - 1) * t + (p ** (n + 1) - 1) * (g - t))

    places = [(t, g) for t in range(cells.shape[0]) for g in range(cells.shape[1])]
    bad = [(t, g) for t, g in places if Fraction(cells[t, g], p**scale).denominator > 1]
    grid = TriangleGrid(p, scale, cells)
    if bad:
        with pytest.raises(IntegralityFailure) as err:
            grid.certify(w, n, "cell")
        assert str(err.value).startswith(f"cell: coefficient at {key(*bad[0])} has denominator")
    else:
        residues = {key(t, g): reduce_mod_p(Fraction(cells[t, g], p**scale), p) for t, g in places}
        assert grid.certify(w, n, "cell") == {k: r for k, r in residues.items() if r}


# sha256 of repr(sorted(grid.items())) for every grid of the stock
# configurations at u-precision 32, recorded before the engine was rebuilt
# on ScaledGrid; (5,1), with its 8 multiples [i](a), at u-precision 6 from
# the engine alone, recorded before the power pass summed over blocks.
GRID_DIGESTS = {
    (2, 1): {
        "p_series_a": "483e0b74334e6ea6057c00a445eb8e848499eb790712b7ac5a0a7af3f4b745c3",
        "slab": "cd476400cd973e19f624a0648c5f756cb56a64c9087bff117ceae0d5b689ca68",
        "p_series_x": "638fbe39e01d36cd47b50bd9140f5e137fdf6c5957786e6882cbd3b575bb5447",
        "series_a[1]": "18f3df02a8e86094889bc41745125b67cb74978f257c9e9d0f60a24dd2e2a407",
        "series_a[-1]": "fedd1c823fcaba224bb2af46cf756dcac221d256dede9f1bb0711fa218d0926f",
    },
    (3, 1): {
        "p_series_a": "ffebc7e0898bd52bec4ce784be249f9d3e6ddae2199114836eddf267d5e9466d",
        "slab": "0de52565c77396642cbbb0760b296d746b4cabf40a43997a9ead17c1a766ab89",
        "p_series_x": "08843e40d91ac32beee5dba80b4ea72a48ebad714eddcac33bf0df3d5735e08a",
        "series_a[1]": "18f3df02a8e86094889bc41745125b67cb74978f257c9e9d0f60a24dd2e2a407",
        "series_a[2]": "b0c470e81ef4c17f908a6f92d752bb6f82d511a962044a4e89a802eda222af43",
        "series_a[-1]": "370276c6f8c4c7c7357f77c50c13b6514c4b0b31a83b8639bb8b096a5ede8e4c",
        "series_a[-2]": "e94c3889a79b3efc1ef522aa91079179d7eb975032fc86114dcb5c3df5496bfe",
    },
    (2, 2): {
        "p_series_a": "6f097c11990efb9150db9f4b8355bae3df47ac0be9663807ba3e5568406323f3",
        "slab": "de395948c7dd741cd1d999258b48ab5a44d3aa16562cae44a896e82b2574375b",
        "p_series_x": "342dab2c7628e0bcbaf22ad9b34d857d503f0bf70dab50c4bb91774d75d7a879",
        "series_a[1]": "18f3df02a8e86094889bc41745125b67cb74978f257c9e9d0f60a24dd2e2a407",
        "series_a[-1]": "62dcf665c02ff9f731922969dd40bda9133bfae43b2090846ff3204a13125ac1",
    },
    (5, 1): {
        "p_series_a": "f3d03bd99f293056f488d038830e8b495bd8e9322f2c07bdcdbd05de1cde9d46",
        "slab": "b957024f4dcd6fd58f0bbe8c274d9db0ce8d1d6e9b7b8c1ca361f7f2e816faa7",
        "p_series_x": "e5911654568556176fa40e49c8c97d6615e967e6f1703ffdca166a88051a8751",
        "series_a[1]": "18f3df02a8e86094889bc41745125b67cb74978f257c9e9d0f60a24dd2e2a407",
        "series_a[2]": "31609b3e5a4a9f81bf809c088779bbba4110ee8e590a83370e28de0cae03effa",
        "series_a[3]": "c81ec16fd8a02851efce140d533b35621a138230bf901c120121be71cac183ea",
        "series_a[4]": "f5d7c6f504daca3f32f6d4d9b14ca0ad3dd55f10378bd5254eac6a7c3b13196e",
        "series_a[-1]": "8254976118e31e2049f32b53d38412eb4cbb81561754b968487c0d99daff8eee",
        "series_a[-2]": "ec6e5d4f702529164c0cfda8ce4c2fe51fd05e0936c786a3245cd1aca856d0e1",
        "series_a[-3]": "44c589c9b21b8aff7e8c9f95ed3f7805e01c79790b60018f816680f3f9e1a4fe",
        "series_a[-4]": "3efb056e6e0bf2d8df97b4f58593b434b5e73d22dc3da5382afd8c3076a8a80b",
    },
}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_grid_digests_pinned(pipeline, p, n):
    if (p, n) == (5, 1):
        data = bigseries.build_reduced_law_data(ChromaticConfig(5, 1, u_precision=6))
    else:
        data = pipeline(p, n).data
    grids = {"p_series_a": data.p_series_a, "slab": data.slab, "p_series_x": data.p_series_x}
    for i, g in data.series_a.items():
        grids[f"series_a[{i}]"] = g
    got = {
        k: hashlib.sha256(repr(sorted(g.items())).encode()).hexdigest()
        for k, g in grids.items()
    }
    assert got == GRID_DIGESTS[(p, n)]


def row_grid_mul_oracle(row: dict, grid: dict, tmax: int, w: int, vb: int) -> dict:
    """Reference product: every (row term, grid term) pair, kept while
    t <= tmax and t*w + deg <= vb."""
    out: dict = {}
    for t_r, m_r in row.items():
        for (t_b, deg), m_b in grid.items():
            t = t_r + t_b
            if t > tmax or t * w + deg > vb:
                continue
            key = (t, deg)
            v = out.get(key)
            out[key] = m_b * m_r if v is None else v + m_b * m_r
    return out


def _values(p: int, scale: int, terms: dict) -> dict:
    return {k: Fraction(m, p**scale) for k, m in terms.items() if m}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_triangle_product_matches_dict_oracle(p, n, seed):
    """Random graded rows and powers, negative mantissas, mixed scales,
    several products absorbed into one weight 1 - offset target.  tmax = 2
    cuts at t = ulevels - 1 before the grade bound N does; tmax = 60 leaves
    only the grade bound."""
    rng = random.Random(seed)
    e, D = p**n - 1, p ** (n + 1) - 1
    d = D - e
    vb, offset = 14 * d + rng.randrange(D), rng.randrange(3)
    for tmax in (2, 60):
        oracle = DictGrid(p)
        target = TriangleGrid(p, 0, _zero_triangle(p, n, 1 - offset, vb, tmax))
        for _ in range(5):
            K = 1 + e * rng.randrange(3) + D * rng.randrange(2)
            l = max(K - offset, 1)
            K = l + offset
            power = {}
            for _ in range(30):
                t, j = rng.randrange(tmax + 1), rng.randrange(12)
                if t * d + l + e * t + D * j <= vb:
                    power[(t, l + e * t + D * j)] = rng.randint(-(10**30), 10**30)
            row = {
                t: rng.choice([-1, 1]) * rng.getrandbits(80)
                for t in range(K // e + 1)
                if (K - 1 - e * t) % D == 0 and K - 1 - e * t >= 0 and rng.random() < 0.8
            }
            s_row, s_pow, c = rng.randrange(6), rng.randrange(6), rng.randint(-9, 9)
            prod = row_grid_mul_oracle(row, power, tmax, d, vb)
            oracle.absorb(s_row + s_pow, {k: m * c for k, m in prod.items()})
            cells = np.zeros((tmax + 1, tmax + 12), dtype=object)
            for (t, k), m in power.items():
                cells[t, _grade("power", t, k, l, p, n)] = m
            terms = [(t, _grade("row", t, K, 1, p, n), m) for t, m in row.items()]
            target.absorb(s_row + s_pow, c, terms, cells)
        got = triangle_terms(target.cells, 1 - offset, p, n)
        assert got and _values(p, target.scale, got) == _values(p, oracle.scale, oracle.terms)
        assert max(t for t, _ in got) <= tmax


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_triangle_product_groups_repeated_mantissas(p, n, seed):
    """Mantissas drawn from a pool of two +-p^k, k < 4, repeat within a row,
    so terms at different (t, g) share one product and each adds its own
    sub-slice of it.  The output bounds (tmax = 9 or the grade bound N) cut
    the slices of one group to different shapes."""
    rng = random.Random(seed)
    e, D = p**n - 1, p ** (n + 1) - 1
    d = D - e
    vb, offset = 14 * d + rng.randrange(D), D * rng.randrange(6, 12)
    cut_apart = False
    for tmax in (9, 60):
        target = _zero_triangle(p, n, 1 - offset, vb, tmax)
        rows, cols = target.shape
        oracle: dict = {}
        for _ in range(8):
            l = 1 + e * rng.randrange(3) + D * rng.randrange(2)
            K = l + offset
            power = {}
            for _ in range(30):
                t, j = rng.randrange(tmax + 1), rng.randrange(12)
                if t * d + l + e * t + D * j <= vb:
                    power[(t, l + e * t + D * j)] = rng.randint(-(10**30), 10**30)
            pool = [rng.choice([-1, 1]) * p ** rng.randrange(4) for _ in range(2)]
            row = {
                t: rng.choice(pool)
                for t in range(K // e + 1)
                if (K - 1 - e * t) % D == 0 and rng.random() < 0.9
            }
            c = rng.randint(-9, 9)
            for key, m in row_grid_mul_oracle(row, power, tmax, d, vb).items():
                oracle[key] = oracle.get(key, 0) + c * m
            cells = np.zeros((tmax + 1, tmax + 12), dtype=object)
            for (t, k), m in power.items():
                cells[t, _grade("power", t, k, l, p, n)] = m
            terms = [(t, _grade("row", t, K, 1, p, n), m) for t, m in row.items()]
            _triangle_mul(target, terms, cells, c)
            for m in set(row.values()):
                shapes = set()
                for t, g, mm in terms:
                    w = min(cells.shape[1], cols - g)
                    h = min(cells.shape[0], rows - t, w)
                    if mm == m and h > 0:
                        shapes.add((h, w))
                cut_apart |= len(shapes) > 1
        got = triangle_terms(target, 1 - offset, p, n)
        assert got and got == {k: m for k, m in oracle.items() if m}
    assert cut_apart


def test_off_grading_key_raises(monkeypatch):
    """The log is graded in one place, which every reader goes through: an
    off-grading key in m_1 raises in the exp solve, in the power pass and in
    the whole build.  m_1 sits at x-degree 2 = 1 + t + 3j: (0, 2) misses it,
    (4, 2) needs j = -1."""
    rows = reduced_exp_rows(2, 1, 20, 6, 2, 20)
    for key in [(0, 2), (4, 2)]:
        _corrupt_m1(monkeypatch, 0, key[0], 1)
        match = rf"m_1: key \({key[0]}, {key[1]}\)"
        with pytest.raises(OffGrading, match=match):
            reduced_exp_rows(2, 1, 20, 6, 2, 20)
        with pytest.raises(OffGrading, match=match):
            _power_pass(2, 1, 6, rows, 20, [1])
        with pytest.raises(OffGrading, match=match):
            bigseries.build_reduced_law_data(ChromaticConfig(2, 1, u_precision=4))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_grids_satisfy_grading(pipeline, p, n):
    """k = w + (p^n - 1) t + (p^(n+1) - 1) j with j >= 0, weight 1 for [i](a)
    and for the slab in total degree x-degree + y-degree."""
    data = pipeline(p, n).data
    e, D = p**n - 1, p ** (n + 1) - 1

    def graded(t, k):
        return (k - 1 - e * t) % D == 0 and k - 1 - e * t >= 0

    keys = [k for g in [data.p_series_a, *data.series_a.values()] for k in g]
    keys += [(t, y + x) for t, y, x in data.slab]
    assert keys and all(graded(t, k) for t, k in keys)
