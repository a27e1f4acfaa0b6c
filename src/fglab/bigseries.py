"""Large-degree series data for the reduced law, by exact scaled-integer arithmetic.

After killing u_1,...,u_{n-1}, the law specializes to the p-typical law over
Q[u] (u = u_n) with logarithm recursion

    p * m_j = m_{j-n} * u^(p^(j-n)) + m_{j-n-1},    m_0 = 1,

(terms present when the index is >= 0).  Everything the valuation-ring stage
consumes is derived from this univariate specialization:

* [i](a) = exp(i*log(a)) for the small multiples i needed downstream,
* [p](a), whose Weierstrass preparation defines the distinguished polynomial,
* the addition-law slab F(x, y) = sum_k F_k(y) x^k with x-degree kept small
  and y-degree kept large, used to evaluate x +_F c for ring elements c.
  Differentiating log F(x, y) = log x + log y in x and in y gives
  l'(y) dF/dx = l'(x) dF/dy with l'(x) = sum_j p^j m_j x^(p^j - 1), so
  (k + 1) l'(y) F_(k+1) = sum_(p^j - 1 <= k) p^j m_j F'_(k+1-p^j), F_0 = y:
  each F_k follows from the earlier ones and the logarithm, with no exp.

Why a dedicated engine: the distinguished factor g at u-precision M genuinely
depends on [p](a) up to a-degree about (M+2)*d, where d = p^(n+1) - p^n.  That
is far beyond the bivariate cap the exact-rational construction works at, so
this module recomputes the specialized law from scratch with scaled integers:
every coefficient is mantissa * p^(-scale) with an arbitrary-precision integer
mantissa.  All arithmetic is exact in Z[1/p]; reduction mod p happens only
after certifying that p^scale divides the mantissa.  There is no floating
point and no modular shortcut anywhere.

Truncation discipline: monomials u^t * a^i are kept only while
t*d + i <= vbound (and t < the u-level count).  The discarded span is an ideal
- the weighted valuation of a product is at least the sum of the weights - so
working modulo it is exact ring arithmetic, and vbound = (M+2)*d (+ p^n for
the p-series) is deep enough to determine g modulo u^M (see the preparation
routine in the dvr module).

Grading and the triangle layout: every term u^t * a^k of a weight-w series
here has k = w + (p^n - 1) t + (p^(n+1) - 1) j, where j is the exponent of
v_(n+1), which the recursion above sets to 1 (the m_(j-n-1) term).  The law is
homogeneous over Z_(p)[v_n, v_(n+1)] and its coefficients are polynomials, so
j >= 0.  The weights are l for (log a)^l, 1 for [i](a) and 1 - k for F_k,
the slab's x^k coefficient.
Since d + p^n - 1 = p^(n+1) - 1, the truncation t*d + k <= vbound becomes
t + j <= N = (vbound - w) // (p^(n+1) - 1): each grid is a polynomial in
(t, j) cut at total degree N.  (t, g) with g = t + j is the one layout
inside this module.  The log rows are graded once, into terms
(t, g, mantissa) that the exp solve, the power pass and the slab all read;
the exp rows come out as such terms; and the power pass keeps (log a)^l and
its sums, and the slab recursion its F_k, as ``TriangleGrid`` object arrays
of Python ints indexed (t, g) with g <= N and t below the u-level count;
cells with t > g stay zero.  Keys return to (t, degree) only in
``TriangleGrid.certify``, where residues leave the module.
Multiplying by a sparse factor shifts the array by each term's (t, g), one
slice update per term, and the slices end at the array's bounds, so
truncated cells are never formed.  Terms that share a mantissa share one
big-int product (log a has few distinct mantissas, all p-powers at p = 2),
each E_l * (log a)^l enters the sums only over the block its terms can
reach, and a strip finds the common p-power by one gcd.

The exp rows are solved on the same grading, one total grade g at a time:
exp^e is kept as columns g, each a run of cells over t with one scale.
Column g of exp is -sum_j m_j * exp^(p^j) in column g, and every term of m_j
(j >= 1) raises the grade by at least 1, so it needs only columns below g of
the powers; each power on the addition chain (p's own chain, scaled by each
p^j) then gains its column g as a sum of t-convolutions of the columns of its
two factors, and a square forms each cross pair once.  The rows E_K are read
off the columns at the end.

The two routes to the same law (this module versus the exact-rational
bivariate construction) overlap on low degrees; their agreement there is
asserted by the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegralityFailure, OffGrading
from .fgl import ChromaticConfig


def _shared_p_power(p: int, cap: int, mantissas) -> int:
    """The largest g <= cap such that p^g divides every mantissa, or 0 if a
    mantissa is not an int (a value outside Z[1/p]; no strip is safe).

    One gcd with p^cap is p^g, and it is small from its first step on."""
    try:
        q = math.gcd(p**cap, *mantissas)
    except TypeError:
        return 0
    g = 0
    while q > 1:
        q //= p
        g += 1
    return g


def reduced_log_rows(p: int, n: int, jmax: int) -> list[tuple[int, dict]]:
    """Logarithm coefficients m_0..m_jmax of the u_n-specialized law, as
    rows (scale, {t: mantissa}) with scale(m_j) = j exactly."""
    ms = [(0, {0: 1})]
    for j in range(1, jmax + 1):
        # p * m_j = m_{j-n} * u^(p^(j-n)) + m_{j-n-1}, summed at scale j - 1.
        acc: dict = {}
        for i in (j - n, j - n - 1):
            if i >= 0:
                scale, terms = ms[i]
                shift, lift = p**i if i == j - n else 0, p ** (j - 1 - scale)
                for t, m in terms.items():
                    acc[t + shift] = acc.get(t + shift, 0) + m * lift
        ms.append((j, {t: m for t, m in acc.items() if m}))
    return ms


def _log_terms(p: int, n: int, jmax: int) -> list[tuple[int, list]]:
    """The rows of ``reduced_log_rows`` graded once: m_j as (scale, [(t, g,
    mantissa)]), g the total grade of its weight-1 term u^t * a^(p^j)."""
    return [
        (scale, [(t, _grade(f"m_{j}", t, p**j, 1, p, n), m) for t, m in terms.items()])
        for j, (scale, terms) in enumerate(reduced_log_rows(p, n, jmax))
    ]


def _jmax_for(p: int, cap: int) -> int:
    j = 0
    while p ** (j + 1) <= cap:
        j += 1
    return j


def _power_chain(p: int, jmax: int) -> dict[int, tuple[int, int]]:
    """An addition chain through p, p^2, ..., p^jmax, as {e: (e1, e2)} over
    its entries e > 1 in increasing order, e = e1 + e2 with e1 and e2 earlier
    entries or 1.  p's own chain halves each entry; the entries in
    (p^j, p^(j+1)] are that chain scaled by p^j, (len - 1) * jmax + 1 in all."""
    base: dict[int, tuple[int, int]] = {}

    def ensure(e: int):
        if e > 1 and e not in base:
            ensure(e // 2)
            ensure(e - e // 2)
            base[e] = (e // 2, e - e // 2)

    ensure(p)
    return {
        p**j * e: (p**j * e1, p**j * e2)
        for j in range(jmax)
        for e, (e1, e2) in sorted(base.items())
    }


def _column_mul(out, lo: int, c: int, a: tuple, b: tuple):
    """Add c times the t-convolution of the columns a and b, each (first row,
    scale, cells), into ``out``, whose cells are rows lo, lo + 1, ...
    Only products that land in ``out`` are formed: the rows of a whose
    products with all of b land there go through one convolution, and each
    row at a cut takes the slice of b that does."""
    hi = lo + len(out) - 1
    (a_lo, _, a_cells), (b_lo, _, b_cells) = a, b
    nb = len(b_cells)
    i0 = min(max(0, lo - a_lo - b_lo), len(a_cells))
    i1 = max(min(len(a_cells), hi - a_lo - b_lo - nb + 2), i0)
    if i0 < i1:
        o = a_lo + i0 + b_lo - lo
        out[o : o + i1 - i0 + nb - 1] += np.convolve(a_cells[i0:i1] * c, b_cells)
    for i in [*range(i0), *range(i1, len(a_cells))]:
        t = a_lo + i + b_lo
        s, e = max(0, lo - t), min(nb, hi - t + 1)
        if s < e:
            out[t + s - lo : t + e - lo] += (c * a_cells[i]) * b_cells[s:e]


def reduced_exp_rows(
    p: int, n: int, deg_cap: int, ulevels: int, uweight: int, vbound: int
) -> list[tuple[int, list]]:
    """Coefficient rows E_0..E_deg_cap of exp = log^(-1) for the specialized
    law, solved from log(exp(x)) = x on the region t <= ulevels - 1,
    t*uweight + K <= vbound, K <= deg_cap.  Each E_K is handed out graded,
    as (scale, [(t, g, mantissa)]) at its least scale, with its terms by
    descending t.

    The solve runs by total grade g = t + j of the cells u^t x^K of exp^e,
    K = e + (p^n - 1) t + (p^(n+1) - 1) j.  Column g of exp is
    -sum_j m_j * exp^(p^j) in column g; a term u^t' of m_j raises the grade
    by t' + j' >= 1 (p^j > 1), so column g of exp needs only columns below g
    of the powers.  Then each power e = e1 + e2 on ``_power_chain`` through
    p, p^2, ... gains column g = sum_g1 conv_t(exp^e1[g1], exp^e2[g - g1]);
    a square forms only g1 <= g - g1 and doubles g1 < g - g1.  Each split is
    lifted to the column's scale and the column stripped, so there are no
    divisions beyond the exact p-powers carried in the scales.  The region
    is an ideal, so no product outside it feeds one inside, and none is
    formed: with uweight = d the vbound cut is g <= (vbound - e) //
    (p^(n+1) - 1), and K <= deg_cap bounds t below in each column.
    """
    jmax = _jmax_for(p, deg_cap)
    plan = _power_chain(p, jmax)
    chain = [1, *plan]

    D = p ** (n + 1) - 1
    d = D - (p**n - 1)

    def span(e: int, g: int) -> tuple[int, int]:
        """Rows lo..hi of column g of exp^e in the region; row t is the cell
        of x-degree K = e + D g - d t."""
        lo, hi = max(0, -((deg_cap - e - D * g) // d)), min(g, ulevels - 1)
        # t*uweight + K <= vbound is (uweight - d) t <= vbound - e - D g.
        s, r = uweight - d, vbound - e - D * g
        if s > 0:
            hi = min(hi, r // s)
        elif s < 0:
            lo = max(lo, -(r // -s))
        elif r < 0:
            hi = -1
        return lo, hi

    def column(e: int, g: int, splits: list):
        """Column g of exp^e from splits (c, a, b): the sum of
        c * conv_t(a, b), or None where it is empty."""
        lo, hi = span(e, g)
        if lo > hi or not splits:
            return None
        scale = max(a[1] + b[1] for _, a, b in splits)
        out = np.zeros(hi - lo + 1, dtype=object)
        for c, a, b in splits:
            _column_mul(out, lo, c * p ** (scale - a[1] - b[1]), a, b)
        live = out[out != 0]
        if not len(live):
            return None
        k = _shared_p_power(p, scale, live)
        return lo, scale - k, out // p**k

    # Each term u^t' of m_j is a one-cell column at grade shift t' + j',
    # filed under the power exp^(p^j) it multiplies.
    shifts = {
        p**j: [(g, (t, scale, np.array([m], dtype=object))) for t, g, m in terms]
        for j, (scale, terms) in enumerate(_log_terms(p, n, jmax))
        if j
    }
    one = (0, 0, np.array([1], dtype=object))
    cols: dict[int, list] = {e: [] for e in chain}  # cols[e][g]: column g of exp^e
    for g in itertools.count():
        lo, hi = span(1, g)
        if lo > hi:
            break
        splits = [(1, one, one)] if g == 0 else []  # exp = x + ...
        for e, terms in shifts.items():
            for shift, m in terms:
                if shift <= g and cols[e][g - shift] is not None:
                    splits.append((-1, m, cols[e][g - shift]))
        cols[1].append(column(1, g, splits))
        for e in chain[1:]:
            e1, e2 = plan[e]
            A, B = cols[e1], cols[e2]
            splits = []
            for g1 in range(g // 2 + 1 if e1 == e2 else g + 1):
                if A[g1] is not None and B[g - g1] is not None:
                    splits.append((2 if e1 == e2 and 2 * g1 < g else 1, A[g1], B[g - g1]))
            cols[e].append(column(e, g, splits))

    # E_K gathers the cells (t, g) with K = 1 + D g - d t, at one scale;
    # walking g downwards lists each row's terms by descending t.
    cells: list[list] = [[] for _ in range(deg_cap + 1)]
    for g, col in reversed(list(enumerate(cols[1]))):
        if col is not None:
            lo, scale, out = col
            for t, m in enumerate(out.tolist(), lo):
                if m:
                    cells[1 + D * g - d * t].append((t, g, scale, m))
    rows = []
    for row in cells:
        scale = max((s for _, _, s, _ in row), default=0)
        lifted = [m * p ** (scale - s) for _, _, s, m in row]
        k = _shared_p_power(p, scale, lifted)
        rows.append((scale - k, [(t, g, m // p**k) for (t, g, _, _), m in zip(row, lifted)]))
    return rows


def _grade(what: str, t: int, k: int, w: int, p: int, n: int) -> int:
    """Total grade t + j of the weight-w term u^t * a^k, where
    k = w + (p^n - 1) t + (p^(n+1) - 1) j with j >= 0."""
    j, r = divmod(k - w - (p**n - 1) * t, p ** (n + 1) - 1)
    if r or j < 0:
        raise OffGrading(
            f"{what}: key {(t, k)} is off the weight-{w} grading; "
            "the construction is broken"
        )
    return t + j


def _zero_triangle(p: int, n: int, w: int, vb: int, tmax: int):
    """Zero cells for rows t <= tmax and columns g <= N of the weight-w
    triangle t*d + k <= vb, i.e. t + j <= N = (vb - w) // (p^(n+1) - 1)."""
    N = (vb - w) // (p ** (n + 1) - 1)
    return np.zeros((min(tmax, N) + 1, N + 1), dtype=object)


def _triangle_mul(out, terms: list, cells, f: int):
    """Add f times the product of a sparse factor, terms (t, g, mantissa),
    with the triangle ``cells`` into ``out``: one slice update per term.  The
    slice bounds are the truncation, so no cell outside ``out`` is formed.
    Terms that share a mantissa share one product, over the largest slice
    any of them needs, and each adds its own sub-slice of it."""
    rows, cols = out.shape
    h0, w0 = cells.shape
    groups: dict = {}
    for t, g, m in terms:
        # Cells [t, g] with t > g are zero (j < 0): rows past w add nothing.
        w = min(w0, cols - g)
        h = min(h0, rows - t, w)
        if h > 0:
            groups.setdefault(m, []).append((t, g, h, w))
    for m, places in groups.items():
        hmax, wmax = max(h for _, _, h, _ in places), max(w for _, _, _, w in places)
        prod = (m * f) * cells[:hmax, :wmax]
        for t, g, h, w in places:
            out[t : t + h, g : g + w] += prod[:h, :w]
    return out


_UNIT = [(0, 0, 1)]


class TriangleGrid:
    """A weight-w grid on the graded triangle: exact values
    mantissa * p^(-scale), the mantissas Python ints in an object array
    indexed (t, g) at one shared scale.  Scales only grow by lifting
    mantissas with exact p-powers; ``strip`` lowers them again, and
    ``certify`` is the only way out to residues mod p."""

    __slots__ = ("p", "scale", "cells")

    def __init__(self, p: int, scale: int, cells):
        self.p = p
        self.scale = scale
        self.cells = cells

    def lift(self, scale: int) -> int:
        """Raise the scale to ``scale`` if it is larger, and return the
        p-power that lifts mantissas given at ``scale`` to this one."""
        if scale > self.scale:
            self.cells *= self.p ** (scale - self.scale)
            self.scale = scale
        return self.p ** (self.scale - scale)

    def absorb(self, scale: int, c: int, terms: list, cells):
        """Add c * (terms x cells), mantissas given at ``scale``, lifting
        whichever side has the smaller scale."""
        _triangle_mul(self.cells, terms, cells, c * self.lift(scale))

    def strip(self) -> "TriangleGrid":
        """Divide out the largest p-power common to every cell, down to
        scale 0 at most.  The result depends only on the exact values."""
        g = _shared_p_power(self.p, self.scale, self.cells[self.cells != 0])
        if g:
            self.cells //= self.p**g
            self.scale -= g
        return self

    def certify(self, w: int, n: int, what: str) -> dict:
        """Certify p-integrality of every cell and reduce mod p, keyed
        (t, degree) by the weight-w grading.  The first cell in row-major
        order that p^scale does not divide raises IntegralityFailure."""
        p, q = self.p, self.p**self.scale
        out = {}
        ts, gs = np.nonzero(self.cells)
        for t, g in zip(ts.tolist(), gs.tolist()):
            key = (t, w + (p**n - 1) * t + (p ** (n + 1) - 1) * (g - t))
            m = self.cells[t, g]
            if m % q:
                raise IntegralityFailure(
                    f"{what}: coefficient at {key} has denominator p^{self.scale} "
                    "after exact evaluation; the construction is broken"
                )
            if r := (m // q) % p:
                out[key] = r
        return out


def _power_pass(
    p: int, n: int, ulevels: int, exp_rows: list, vbound: int, multiples: list
) -> list:
    """[i](a) = sum_l i^l * E_l * (log a)^l for each i in ``multiples``, as
    weight-1 ``TriangleGrid``s on t*d + deg <= vbound, from the graded rows
    of ``reduced_exp_rows`` and of ``_log_terms``, in one pass over the powers
    (log a)^l: each product E_l * (log a)^l is formed once and added to
    every sum over the block it can reach, the rows from the least t and the
    columns from the least grade of E_l's terms.  The running power is
    stripped after each step to keep scales (hence mantissa sizes) bounded.
    """
    tmax = ulevels - 1

    def zeros(w: int):
        return _zero_triangle(p, n, w, vbound, tmax)

    # log a at one scale; terms past the triangle's bounds add nothing.
    logs = _log_terms(p, n, _jmax_for(p, vbound))
    log_scale = max(scale for scale, _ in logs)
    base = [(t, g, m * p ** (log_scale - scale)) for scale, terms in logs for t, g, m in terms]
    outs = [TriangleGrid(p, 0, zeros(1)) for _ in multiples]
    power = TriangleGrid(p, 0, np.ones((1, 1), dtype=object))
    for l, (row_scale, terms) in enumerate(exp_rows):
        if terms:
            t0, g0 = min(t for t, _, _ in terms), min(g for _, g, _ in terms)
            block = _triangle_mul(zeros(1), terms, power.cells, 1)[t0:, g0:]
            scale = row_scale + power.scale
            for i, out in zip(multiples, outs):
                out.cells[t0:, g0:] += (i**l * out.lift(scale)) * block
        if l + 1 < len(exp_rows):
            power = TriangleGrid(
                p,
                power.scale + log_scale,
                _triangle_mul(zeros(l + 1), base, power.cells, 1),
            ).strip()
    return outs


def addition_slab(p: int, n: int, ulevels: int, vbound: int, x_cap: int) -> dict:
    """Residues of the addition law F(x, y) = sum_k F_k(y) x^k for k <= x_cap,
    keyed (t, y-degree, k) on t <= ulevels - 1, t*d + y-degree <= vbound, by
    the recursion (k + 1) l'(y) F_(k+1) = sum_j p^j m_j F'_(k+1-p^j) of the
    module docstring.  l' has integer mantissas, since scale(m_j) = j, and
    constant term 1.  Each F_k has weight 1 - k, so the cut t*d + deg <=
    vbound + x_cap - k is g <= N = (vbound + x_cap - 1) // (p^(n+1) - 1) for
    every k: all F_k live on one (t, g) triangle, which the recursion maps
    into itself, so every cell on it is exact.  d/dy scales each cell by its
    y-degree, a term u^t of p^j m_j shifts by its grade, and dividing by
    l'(y) is a solve column by column in g, since every term of l'(y) - 1 has
    grade >= 1.  The p-part of k + 1 goes into the scale, and the prime-to-p
    part must divide every mantissa.
    """
    D = p ** (n + 1) - 1
    e = p**n - 1
    N = (vbound + x_cap - 1) // D
    rows = min(ulevels - 1, N) + 1
    # Terms (t, grade shift, mantissa) of p^j m_j, j >= 1.
    lterms = []
    for j, (scale, terms) in enumerate(_log_terms(p, n, _jmax_for(p, vbound + x_cap))[1:], 1):
        if scale > j:
            raise IntegralityFailure(f"p^{j} m_{j} is not p-integral; the construction is broken")
        lterms.append([(t, g, m * p ** (j - scale)) for t, g, m in terms if g <= N and t < rows])
    t_, g_ = np.indices((rows, N + 1))
    ydeg = e * t_ + D * (g_ - t_)  # the y-degree of cell (t, g) of F_k, less 1 - k

    F = [TriangleGrid(p, 0, np.zeros((rows, N + 1), dtype=object))]
    F[0].cells[0, 0] = 1  # F_0 = y
    for k in range(x_cap):
        rhs = TriangleGrid(p, 0, np.zeros((rows, N + 1), dtype=object))
        for j, terms in enumerate([_UNIT, *lterms]):
            i = k + 1 - p**j
            if i < 0:
                break
            rhs.absorb(F[i].scale, 1, terms, F[i].cells * (ydeg + 1 - i))  # p^j m_j F'_i
        c = rhs.cells
        for g in range(1, N + 1):
            for terms in lterms:
                for t, s, m in terms:
                    h = min(rows - t, g - s + 1)
                    if h > 0:
                        c[t : t + h, g] -= m * c[:h, g - s]
        q, a = k + 1, 0
        while q % p == 0:
            q, a = q // p, a + 1
        if q > 1:
            if any(m % q for m in c[c != 0]):
                raise IntegralityFailure(
                    f"F_{k + 1}: {q} does not divide every mantissa of {k + 1} * F_{k + 1}; "
                    "the construction is broken"
                )
            c //= q
        F.append(TriangleGrid(p, rhs.scale + a, c).strip())

    slab = {}
    for k, Fk in enumerate(F):
        # t*d + y-degree = 1 - k + D g <= vbound
        kept = TriangleGrid(p, Fk.scale, Fk.cells[:, : (vbound + k - 1) // D + 1])
        for (t, y), r in kept.certify(1 - k, n, f"F_{k}").items():
            slab[(t, y, k)] = r
    return slab


@dataclass
class ReducedLawData:
    """Everything the valuation-ring stage needs, already reduced mod p.

    Grids are dicts of residues: ``p_series_a`` and ``series_a[i]`` over keys
    (t, a-degree); ``slab`` over (t, y-degree, x-degree); ``p_series_x``, the
    part of ``p_series_a`` of degree <= x_cap, over (t, x-degree).  The kept
    region satisfies t*d + deg <= vbound (+ p^n for the p-series), which pins
    down everything downstream modulo valuation m^(vbound) of the valuation
    ring.
    """

    config: ChromaticConfig
    d: int
    vbound: int
    a_cap: int
    x_cap: int
    p_series_a: dict
    series_a: dict
    slab: dict
    p_series_x: dict


def build_reduced_law_data(config: ChromaticConfig) -> ReducedLawData:
    p, n, M = config.p, config.n, config.u_precision
    d = config.eisenstein_degree
    x_cap = config.isogeny_x_cap
    vbound = (M + 2) * d
    a_cap = vbound + p**n
    ulevels = M + 2

    # The slab comes from the logarithm alone, by the recursion of
    # l'(y) dF/dx = l'(x) dF/dy; it needs no exp rows.
    slab = addition_slab(p, n, ulevels, vbound, x_cap)

    # [i](a) = sum_l E_l i^l (log a)^l, all the multiples i in one pass over
    # (log a)^l, sharing one product E_l (log a)^l per power.
    exp_rows = reduced_exp_rows(p, n, a_cap, ulevels, d, a_cap)
    multiples = [p] + list(range(2, p)) + [-k for k in range(1, p)]
    series = _power_pass(p, n, ulevels, exp_rows, a_cap, multiples)

    p_series_a = series[0].certify(1, n, "p-series")
    series_a = {1: {(0, 1): 1}}
    for i, grid in zip(multiples[1:], series[1:]):
        series_a[i] = grid.certify(1, n, f"[{i}](a)")

    return ReducedLawData(
        config=config,
        d=d,
        vbound=vbound,
        a_cap=a_cap,
        x_cap=x_cap,
        p_series_a=p_series_a,
        series_a=series_a,
        slab=slab,
        # [p](x) up to x_cap is a slice of [p](a).  It differs from the
        # untruncated series only at t*d + deg > a_cap, so at t >= M, while
        # the isogeny stage reads t <= M - 1 only: (M - 1)*d + x_cap <= a_cap
        # since x_cap <= 3d + p^n, i.e. p + 2 <= 2 p^n (p - 1), for every
        # p >= 2 and n >= 1.
        p_series_x={k: r for k, r in p_series_a.items() if k[1] <= x_cap},
    )
