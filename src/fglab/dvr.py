"""Weierstrass preparation of the reduced p-series and the valuation ring it cuts out.

In F_p[[u, a]] (u = u_n after killing p and the lower u's), the p-series
factors as

    [p](a) = U * a^(p^n) * g(a)

with U a unit and g monic of degree d = p^(n+1) - p^n, Eisenstein at (u):
lower coefficients divisible by u, constant term divisible by u but not u^2,
and g = a^d mod u.  The quotient R = F_p[[u]][a]/g(a) is then a discrete
valuation ring with maximal ideal (a); since representatives keep a-degree
i < d, the valuation of a monomial u^t a^i is t*d + i and (t, i) -> t*d + i
is injective, so valuations are read off directly.

Preparation is by u-adic successive approximation: writing h = [p](a)/a^(p^n)
and solving h = g * W level by level in powers of u.  At level m the linear
problem splits as g_m * vbar + a^d * W_m = known, with vbar the level-zero
unit part, so g_m is the low part of vbar^(-1) * known and W_m the rest.
Exactly ``levels`` refinement rounds are run.  The input rows must be deep
enough in the (t*d + i)-triangle to support the requested levels: the level-m
slice of g needs h up to degree about (m+2)*d, which is why the big-series
stage works to a-degree (M+2)*d + p^n.

An element of R is stored as one read-only (d, M) int64 array of residues,
row i the u-coefficients of a^i.  A basis B of R stacks such arrays, and
every sum in R, r * u^t * B_k over B, is one ``DvrRing.combine``:
reducing a (t, a-degree) grid mod g (``from_rows``) and the reduction step of
a product use the ring's table of a^k mod g; translating by c uses the
powers c^j; the reduced power operation uses the powers of the u-image.

Precision semantics are explicit everywhere: a DvrElement carries ``prec``,
the valuation below which its coefficients are exact; elements whose
valuation reaches ``prec`` are indistinguishable from zero and operations
that would need to distinguish them raise PrecisionExhausted rather than
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np

from .errors import (
    InexactDivision,
    NegativePower,
    NotPreparable,
    PrecisionExhausted,
    PrecisionMismatch,
)
from .fgl import FormalGroupLaw, i_series, reduce_series
from .scalars import USeries


# ---------------------------------------------------------------------------
# Small-cap reductions of the exact-rational law; the deep computation
# uses bigseries data instead.


def reduce_to_un(F: FormalGroupLaw) -> dict:
    """The addition law mod (p, u_1..u_{n-1}) as a (t, y-degree, x-degree)
    grid of residues, the layout of the big-series slab."""
    kill = [f"u{j}" for j in range(1, F.config.n)]
    red = reduce_series(F.addition, F.config.p, kill)  # (x, y, un)
    return {(e[2], e[1], e[0]): r for e, r in red.items()}


def reduced_p_series(F: FormalGroupLaw) -> dict:
    """[p](x) mod (p, u_1..u_{n-1}) as a (t, a-degree) grid of residues."""
    kill = [f"u{j}" for j in range(1, F.config.n)]
    red = reduce_series(i_series(F, F.config.p), F.config.p, kill)  # (x, un)
    return {(e[1], e[0]): r for e, r in red.items()}


# ---------------------------------------------------------------------------
# Distinguished polynomials and the Weierstrass factorization.


@dataclass(frozen=True)
class DistinguishedPoly:
    """Monic degree-d polynomial over F_p[[u]], Eisenstein at (u).

    ``coefficients[i]`` is the USeries coefficient of a^i, i = 0..d, with
    coefficients[d] = 1.  ``levels`` records how many u-levels of the lower
    coefficients were actually solved for (the USeries precision equals the
    ring precision; levels <= that precision).
    """

    p: int
    degree: int
    coefficients: tuple
    levels: int

    def __post_init__(self):
        d = self.degree
        if len(self.coefficients) != d + 1:
            raise NotPreparable("coefficient list has wrong length")
        top = self.coefficients[d]
        if top != USeries.one(self.p, top.precision):
            raise NotPreparable("not monic")
        for i in range(d):
            w = self.coefficients[i].weight()
            if w is not None and w < 1:
                raise NotPreparable(f"coefficient of a^{i} is a unit; not distinguished")
        w0 = self.coefficients[0].weight()
        if w0 != 1:
            raise NotPreparable(
                f"constant term has u-valuation {w0}, expected exactly 1"
            )

    @property
    def precision(self) -> int:
        return self.coefficients[0].precision

    def render(self) -> str:
        parts = [f"a^{self.degree}"]
        for i in range(self.degree - 1, -1, -1):
            c = self.coefficients[i]
            if not c.is_zero():
                mono = f"a^{i}" if i > 1 else ("a" if i == 1 else "")
                parts.append(f"({c.render()})" + ("*" + mono if mono else ""))
        return " + ".join(parts)


def eisenstein_check(g: DistinguishedPoly) -> bool:
    """True iff all lower coefficients lie in (u) and the constant term is in
    (u) but not (u^2) - the irreducibility certificate."""
    for i in range(g.degree):
        w = g.coefficients[i].weight()
        if w is not None and w < 1:
            return False
    return g.coefficients[0].weight() == 1


@dataclass(frozen=True)
class WeierstrassFactorization:
    """[p](a) = unit * a^pole_order * distinguished, with the unit carried as
    (t, a-degree) residue rows valid on t*d + deg <= valid_vbound."""

    unit_rows: dict
    distinguished: DistinguishedPoly
    pole_order: int
    valid_vbound: int

    def unit_constant(self) -> int:
        return self.unit_rows.get((0, 0), 0)


def weierstrass_from_rows(
    p: int,
    rows: dict,
    d: int,
    pole: int,
    precision: int,
    levels: int,
    depth: int | None = None,
) -> WeierstrassFactorization:
    """Prepare rows of [p](a) (keys (t, a-degree), residues mod p).

    ``levels`` refinement rounds are run; callers must supply rows exact on a
    region t*d + (deg - pole) <= (levels + 2) * d for the solved levels to be
    exact.  ``depth`` is the a-degree up to which the rows are guaranteed
    complete (zeros included); inferred from the largest key when omitted.
    """
    if levels < 2:
        raise NotPreparable(
            "at least 2 u-levels are needed to certify the distinguished shape"
        )
    if any(deg < pole and r for (t, deg), r in rows.items()):
        raise NotPreparable(f"input has terms below a^{pole}")
    if depth is None:
        depth = max((deg for (_, deg) in rows), default=0)
    a_cap = depth - pole
    if a_cap < 2 * d:
        raise NotPreparable(
            f"input depth a^{a_cap} after the pole cannot support preparation "
            f"(need at least 2d = {2 * d})"
        )
    if (levels + 2) * d > a_cap + d:
        raise NotPreparable(
            f"input depth {a_cap} supports at most {(a_cap + d) // d - 2} levels, "
            f"{levels} requested"
        )
    # h = [p](a) / a^pole as per-level coefficient arrays.
    h = np.zeros((levels, a_cap + 1), dtype=np.int64)
    for (t, deg), r in rows.items():
        if t < levels and deg - pole <= a_cap:
            h[t, deg - pole] = r
    h %= p

    hbar = h[0]
    if hbar[:d].any() or not hbar[d]:
        raise NotPreparable(
            "level-0 part is not a unit times a^d; wrong degree or wrong input"
        )
    vbar = hbar[d:]
    # The computed unit is exact only where its dependency cone stayed inside
    # the supplied rows: t*d + j <= valid_vbound <= input depth - d.  So W_m
    # is solved only to a-degree valid_vbound - m*d, which needs known and G
    # to d further.
    valid_vbound = (levels + 1) * d
    vy = np.array(USeries.from_coeffs(p, valid_vbound + 1, vbar.tolist()).inverse().coeffs)

    g_levels = np.zeros((levels, d), dtype=np.int64)  # lower coefficients per level
    w_levels = [vbar[: valid_vbound + 1]]  # W per level, level 0 = vbar
    for m in range(1, levels):
        w_len = valid_vbound - m * d + 1
        n = w_len + d
        known = h[m, :n].copy()
        for t in range(1, m):
            if g_levels[t].any():
                known -= np.convolve(g_levels[t], w_levels[m - t])[:n]
        G = np.convolve(vy[:n], known % p)[:n] % p
        g_levels[m] = G[:d]
        w_levels.append(np.convolve(vbar[:w_len], G[d:])[:w_len] % p)

    coeffs = [
        USeries.from_coeffs(p, precision, g_levels[:, i].tolist()) for i in range(d)
    ]
    coeffs.append(USeries.one(p, precision))
    g = DistinguishedPoly(p=p, degree=d, coefficients=tuple(coeffs), levels=levels)

    unit_rows = {
        (m, j): int(wl[j])
        for m, wl in enumerate(w_levels)
        for j in np.flatnonzero(wl).tolist()
    }
    return WeierstrassFactorization(
        unit_rows=unit_rows,
        distinguished=g,
        pole_order=pole,
        valid_vbound=valid_vbound,
    )


def reconstruction_defect(
    fact: WeierstrassFactorization, rows: dict, ulevels: int
) -> dict:
    """U * a^pole * g minus the input rows, over the region where the computed
    unit is exact: t*d + (deg - pole) <= valid_vbound, t < ulevels.
    Empty dict means bit-exact agreement."""
    g = fact.distinguished
    d, pole, p = g.degree, fact.pole_order, g.p
    vb = fact.valid_vbound
    prod = {}
    for (t1, j), uv in fact.unit_rows.items():
        for i in range(d + 1):
            ci = g.coefficients[i]
            for t2, cv in enumerate(ci.coeffs):
                if not cv:
                    continue
                t = t1 + t2
                deg = j + i + pole
                if t >= ulevels or t * d + (deg - pole) > vb:
                    continue
                key = (t, deg)
                prod[key] = (prod.get(key, 0) + uv * cv) % p
    defect = {}
    for key in set(prod) | set(rows):
        t, deg = key
        if t >= ulevels or t * d + (deg - pole) > vb:
            continue
        delta = (prod.get(key, 0) - rows.get(key, 0)) % p
        if delta:
            defect[key] = delta
    return defect


# ---------------------------------------------------------------------------
# The valuation ring R = F_p[[u]][a]/g(a).


@dataclass(frozen=True)
class WeightValue:
    """A weight: valuation / d, or infinite for zero-up-to-precision."""

    valuation: int | None
    denominator: int

    def as_fraction(self) -> Fraction | None:
        if self.valuation is None:
            return None
        return Fraction(self.valuation, self.denominator)

    def render(self) -> str:
        if self.valuation is None:
            return "inf"
        f = self.as_fraction()
        return f"{f.numerator}/{f.denominator}"

    def __eq__(self, other):
        if not isinstance(other, WeightValue):
            return NotImplemented
        return self.as_fraction() == other.as_fraction()


class DvrRing:
    """F_p[[u]][a]/g(a) at u-precision M.

    ``_a_pow`` holds a^k mod g for k = 0, 1, ... as one int64 array of shape
    (K, d, M): ``_a_pow[k, i]`` is the u-coefficient list of a^i in a^k.  It
    covers k < 2d, all a product needs, and ``_ensure_pow`` extends it for
    deeper grids.  Every sum in R is one ``combine`` over a stacked basis
    like it.
    """

    def __init__(self, g: DistinguishedPoly):
        self.g = g
        self.p = g.p
        self.d = g.degree
        self.precision = g.precision  # u-levels per coefficient
        self.prec_cap = self.precision * self.d  # valuation resolution of R
        self._g_low = np.array([c.coeffs for c in g.coefficients[: self.d]], dtype=np.int64)
        # Row s of the Toeplitz block is u^s * (g_0, ..., g_(d-1)) cut at u^M,
        # so top @ block is every truncated product top * g_i at once.
        M = self.precision
        block = np.zeros((M, self.d, M), dtype=np.int64)
        for s in range(M):
            block[s, :, s:] = self._g_low[:, : M - s]
        self._g_toeplitz = block.reshape(M, self.d * M)
        # (g_0 / u)^(-1), the unit divide_by_a divides by; its top term is
        # unknown and taken as 0.
        self._g0_unit_inv = np.array(g.coefficients[0].divide_by_u(1).inverse().coeffs)
        self._a_pow = np.zeros((self.d, self.d, self.precision), dtype=np.int64)
        self._a_pow[np.arange(self.d), np.arange(self.d), 0] = 1
        self._ensure_pow(2 * self.d - 1)

    def _ensure_pow(self, kmax: int):
        """Extend the a^k table through kmax: a^(k+1) = a * a^k, with the a^d
        it overflows into replaced by -(g_0 + g_1 a + ... + g_(d-1) a^(d-1)).
        One int64 product per row; its entries stay below M * p^2."""
        p, d, M = self.p, self.d, self.precision
        prev = self._a_pow[-1]
        new = []
        for _ in range(len(self._a_pow), kmax + 1):
            top = prev[-1]
            prev = np.roll(prev, 1, axis=0)
            prev[0] = 0
            prev -= (top @ self._g_toeplitz).reshape(d, M)
            prev %= p
            new.append(prev)
        if new:
            self._a_pow = np.concatenate([self._a_pow, np.stack(new)])

    def combine(self, terms, basis: np.ndarray, prec: int | None = None) -> "DvrElement":
        """sum of r * u^t * basis[k] over the (t, k, r) triples in ``terms``.

        ``basis`` is a (K, d, M) residue array: the a^k table, or the stacked
        ``coeffs`` of elements.  Terms with t >= M vanish at this precision.
        The sum is taken in int64 and reduced mod p once, by the element; each
        entry is at most sum |r| * (p - 1) in absolute value, exact while
        sum |r| stays below 2^63 / p, which residues or short sums of them
        never approach.
        """
        d, M = self.d, self.precision
        tkr = np.asarray(terms, dtype=np.int64).reshape(-1, 3)
        tkr = tkr[tkr[:, 0] < M]
        by_shift = np.zeros((M, len(basis)), dtype=np.int64)
        np.add.at(by_shift, (tkr[:, 0], tkr[:, 1]), tkr[:, 2])
        shifts = np.flatnonzero(by_shift.any(axis=1))
        ks = np.flatnonzero(by_shift.any(axis=0))
        sums = by_shift[np.ix_(shifts, ks)] @ basis[ks].reshape(len(ks), d * M)
        acc = np.zeros((d, M), dtype=np.int64)
        for t, s in zip(shifts.tolist(), sums.reshape(-1, d, M)):
            acc[:, t:] += s[:, : M - t]
        return DvrElement(self, acc, prec=prec)

    # -- constructors ------------------------------------------------------

    def from_rows(self, rows: dict, prec: int | None = None) -> "DvrElement":
        """Reduce a (t, a-degree) residue grid mod g into R."""
        self._ensure_pow(max((deg for (_, deg) in rows), default=0))
        terms = [(t, deg, r) for (t, deg), r in rows.items()]
        return self.combine(terms, self._a_pow, prec)

    def zero(self) -> "DvrElement":
        return self.from_rows({})

    def one(self) -> "DvrElement":
        return self.from_rows({(0, 0): 1})

    def from_int(self, k: int) -> "DvrElement":
        return self.from_rows({(0, 0): k})

    def monomial(self, t: int, i: int, c: int = 1) -> "DvrElement":
        return self.from_rows({(t, i): c})

    def un(self) -> "DvrElement":
        return self.monomial(1, 0)

    def a(self) -> "DvrElement":
        return self.monomial(0, 1)

    def __eq__(self, other):
        return isinstance(other, DvrRing) and other.g == self.g

    def __hash__(self):
        return hash((self.p, self.d, self.precision))

    def __repr__(self):
        return f"DvrRing(p={self.p}, d={self.d}, M={self.precision})"


class DvrElement:
    """Element of R as sum_{i<d} c_i(u) a^i with explicit precision.

    ``coeffs`` is a read-only (d, M) int64 array of residues mod p: row i
    holds the u-coefficients of c_i, the layout of a ``DvrRing.combine``
    basis, so elements stack into one directly.  ``prec`` (in valuation
    units) bounds what the element is good for: terms of valuation >= prec
    are unknown.  Fresh elements get the full resolution M*d of the ring.
    """

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: DvrRing, coeffs, prec: int | None = None):
        self.ring = ring
        self.coeffs = np.asarray(coeffs, dtype=np.int64) % ring.p
        self.coeffs.flags.writeable = False  # __hash__ hashes the bytes
        self.prec = ring.prec_cap if prec is None else min(prec, ring.prec_cap)

    def _check(self, other: "DvrElement"):
        if self.ring != other.ring:
            raise PrecisionMismatch("elements of different rings")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "DvrElement") -> "DvrElement":
        self._check(other)
        return DvrElement(
            self.ring, self.coeffs + other.coeffs, prec=min(self.prec, other.prec)
        )

    def __sub__(self, other: "DvrElement") -> "DvrElement":
        self._check(other)
        return DvrElement(
            self.ring, self.coeffs - other.coeffs, prec=min(self.prec, other.prec)
        )

    def __neg__(self) -> "DvrElement":
        return DvrElement(self.ring, -self.coeffs, prec=self.prec)

    def __mul__(self, other: "DvrElement") -> "DvrElement":
        self._check(other)
        ring = self.ring
        d, M = ring.d, ring.precision
        full = np.zeros((2 * d - 1, M), dtype=np.int64)
        rows_b = np.flatnonzero(other.coeffs.any(axis=1)).tolist()
        for i in np.flatnonzero(self.coeffs.any(axis=1)).tolist():
            a = self.coeffs[i]
            for j in rows_b:
                full[i + j] += np.convolve(a, other.coeffs[j])[:M]
        full %= ring.p
        k, t = np.nonzero(full)
        terms = np.column_stack([t, k, full[k, t]])
        va = self.valuation()
        vb = other.valuation()
        prec = min(
            ring.prec_cap,
            self.prec + (vb if vb is not None else other.prec),
            other.prec + (va if va is not None else self.prec),
        )
        return ring.combine(terms, ring._a_pow[: 2 * d - 1], prec)

    def __pow__(self, e: int) -> "DvrElement":
        if e < 0:
            raise NegativePower(f"power {e}: use unit_inverse or divide_exact")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- valuation / weight -----------------------------------------------------

    def valuation(self) -> int | None:
        """min over stored monomials u^t a^i of t*d + i; None when zero."""
        i, t = np.nonzero(self.coeffs)
        return int((t * self.ring.d + i).min()) if len(i) else None

    def weight(self) -> WeightValue:
        return WeightValue(self.valuation(), self.ring.d)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_zero_within_prec(self) -> bool:
        """Zero up to the precision horizon: no stored term below ``prec``."""
        v = self.valuation()
        return v is None or v >= self.prec

    def __eq__(self, other):
        if not isinstance(other, DvrElement):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    # -- division -----------------------------------------------------------------

    def divide_by_a(self) -> "DvrElement":
        """Exact division by a.  Needs valuation >= 1; costs one u-level of the
        top coefficient -(c_0/u) (g_0/u)^(-1) (accounted in prec), which keeps
        all M terms with the unknown top term of c_0/u taken as 0."""
        ring = self.ring
        p, M = ring.p, ring.precision
        c = self.coeffs
        if c[0, 0]:
            raise InexactDivision("element has valuation 0; a does not divide it")
        q_top = -np.convolve(np.append(c[0, 1:], 0), ring._g0_unit_inv)[:M] % p
        out = np.empty_like(c)
        out[-1] = q_top
        for i, gi in enumerate(ring._g_low[1:]):
            out[i] = c[i + 1] + np.convolve(q_top, gi)[:M]
        return DvrElement(ring, out, prec=self.prec - 1)

    def unit_part(self) -> tuple["DvrElement", int]:
        """(self / a^v, v) with v the valuation; raises on zero."""
        v = self.valuation()
        if v is None:
            raise PrecisionExhausted(
                f"element is zero up to precision {self.prec}; no unit part"
            )
        e = self
        for _ in range(v):
            e = e.divide_by_a()
        return e, v

    def unit_inverse(self) -> "DvrElement":
        """Newton inversion of a unit (valuation 0) in the complete local ring."""
        v = self.valuation()
        if v != 0:
            raise InexactDivision(f"valuation {v} element is not a unit of R")
        ring = self.ring
        y = ring.from_int(pow(self.residue_mod_m(), -1, ring.p))
        two = ring.from_int(2)
        goal = ring.prec_cap
        reached = 1
        while reached < goal:
            y = y * (two - self * y)
            reached *= 2
        return DvrElement(ring, y.coeffs, prec=self.prec)

    def divide_exact(self, other: "DvrElement") -> "DvrElement":
        """self / other when val(self) >= val(other) in the DVR."""
        self._check(other)
        ov = other.valuation()
        if ov is None:
            raise PrecisionExhausted("division by zero-up-to-precision element")
        sv = self.valuation()
        if sv is None:
            return DvrElement(self.ring, self.coeffs, prec=self.prec - ov)
        if sv < ov:
            raise InexactDivision(
                f"valuation {sv} not divisible by valuation {ov} element"
            )
        unit, v = other.unit_part()
        num = self
        for _ in range(v):
            num = num.divide_by_a()
        return num * unit.unit_inverse()

    # -- views --------------------------------------------------------------

    def residue_mod_m(self) -> int:
        """Image in R/(a, u) = F_p."""
        return int(self.coeffs[0, 0])

    def render(self) -> str:
        parts = []
        for i, row in enumerate(self.coeffs.tolist()):
            if not any(row):
                continue
            mono = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            cs = USeries(self.ring.p, row).render()
            if mono and cs != "1":
                parts.append(f"({cs})*{mono}")
            elif mono:
                parts.append(mono)
            else:
                parts.append(cs)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"DvrElement({self.render()}, prec={self.prec})"


def _product_of_multiples(ring: DvrRing, series_a: dict, multiples) -> DvrElement:
    return reduce(mul, (ring.from_rows(series_a[i]) for i in multiples))


def compute_psi(ring: DvrRing, series_a: dict) -> DvrElement:
    """Psi = product over 1 <= i <= p-1 of [i](a), reduced into R."""
    return _product_of_multiples(ring, series_a, range(1, ring.p))


def compute_psi_negative(ring: DvrRing, series_a: dict) -> DvrElement:
    """The same product over the negated multiples [-i](a); it equals Psi, which
    the pipeline checks rather than assumes."""
    return _product_of_multiples(ring, series_a, range(-1, -ring.p, -1))
