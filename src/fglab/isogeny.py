"""The norm coordinate and the quotient p-series over the valuation ring.

Over R = F_p[[u]][a]/g(a), the p-series of the quotient law is pinned down by
one identity in R[[x]]:

    prod_{k=0}^{p-1} ([p](x) -_F [k](a))  =  Q( prod_{k=0}^{p-1} (x -_F [k](a)) )

for a unique series Q(y) over Frac(R).  The right-hand product is the norm
coordinate f(x); its linear coefficient is the product of the [-k](a), a
valuation-(p-1) element equal to +/- Psi, so f_1 is invertible only over the
fraction field.  Comparing x^k coefficients gives a triangular system,

    Q_k = (lhs_k - sum_{j<k} Q_j [f^j]_k) / f_1^k,

solved over Frac(R) with a-power denominators only.  Every coefficient is
certified to lie in R (denominator-free after normalization), and the defining
identity is re-checked by back-substitution through the same powers f^j.

Both factors x -_F [k](a) and [p](x) -_F [k](a) are evaluations of the
addition-law slab F(x, y) at y = [-k](a): translation by a ring element never
needs the full two-variable law at large degree, just the slab rows.

From Q:

* the y^(p^i) coefficients for i < n must vanish in R (checked, and required
  before the next extraction is meaningful), as must every other coefficient
  below y^(p^n);
* the y^(p^n) coefficient is the image of u_n under the reduced power
  operation.  A second, independent route computes the same element by exact
  division: it is the unique r with r * Psi^(p^n - 1) = u_n.  The two routes
  must agree bit-for-bit up to the precision horizon, and the sign epsilon in
  (u_n image) * Psi^(p^n) = epsilon * u_n * Psi is determined empirically
  rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IntegralityFailure,
    NeitherSignHolds,
    PrecisionExhausted,
    PrerequisiteVanishingFailed,
    ResidualMismatch,
)
from .dvr import DvrElement, DvrRing


class FracElement:
    """num * a^(-shift) over R; normalized so shift = 0 or val(num) = 0."""

    __slots__ = ("num", "shift")

    def __init__(self, num: DvrElement, shift: int = 0):
        if shift > 0 and num.is_zero():
            # 0 / a^shift is known only to prec - shift.
            num = DvrElement(num.ring, num.coeffs, prec=num.prec - shift)
            shift = 0
        while shift > 0:
            v = num.valuation()
            if v is None or v < 1:
                break
            num = num.divide_by_a()
            shift -= 1
        self.num = num
        self.shift = shift

    @property
    def is_integral(self) -> bool:
        return self.shift == 0

    def _align(self, other: "FracElement"):
        s = max(self.shift, other.shift)
        ring = self.num.ring
        a = ring.a()
        n1, n2 = self.num, other.num
        if s > self.shift:
            n1 = n1 * a ** (s - self.shift)
        if s > other.shift:
            n2 = n2 * a ** (s - other.shift)
        return n1, n2, s

    def __add__(self, other: "FracElement") -> "FracElement":
        n1, n2, s = self._align(other)
        return FracElement(n1 + n2, s)

    def __sub__(self, other: "FracElement") -> "FracElement":
        n1, n2, s = self._align(other)
        return FracElement(n1 - n2, s)

    def __mul__(self, other: "FracElement") -> "FracElement":
        return FracElement(self.num * other.num, self.shift + other.shift)

    def __eq__(self, other):
        if not isinstance(other, FracElement):
            return NotImplemented
        n1, n2, _ = self._align(other)
        return (n1 - n2).is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_dvr(self) -> DvrElement:
        if self.shift:
            raise IntegralityFailure(
                f"element has residual pole a^-{self.shift}; not in R"
            )
        return self.num

    def render(self) -> str:
        body = self.num.render()
        return body if not self.shift else f"({body})/a^{self.shift}"

    def __repr__(self):
        return f"FracElement({self.render()})"


# ---------------------------------------------------------------------------
# Slab evaluation: x +_F c as an x-series over R.


def slab_row_tables(slab: dict, x_cap: int) -> list[dict]:
    """Per-x-degree tables: row[i] maps y-degree j to the u-poly {t: residue}."""
    rows = [dict() for _ in range(x_cap + 1)]
    for (t, j, i), r in slab.items():
        if i <= x_cap:
            rows[i].setdefault(j, {})[t] = r
    return rows


def translate_series(
    ring: DvrRing, rows: list[dict], c: DvrElement, x_cap: int
) -> list[DvrElement]:
    """Coefficients of x +_F c: entry i is sum_j F_row[i][j] * c^j in R, known
    to the least precision among the powers c^j it uses."""
    jmax = max((max(row) for row in rows if row), default=0)
    powers = [ring.one()]
    for j in range(1, jmax + 1):
        nxt = powers[-1] * c
        powers.append(nxt)
        if nxt.is_zero():
            # Higher powers stay zero at this resolution; reuse it.
            powers.extend([nxt] * (jmax - j))
            break
    basis = np.stack([e.coeffs for e in powers])
    return [
        ring.combine(
            [(t, j, r) for j, upoly in rows[i].items() for t, r in upoly.items()],
            basis,
            prec=min((powers[j].prec for j in rows[i]), default=None),
        )
        for i in range(x_cap + 1)
    ]


def _xseries_mul(ring: DvrRing, A: list, B: list, x_cap: int) -> list:
    out = [ring.zero() for _ in range(x_cap + 1)]
    for i, ai in enumerate(A):
        if ai.is_zero():
            continue
        for j, bj in enumerate(B):
            if i + j > x_cap:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _xseries_powers(ring: DvrRing, s: list, x_cap: int) -> list:
    """s^0, s^1, ... as x-series, up to s^x_cap or the first power that vanishes."""
    powers = [[ring.one()] + [ring.zero()] * x_cap]
    for _ in range(x_cap):
        nxt = _xseries_mul(ring, powers[-1], s, x_cap)
        if all(e.is_zero() for e in nxt):
            break
        powers.append(nxt)
    return powers


def _xseries_compose(ring: DvrRing, coeffs: list, powers: list, x_cap: int) -> list:
    """sum_i coeffs[i] * s^i, given the powers of s."""
    out = [ring.zero() for _ in range(x_cap + 1)]
    for c, power in zip(coeffs, powers):
        if c.is_zero():
            continue
        for deg, e in enumerate(power):
            if not e.is_zero():
                out[deg] = out[deg] + e * c
    return out


@dataclass
class QuotientPSeries:
    """The quotient p-series Q(y): coefficients over Frac(R), certified to be
    integral (shift 0) coefficient by coefficient."""

    coefficients: list  # FracElement, index = y-degree, entry 0 is zero
    integral: list  # bool per coefficient

    def dvr_coefficient(self, j: int) -> DvrElement:
        return self.coefficients[j].as_dvr()


@dataclass
class NormData:
    """Everything the identity pins down, plus the checks' raw defects."""

    ring: DvrRing
    x_cap: int
    f_coeffs: list  # norm coordinate coefficients, index = x-degree
    lhs_coeffs: list  # left product coefficients
    quotient: QuotientPSeries
    residual_defects: list  # (valuation, precision) of the defect per x-degree


def quotient_p_series(
    ring: DvrRing,
    slab_rows: list,
    series_a: dict,
    p_series_x: dict,
    x_cap: int,
) -> NormData:
    """Solve the defining identity for Q and certify its coefficients.

    Raises ResidualMismatch when back-substitution leaves a defect that is
    visibly nonzero at the working precision."""
    p = ring.p
    # phi_k(x) = x -_F [k](a): the slab evaluated at the inverse multiple.
    phis = [
        translate_series(ring, slab_rows, ring.from_rows(series_a[-k]), x_cap)
        for k in range(1, p)
    ]

    # Norm coordinate f(x) = x * prod_k phi_k(x); the k = 0 factor is x.
    prod = phis[0]
    for phi in phis[1:]:
        prod = _xseries_mul(ring, prod, phi, x_cap)
    f = [ring.zero()] + prod[:x_cap]

    # Left-hand product [p](x) * prod_k phi_k([p](x)) = f([p](x)).
    P = [
        ring.from_rows({(t, 0): r for (t, deg), r in p_series_x.items() if deg == i})
        for i in range(x_cap + 1)
    ]
    p_powers = _xseries_powers(ring, P, x_cap)
    lhs = _xseries_compose(ring, f, p_powers, x_cap)

    # Triangular solve: Q_k = (lhs_k - sum_{j<k} Q_j [f^j]_k) / f_1^k.
    f_powers = _xseries_powers(ring, f, x_cap)
    unit, v = f[1].unit_part()
    f1_inv = FracElement(unit.unit_inverse(), v)
    f1_inv_k = FracElement(ring.one())
    coefficients = [FracElement(ring.zero())]
    for k in range(1, x_cap + 1):
        f1_inv_k = f1_inv_k * f1_inv
        acc = FracElement(lhs[k])
        for j in range(1, k):
            if not (coefficients[j].is_zero() or f_powers[j][k].is_zero()):
                acc = acc - coefficients[j] * FracElement(f_powers[j][k])
        coefficients.append(acc * f1_inv_k)
    integral = [c.is_integral for c in coefficients]
    quotient = QuotientPSeries(coefficients=coefficients, integral=integral)
    if not all(integral):
        bad = [j for j, ok in enumerate(integral) if not ok]
        if all(coefficients[j].num.is_zero_within_prec() for j in bad):
            raise PrecisionExhausted(
                f"cannot certify integrality of the quotient p-series at "
                f"y-degrees {bad}: the u-precision is too small for this "
                "configuration (raise --u-prec)"
            )
        raise IntegralityFailure(
            f"quotient p-series coefficients at y-degrees {bad} have residual poles"
        )

    # Back-substitute: Q(f(x)) must reproduce the left product.
    back = _xseries_compose(ring, [c.as_dvr() for c in coefficients], f_powers, x_cap)
    residual_defects = []
    for deg in range(x_cap + 1):
        delta = back[deg] - lhs[deg]
        v = delta.valuation()
        residual_defects.append((v, delta.prec))
        if not delta.is_zero_within_prec():
            raise ResidualMismatch(
                f"back-substitution defect at x^{deg}: valuation {v} "
                f"below precision {delta.prec}"
            )
    return NormData(
        ring=ring,
        x_cap=x_cap,
        f_coeffs=f,
        lhs_coeffs=lhs,
        quotient=quotient,
        residual_defects=residual_defects,
    )


def extract_un_image(data: NormData, n: int) -> DvrElement:
    """The y^(p^n) coefficient of Q, after checking that every lower
    coefficient vanishes (in particular the y^(p^i), i < n, in order)."""
    ring = data.ring
    p = ring.p
    failures = []
    for j in range(1, p**n):
        c = data.quotient.coefficients[j]
        if not c.is_zero():
            failures.append((j, c.render()))
    if failures:
        raise PrerequisiteVanishingFailed(
            f"coefficients below y^{p**n} do not vanish: {failures[:4]}"
        )
    return data.quotient.dvr_coefficient(p**n)


def un_image_by_division(psi: DvrElement, n: int) -> DvrElement:
    """The unique r with r * Psi^(p^n - 1) = u_n, by exact division in R."""
    ring = psi.ring
    denom = psi ** (ring.p**n - 1)
    return ring.un().divide_exact(denom)


def equal_within_prec(x: DvrElement, y: DvrElement) -> tuple[bool, int]:
    """Compare two elements up to the coarser precision; returns (equal, prec)."""
    delta = x - y
    return delta.is_zero_within_prec(), delta.prec


def sign_check(un_image: DvrElement, psi: DvrElement, n: int) -> int:
    """epsilon with un_image * Psi^(p^n) = epsilon * u_n * Psi; raises
    NeitherSignHolds when no sign satisfies the identity."""
    ring = psi.ring
    lhs = un_image * psi ** (ring.p**n)
    rhs = ring.un() * psi
    plus, _ = equal_within_prec(lhs, rhs)
    minus, _ = equal_within_prec(lhs, -rhs)
    if plus:
        return 1
    if minus:
        return -1
    raise NeitherSignHolds(
        f"neither sign matches: lhs val {lhs.valuation()}, rhs val {rhs.valuation()}"
    )
