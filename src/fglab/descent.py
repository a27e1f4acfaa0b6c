"""The weight-descent loop: apply the reduced power operation, extract a
lighter coefficient, repeat until a unit appears.

The reduced power operation is the ring homomorphism F_p[[u]] -> R determined
by u |-> (the u-image computed in the isogeny stage), an element of valuation
p - 1 < d.  For z of weight w >= 1 its image has valuation w * (p-1), so some
coefficient q_i of the reduced representative sum_i q_i(u) a^i has u-valuation
at most floor(w (p-1) / d) < w: extracting the lightest coefficient strictly
reduces weight.  Weights in F_p[[u]] are integers, so at most wt(z) steps
reach a unit (bounded far under the advertised wt(z) * d).

Precision is policed, never assumed: powers of the u-image are cached with
their exact precision, every step checks that the minimum it selects is
visible strictly below the horizon, and a step that would have to treat an
invisible element as zero raises PrecisionExhausted instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DescentInputError, PrecisionExhausted, WeightNotReduced
from .dvr import DvrElement
from .scalars import USeries


class ReducedPowerOperator:
    """u |-> un_image extended multiplicatively to F_p[[u]], with cached powers
    (also stacked as one basis for ``DvrRing.combine``)."""

    def __init__(self, un_image: DvrElement):
        self.un_image = un_image
        self.ring = un_image.ring
        self._powers = [self.ring.one(), un_image]
        self._stacked = np.stack([e.coeffs for e in self._powers])

    def power(self, t: int) -> DvrElement:
        known = len(self._powers)
        while len(self._powers) <= t:
            self._powers.append(self._powers[-1] * self.un_image)
        if len(self._powers) > known:
            new = [e.coeffs for e in self._powers[known:]]
            self._stacked = np.concatenate([self._stacked, new])
        return self._powers[t]

    def apply(self, z: USeries) -> DvrElement:
        """sum_t z_t * (u-image)^t, evaluated in R, known to the least
        precision among the powers it uses."""
        if z.p != self.ring.p:
            raise DescentInputError("mixed primes")
        used = [t for t, c in enumerate(z.coeffs) if c]
        if used:
            self.power(used[-1])
        return self.ring.combine(
            [(0, t, z.coeffs[t]) for t in used],
            self._stacked,
            prec=min((self._powers[t].prec for t in used), default=None),
        )


@dataclass
class DescentStep:
    z: USeries
    weight: int
    chosen_index: int
    extracted: USeries
    horizon_margin: int  # distance from the selected valuation to the precision


@dataclass
class DescentTrace:
    start: USeries
    steps: list = field(default_factory=list)
    terminal: USeries | None = None
    horizon_flagged: bool = False

    @property
    def weights(self) -> list:
        return [s.weight for s in self.steps]

    def check_invariants(self):
        ws = self.weights
        for earlier, later in zip(ws, ws[1:]):
            if later >= earlier:
                raise WeightNotReduced(f"weights not strictly decreasing: {ws}")
        if self.terminal is None or self.terminal.weight() != 0:
            raise WeightNotReduced("trace did not terminate at a unit")


def descent_step(z: USeries, op: ReducedPowerOperator) -> tuple[USeries, int, int]:
    """One step: apply the operation, pick the minimal-weight coefficient
    (ties broken by smallest index), and certify the strict decrease.

    Returns (z', chosen index, horizon margin).  Raises PrecisionExhausted if
    the image is invisible at the working precision and WeightNotReduced if
    the guaranteed decrease fails (which would falsify the weight analysis).
    """
    w = z.weight()
    if w is None or w < 1:
        raise DescentInputError("descent_step needs wt(z) >= 1 and z nonzero")
    r = op.apply(z)
    d = op.ring.d
    v = r.valuation()
    if v is None:
        raise PrecisionExhausted(
            f"image of weight-{w} series is zero up to precision {r.prec}; "
            "cannot certify a descent step"
        )
    if v >= r.prec:
        raise PrecisionExhausted(
            f"image valuation {v} is at or beyond precision {r.prec}"
        )
    # t*d + i with i < d orders monomials by t, then by i: row i is the
    # lightest coefficient, the first of its weight.
    best_w, best_i = divmod(v, d)
    extracted = USeries(op.ring.p, r.coeffs[best_i].tolist())
    if best_w >= w:
        raise WeightNotReduced(
            f"extracted coefficient has weight {best_w}, not below {w}"
        )
    margin = r.prec - v
    return extracted, best_i, margin


def descent_run(z: USeries, op: ReducedPowerOperator) -> DescentTrace:
    """Iterate descent_step until the weight drops below 1; the trace records
    every intermediate weight and chosen index."""
    if z.is_zero():
        raise DescentInputError("descent needs a nonzero start")
    trace = DescentTrace(start=z)
    current = z
    bound = (z.weight() or 0) * op.ring.d + 1
    for _ in range(bound):
        w = current.weight()
        if w == 0:
            break
        nxt, idx, margin = descent_step(current, op)
        trace.steps.append(
            DescentStep(
                z=current,
                weight=w,
                chosen_index=idx,
                extracted=nxt,
                horizon_margin=margin,
            )
        )
        if margin <= op.ring.d:
            trace.horizon_flagged = True
        current = nxt
    trace.terminal = current
    trace.check_invariants()
    return trace


def weight_rule_witness(p: int, precision: int) -> dict:
    """Exhibit the ultrametric minimum rule on a witness pair of unequal
    weights, and that the additive reading fails on it."""
    f1 = USeries.monomial(p, precision, 2)  # u^2
    f2 = USeries.monomial(p, precision, 1) + USeries.monomial(p, precision, 2)
    s = f1 + f2
    w1, w2, ws = f1.weight(), f2.weight(), s.weight()
    return {
        "wt_f1": w1,
        "wt_f2": w2,
        "wt_sum": ws,
        "min_rule_holds": ws == min(w1, w2),
        "additive_rule_holds": ws == w1 + w2,
    }
