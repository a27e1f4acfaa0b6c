import random
from fractions import Fraction

import numpy as np
import pytest

from fglab.descent import (
    ReducedPowerOperator,
    descent_run,
    descent_step,
    weight_rule_witness,
)
from fglab.dvr import DvrElement
from fglab.errors import DescentInputError, PrecisionExhausted
from fglab.scalars import USeries


class TestWeightOf:
    def test_un(self):
        assert USeries.monomial(2, 8, 1).weight() == 1

    def test_unit(self):
        assert USeries.one(3, 8).weight() == 0

    def test_higher(self):
        z = USeries.monomial(2, 32, 5) + USeries.monomial(2, 32, 7)
        assert z.weight() == 5

    def test_zero(self):
        assert USeries.zero(2, 8).weight() is None


class TestPhiExtract:
    def test_dual_basis(self, pipeline):
        ring = pipeline(3, 1).ring
        d = ring.d
        for i in range(d):
            e = ring.monomial(0, i)
            for j in range(d):
                got = e.coeffs[j]
                if i == j:
                    assert got.tolist() == list(USeries.one(3, ring.precision).coeffs)
                else:
                    assert not got.any()

    def test_linear_over_coefficients(self, pipeline):
        ring = pipeline(2, 1).ring
        e = ring.monomial(1, 1)  # u * a
        assert e.coeffs[1].tolist() == list(USeries.monomial(2, ring.precision, 1).coeffs)

    def test_additive_random(self, pipeline):
        ring = pipeline(2, 2).ring
        rng = random.Random(9)
        for _ in range(10):
            x = ring.monomial(rng.randrange(3), rng.randrange(ring.d))
            y = ring.monomial(rng.randrange(3), rng.randrange(ring.d))
            i = rng.randrange(ring.d)
            assert np.array_equal((x + y).coeffs[i], (x.coeffs[i] + y.coeffs[i]) % ring.p)

    def test_index_out_of_range(self, pipeline):
        ring = pipeline(2, 1).ring
        assert len(ring.one().coeffs) == ring.d
        with pytest.raises(IndexError):
            ring.one().coeffs[ring.d]


class TestApplyReducedPower:
    def test_generator(self, pipeline):
        pipe = pipeline(2, 1)
        M = pipe.config.u_precision
        got = ReducedPowerOperator(pipe.un_image_divided).apply(USeries.monomial(2, M, 1))
        assert got == pipe.un_image_divided

    def test_maps_one_to_one(self, pipeline):
        pipe = pipeline(3, 1)
        M = pipe.config.u_precision
        got = ReducedPowerOperator(pipe.un_image_divided).apply(USeries.one(3, M))
        assert got == pipe.ring.one()

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1)])
    def test_multiplicative_random(self, pipeline, p, n):
        """Homomorphism property: both sides computed independently."""
        pipe = pipeline(p, n)
        op = pipe.operator
        M = pipe.config.u_precision
        rng = random.Random(31)
        for _ in range(8):
            z1 = USeries.from_coeffs(p, M, [rng.randrange(p) for _ in range(6)])
            z2 = USeries.from_coeffs(p, M, [rng.randrange(p) for _ in range(6)])
            lhs = op.apply(z1 * z2)
            rhs = op.apply(z1) * op.apply(z2)
            delta = lhs - rhs
            assert delta.valuation() is None or delta.valuation() >= delta.prec

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_monomial_weight_formula(self, pipeline, p, n):
        """wt(image of u^t) = t (p-1)/d, by valuation multiplicativity."""
        pipe = pipeline(p, n)
        d = pipe.ring.d
        M = pipe.config.u_precision
        for t in (1, 2, 5):
            img = pipe.operator.apply(USeries.monomial(p, M, t))
            assert img.weight().as_fraction() == Fraction(t * (p - 1), d)

    def test_apply_keeps_least_power_prec(self, pipeline):
        """apply(z) is known to the least precision among the powers
        (u-image)^t with z_t != 0; u^0 maps to 1, known to the cap."""
        pipe = pipeline(2, 1)
        ring = pipe.ring
        M = pipe.config.u_precision
        starved = DvrElement(ring, pipe.un_image_divided.coeffs, prec=5)
        op = ReducedPowerOperator(starved)
        z = USeries.monomial(2, M, 3) + USeries.monomial(2, M, 6)
        want = op.power(3).prec
        assert want < op.power(6).prec < ring.prec_cap
        assert op.apply(z).prec == want
        assert op.apply(USeries.monomial(2, M, 6)).prec == op.power(6).prec
        assert op.apply(USeries.one(2, M)).prec == ring.prec_cap
        assert np.array_equal(op.apply(z).coeffs, (op.power(3) + op.power(6)).coeffs)


class TestDescentStep:
    def test_un_step_21(self, pipeline):
        """z = u at (2,1): the image has valuation 1 = 0*d + 1, so index 1
        carries a unit coefficient and one step lands on a unit."""
        pipe = pipeline(2, 1)
        M = pipe.config.u_precision
        z1, idx, _ = descent_step(USeries.monomial(2, M, 1), pipe.operator)
        assert idx == 1
        assert z1.weight() == 0

    def test_un_squared_step_21(self, pipeline):
        """z = u^2: image valuation 2 = 1*d + 0, index 0, weight 1 < 2."""
        pipe = pipeline(2, 1)
        M = pipe.config.u_precision
        z1, idx, _ = descent_step(USeries.monomial(2, M, 2), pipe.operator)
        assert idx == 0
        assert z1.weight() == 1

    def test_unit_rejected(self, pipeline):
        pipe = pipeline(2, 1)
        with pytest.raises(DescentInputError):
            descent_step(USeries.one(2, pipe.config.u_precision), pipe.operator)

    def test_precision_exhaustion_raises(self, pipeline):
        """An operator whose image is invisible at its precision must refuse
        rather than fabricate a zero."""
        pipe = pipeline(2, 1)
        ring = pipe.ring
        starved = DvrElement(ring, pipe.un_image_divided.coeffs, prec=1)
        op = ReducedPowerOperator(starved)
        with pytest.raises(PrecisionExhausted):
            descent_step(USeries.monomial(2, pipe.config.u_precision, 1), op)


class TestDescentRun:
    def test_unit_empty_trace(self, pipeline):
        pipe = pipeline(2, 1)
        z = USeries.one(2, pipe.config.u_precision)
        trace = descent_run(z, pipe.operator)
        assert trace.steps == []
        assert trace.terminal == z

    def test_un_single_step(self, pipeline):
        pipe = pipeline(2, 1)
        trace = descent_run(USeries.monomial(2, pipe.config.u_precision, 1), pipe.operator)
        assert len(trace.steps) == 1
        assert trace.terminal.weight() == 0

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_random_batch(self, pipeline, p, n):
        pipe = pipeline(p, n)
        M = pipe.config.u_precision
        rng = random.Random(77)
        for _ in range(30):
            w = rng.randint(1, 20)
            coeffs = [0] * w + [rng.randrange(p) for _ in range(M - w)]
            coeffs[w] = rng.randrange(1, p)
            z = USeries(p, coeffs)
            trace = descent_run(z, pipe.operator)
            ws = trace.weights
            assert all(b < a for a, b in zip(ws, ws[1:]))
            assert trace.terminal.weight() == 0
            assert len(trace.steps) <= w * pipe.ring.d

    def test_zero_rejected(self, pipeline):
        pipe = pipeline(2, 1)
        with pytest.raises(DescentInputError):
            descent_run(USeries.zero(2, pipe.config.u_precision), pipe.operator)


def test_weight_rule_witness():
    w = weight_rule_witness(2, 8)
    assert w["min_rule_holds"]
    assert not w["additive_rule_holds"]
    assert w["wt_sum"] == min(w["wt_f1"], w["wt_f2"])
