from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fglab.errors import InexactDivision, NotPIntegral, PrecisionMismatch
from fglab.scalars import (
    USeries,
    is_p_integral,
    reduce_mod_p,
    validate_prime,
)


class TestPrimeValidation:
    def test_accepts_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 17):
            assert validate_prime(p) == p

    def test_rejects_composites_and_large(self):
        with pytest.raises(ValueError):
            validate_prime(9)
        with pytest.raises(ValueError):
            validate_prime(1)
        with pytest.raises(ValueError):
            validate_prime(19)


class TestReduceModP:
    def test_minus_three_mod_two(self):
        assert reduce_mod_p(-3, 2) == 1

    def test_half_mod_three(self):
        # inverse of 2 mod 3 is 2
        assert reduce_mod_p(Fraction(1, 2), 3) == 2

    def test_half_mod_two_raises(self):
        with pytest.raises(NotPIntegral):
            reduce_mod_p(Fraction(1, 2), 2)

    def test_p_valuation(self):
        assert is_p_integral(Fraction(7, 6), 5)
        assert not is_p_integral(Fraction(7, 10), 5)

    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_multiplicative(self, q1, q2, p):
        if not (is_p_integral(q1, p) and is_p_integral(q2, p)):
            return
        assert reduce_mod_p(q1 * q2, p) == reduce_mod_p(q1, p) * reduce_mod_p(q2, p) % p


def useries(p=2, M=6, coeffs=(1, 1)):
    return USeries.from_coeffs(p, M, coeffs)


class TestUSeries:
    def test_char_two_square(self):
        # (1 + u)^2 = 1 + u^2 at p = 2
        s = useries(2, 4, (1, 1))
        assert s * s == useries(2, 4, (1, 0, 1, 0))

    def test_additive_identity(self):
        z = useries(3, 5, (2, 0, 1))
        assert z + USeries.zero(3, 5) == z

    def test_truncation_horizon(self):
        M = 6
        u = USeries.monomial(2, M, 1)
        top = USeries.monomial(2, M, M - 1)
        assert (u * top).is_zero()

    def test_precision_mismatch(self):
        with pytest.raises(PrecisionMismatch):
            useries(2, 4) * useries(2, 5)

    @given(
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(0, 6), min_size=8, max_size=8),
        st.lists(st.integers(0, 6), min_size=8, max_size=8),
        st.lists(st.integers(0, 6), min_size=8, max_size=8),
    )
    def test_ring_axioms(self, p, a, b, c):
        x, y, z = (USeries.from_coeffs(p, 8, v) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_weight_additive_below_horizon(self, p, t1, t2, c1, c2):
        M = 12
        x = USeries.monomial(p, M, t1, c1) + USeries.monomial(p, M, t1 + 2, 1)
        y = USeries.monomial(p, M, t2, c2)
        if x.weight() is None or y.weight() is None:
            return
        if x.weight() + y.weight() < M:
            assert (x * y).weight() == x.weight() + y.weight()

    def test_inverse(self):
        s = useries(3, 8, (2, 1, 0, 2))
        assert s * s.inverse() == USeries.one(3, 8)
        with pytest.raises(ZeroDivisionError):
            USeries.monomial(3, 8, 1).inverse()

    def test_divide_by_u(self):
        s = USeries.monomial(5, 6, 2, 3)
        q = s.divide_by_u(2)
        assert q == USeries.monomial(5, 6, 0, 3)
        with pytest.raises(InexactDivision):
            USeries.one(5, 6).divide_by_u(1)

    def test_weight_and_render(self):
        s = USeries.monomial(2, 10, 5) + USeries.monomial(2, 10, 7)
        assert s.weight() == 5
        assert s.render() == "u^5 + u^7"
        assert USeries.zero(2, 4).weight() is None
