import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.errors import InexactDivision, NeitherSignHolds, PrecisionExhausted
from fglab.isogeny import (
    FracElement,
    equal_within_prec,
    sign_check,
)
from fglab.verify import build_pipeline


class TestFracElement:
    def test_normalization(self, pipeline):
        ring = pipeline(2, 1).ring
        # (u * a) / a normalizes to u with shift 0
        e = FracElement(ring.un() * ring.a(), shift=1)
        assert e.shift == 0
        assert e.num == ring.un()
        assert e.is_integral

    def test_zero_normalizes_fully(self, pipeline):
        ring = pipeline(2, 1).ring
        e = FracElement(ring.zero(), shift=3)
        assert e.shift == 0
        assert e.is_integral
        assert e.num.prec == ring.prec_cap - 3

    def test_residual_pole(self, pipeline):
        ring = pipeline(2, 1).ring
        e = FracElement(ring.one(), shift=2)
        assert e.shift == 2
        assert not e.is_integral
        with pytest.raises(Exception):
            e.as_dvr()

    def test_arithmetic_and_eq(self, pipeline):
        ring = pipeline(2, 1).ring
        a = FracElement(ring.a())
        x = FracElement(ring.un(), shift=1)  # u / a
        y = x * a  # = u
        assert y == FracElement(ring.un())
        assert (x + x) == FracElement(ring.un() + ring.un(), shift=1)


class TestNormCoordinate:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_zero_constant_and_linear_valuation(self, pipeline, p, n):
        pipe = pipeline(p, n)
        f = pipe.norm.f_coeffs
        assert f[0].is_zero()
        assert f[1].valuation() == p - 1

    def test_linear_coefficient_is_psi(self, pipeline):
        for cfg in [(2, 1), (3, 1), (2, 2)]:
            pipe = pipeline(*cfg)
            eq_plus, _ = equal_within_prec(pipe.norm.f_coeffs[1], pipe.psi)
            assert eq_plus

    def test_p2_factor_structure(self, pipeline):
        """At p = 2, f = x * (x -_F a): the x^2 coefficient is a unit and the
        linear coefficient is the inverse multiple of a."""
        pipe = pipeline(2, 1)
        f = pipe.norm.f_coeffs
        assert f[2].valuation() == 0
        c1 = pipe.ring.from_rows(pipe.data.series_a[-1])
        eq, _ = equal_within_prec(f[1], c1)
        assert eq


class TestQuotientPSeries:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_identity_and_integrality(self, pipeline, p, n):
        pipe = pipeline(p, n)
        for v, prec in pipe.norm.residual_defects:
            assert v is None or v >= prec
        assert all(pipe.norm.quotient.integral)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_vanishing_below_pn(self, pipeline, p, n):
        pipe = pipeline(p, n)
        q = pipe.norm.quotient.coefficients
        for j in range(1, p**n):
            assert q[j].is_zero(), f"y^{j} coefficient should vanish"

    def test_sequential_vanishing_at_22(self, pipeline):
        # the nontrivial case: the y^p coefficient at n = 2
        pipe = pipeline(2, 2)
        assert pipe.norm.quotient.coefficients[2].is_zero()


class TestUnImage:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_routes_agree_bit_exactly(self, pipeline, p, n):
        pipe = pipeline(p, n)
        agree, prec = equal_within_prec(
            pipe.un_image_extracted, pipe.un_image_divided
        )
        assert agree
        assert prec > (p - 1) + pipe.ring.d  # comfortably above the horizon

    def test_division_oracle_21(self, pipeline):
        """Brute-force route at (2,1): solve r * psi = u as an F_2-linear
        system on the (t, i) grid and compare with divide_exact."""
        pipe = pipeline(2, 1)
        ring = pipe.ring
        d, M = ring.d, 8  # compare the first 8 u-levels
        # multiplication-by-psi matrix on basis u^t a^i  (psi = a here)
        def mul_basis(t, i):
            return ring.monomial(t, i) * pipe.psi

        dim = d * M
        cols = []
        for t in range(M):
            for i in range(d):
                img = mul_basis(t, i)
                col = []
                for tt in range(M):
                    for ii in range(d):
                        col.append(int(img.coeffs[ii, tt]))
                cols.append(col)
        target = []
        un = ring.un()
        for tt in range(M):
            for ii in range(d):
                target.append(int(un.coeffs[ii, tt]))
        # gaussian solve mod 2 over the column space
        A = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        b = target[:]
        x = _gauss_mod2(A, b)
        r_oracle = ring.zero()
        idx = 0
        for t in range(M):
            for i in range(d):
                if x[idx]:
                    r_oracle = r_oracle + ring.monomial(t, i)
                idx += 1
        r = pipe.un_image_divided
        for i in range(d):
            assert r.coeffs[i, :M].tolist() == r_oracle.coeffs[i, :M].tolist()
        assert r.valuation() == 1

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_defining_identity(self, pipeline, p, n):
        pipe = pipeline(p, n)
        ring = pipe.ring
        prod = pipe.un_image_divided * pipe.psi ** (p**n - 1)
        ok, _ = equal_within_prec(prod, ring.un())
        assert ok

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_value_and_weight(self, pipeline, p, n):
        from fractions import Fraction

        pipe = pipeline(p, n)
        d = pipe.config.eisenstein_degree
        assert pipe.un_image_divided.valuation() == p - 1
        assert pipe.un_image_divided.weight().as_fraction() == Fraction(p - 1, d)

    def test_inexact_division_guard(self, pipeline):
        pipe = pipeline(2, 1)
        ring = pipe.ring
        with pytest.raises(InexactDivision):
            ring.a().divide_exact(ring.un())


class TestStarvedPrecision:
    def test_exhaustion_reported_not_masked(self):
        """A u-precision too small to certify the quotient coefficients must
        raise PrecisionExhausted, never report a fake pole or a fake zero."""
        from fglab.errors import PrecisionExhausted
        from fglab.verify import build_pipeline

        with pytest.raises(PrecisionExhausted):
            build_pipeline(2, 1, 0, 4)

    def test_translate_keeps_least_power_prec(self, pipeline):
        """Entry i of x +_F c is known to the least precision among the c^j it
        uses: prec(c^0) is the cap and prec(c^j) = prec(c) + (j - 1) val(c)."""
        from fglab.dvr import DvrElement
        from fglab.isogeny import slab_row_tables, translate_series

        pipe = pipeline(2, 1)
        ring, data = pipe.ring, pipe.data
        full = ring.from_rows(data.series_a[-1])
        c = DvrElement(ring, full.coeffs, prec=5)
        rows = slab_row_tables(data.slab, data.x_cap)
        out = translate_series(ring, rows, c, data.x_cap)
        v = c.valuation()

        def prec_of_power(j):
            return ring.prec_cap if j == 0 else min(ring.prec_cap, 5 + (j - 1) * v)

        for i, e in enumerate(out):
            assert e.prec == min((prec_of_power(j) for j in rows[i]), default=ring.prec_cap)
        assert min(e.prec for e in out) == 5
        assert [e.coeffs.tolist() for e in out] == [
            e.coeffs.tolist() for e in translate_series(ring, rows, full, data.x_cap)
        ]


class TestCrossPrecision:
    """Every monomial u^t a^i the lower-precision run claims (t*d + i below
    the element's prec) must match the higher-precision run: each Q_j, psi
    and both u-images."""

    def test_m32_agrees_with_m64_below_prec(self, pipeline):
        _assert_agree_below_prec(pipeline(2, 1), pipeline(2, 1, 64))

    def test_31_m32_agrees_with_m40_below_prec(self, pipeline):
        _assert_agree_below_prec(pipeline(3, 1), pipeline(3, 1, 40))

    @settings(max_examples=6, deadline=None)
    @given(st.sets(st.integers(3, 48), min_size=2, max_size=2).map(sorted))
    def test_21_agrees_across_random_precisions(self, precisions):
        """At (2,1) and any M1 < M2 <= 48, the M1 run either refuses with
        PrecisionExhausted (M1 = 3..5 do) or agrees with the M2 run on every
        claimed monomial, and on g mod u^M1.  M1 = 2 is left out: there the
        triangular solve claims a pole of Q_8 (IntegralityFailure) where it
        should run out of precision.  The builds bypass the pipeline cache,
        so that random M do not evict the stock pipelines."""
        m1, m2 = precisions
        try:
            low = build_pipeline.__wrapped__(2, 1, 0, m1)
        except PrecisionExhausted:
            assert m1 < 6
            return
        high = build_pipeline.__wrapped__(2, 1, 0, m2)
        _assert_agree_below_prec(low, high)
        assert [c.coeffs for c in low.ring.g.coefficients] == [
            c.coeffs[:m1] for c in high.ring.g.coefficients
        ]


def _assert_agree_below_prec(low, high):
    q_low = low.norm.quotient.coefficients
    q_high = high.norm.quotient.coefficients
    assert len(q_low) == len(q_high)
    pairs = [(f"Q_{j}", a.num, b.num) for j, (a, b) in enumerate(zip(q_low, q_high))]
    for name in ("psi", "un_image_extracted", "un_image_divided"):
        pairs.append((name, getattr(low, name), getattr(high, name)))
    for name, a, b in pairs:
        assert _terms_below(a, a.prec) == _terms_below(b, a.prec), name


def _terms_below(e, prec):
    d = e.ring.d
    return {
        (t, i): c
        for i, row in enumerate(e.coeffs.tolist())
        for t, c in enumerate(row)
        if c and t * d + i < prec
    }


class TestSign:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_epsilon_consistent(self, pipeline, p, n):
        pipe = pipeline(p, n)
        assert pipe.epsilon_extracted == pipe.epsilon_divided
        # Empirically the plus sign holds at every desk-scale configuration;
        # at p = 2 plus and minus coincide.
        assert pipe.epsilon_divided == 1

    def test_sign_check_raises_on_garbage(self, pipeline):
        pipe = pipeline(3, 1)
        ring = pipe.ring
        with pytest.raises(NeitherSignHolds):
            sign_check(pipe.un_image_divided + ring.one(), pipe.psi, 1)


def _gauss_mod2(A, b):
    n = len(A)
    ncols = len(A[0])
    piv = {}
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, n) if A[rr][c] & 1), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        b[r], b[pr] = b[pr], b[r]
        for rr in range(n):
            if rr != r and A[rr][c] & 1:
                A[rr] = [(v + w) & 1 for v, w in zip(A[rr], A[r])]
                b[rr] = (b[rr] + b[r]) & 1
        piv[c] = r
        r += 1
    for rr in range(r, n):
        assert b[rr] & 1 == 0
    x = [0] * ncols
    for c, rr in piv.items():
        x[c] = b[rr] & 1
    return x
