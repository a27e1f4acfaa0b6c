import random

import numpy as np
import pytest

from fglab.bigseries import build_reduced_law_data
from fglab.dvr import (
    DistinguishedPoly,
    DvrRing,
    WeightValue,
    eisenstein_check,
    reconstruction_defect,
    reduce_to_un,
    reduced_p_series,
    weierstrass_from_rows,
)
from fglab.errors import InexactDivision, NotPreparable
from fglab.fgl import ChromaticConfig, build_fgl
from fglab.scalars import USeries, reduce_mod_p


# -- small-cap reductions ----------------------------------------------------


class TestReduceToUn:
    def test_n1_kills_nothing(self, pipeline):
        # One (t, y-degree, x-degree) entry per term of F with a nonzero residue.
        F = pipeline(2, 1).law
        grid = reduce_to_un(F)
        assert F.addition.variables == ("x", "y", "u1")
        nonzero = {(e[2], e[1], e[0]) for e, c in F.addition.terms.items() if reduce_mod_p(c, 2)}
        assert set(grid) == nonzero
        assert grid[(0, 0, 1)] == 1 and grid[(0, 1, 0)] == 1

    def test_reduced_pseries_leading(self, pipeline):
        # [p](a) = u * a^(p^n) mod a^(p^n + 1)
        for (p, n) in [(2, 1), (3, 1), (2, 2)]:
            F = pipeline(p, n).law
            rows = reduced_p_series(F)
            low = {k: v for k, v in rows.items() if k[1] <= p**n}
            assert low == {(1, p**n): 1}

    def test_reduced_pseries_top(self, pipeline):
        # [p](a) = a^(p^(n+1)) mod (u, a^(p^(n+1) + 1))
        for (p, n) in [(2, 1), (2, 2)]:
            F = pipeline(p, n).law
            rows = reduced_p_series(F)
            top = {k: v for k, v in rows.items() if k[0] == 0 and k[1] <= p ** (n + 1)}
            assert top == {(0, p ** (n + 1)): 1}


# -- Weierstrass preparation ---------------------------------------------------


def gauss_solve_modp(p, A, b):
    A = [row[:] for row in A]
    b = b[:]
    nrows, ncols = len(A), len(A[0])
    piv_of_col = {}
    r = 0
    for c in range(ncols):
        piv = next((rr for rr in range(r, nrows) if A[rr][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        b[r], b[piv] = b[piv], b[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(v * inv) % p for v in A[r]]
        b[r] = (b[r] * inv) % p
        for rr in range(nrows):
            if rr != r and A[rr][c] % p:
                f = A[rr][c]
                A[rr] = [(v - f * A[r][k]) % p for k, v in enumerate(A[rr])]
                b[rr] = (b[rr] - f * b[r]) % p
        piv_of_col[c] = r
        r += 1
    for rr in range(r, nrows):
        assert b[rr] % p == 0, "inconsistent system"
    x = [0] * ncols
    for c, rr in piv_of_col.items():
        x[c] = b[rr] % p
    return x


def weierstrass_linear_oracle(p, rows, d, pole, M, depth):
    """Independent route: solve U * g = h level by level with dense linear
    algebra mod p (no Hensel splitting)."""
    a_cap = depth - pole
    J = a_cap - d
    h = [[0] * (a_cap + 1) for _ in range(M)]
    for (t, deg), v in rows.items():
        if t < M and 0 <= deg - pole <= a_cap:
            h[t][deg - pole] = v
    U = [h[0][d:] + [0] * d]
    B = [[0] * d]
    for m in range(1, M):
        rhs = list(h[m])
        for t in range(1, m):
            for i, bi in enumerate(B[t]):
                if bi:
                    for j, uj in enumerate(U[m - t]):
                        if uj and i + j <= a_cap:
                            rhs[i + j] -= bi * uj
        rhs = [v % p for v in rhs]
        nunk = d + J + 1
        Amat, bvec = [], []
        for ell in range(J + d + 1):
            row = [0] * nunk
            for i in range(d):
                j = ell - i
                if 0 <= j < len(U[0]):
                    row[i] = U[0][j] % p
            if 0 <= ell - d <= J:
                row[d + ell - d] = 1
            Amat.append(row)
            bvec.append(rhs[ell] % p if ell < len(rhs) else 0)
        x = gauss_solve_modp(p, Amat, bvec)
        B.append(x[:d])
        U.append(x[d:] + [0] * d)
    return B


class TestWeierstrass:
    def test_golden_21_precision8(self):
        """Full coefficient list of g at (2,1), M = 8: golden value frozen from
        the dense linear-algebra oracle, plus a live oracle comparison."""
        cfg = ChromaticConfig(2, 1, u_precision=8)
        data = build_reduced_law_data(cfg)
        fact = weierstrass_from_rows(2, data.p_series_a, 2, 2, 8, 8, depth=data.a_cap)
        g = fact.distinguished
        golden_b0 = (0, 1, 0, 0, 1, 0, 0, 1)  # u + u^4 + u^7
        golden_b1 = (0, 0, 0, 0, 0, 0, 0, 0)
        assert g.coefficients[0].coeffs == golden_b0
        assert g.coefficients[1].coeffs == golden_b1
        oracle = weierstrass_linear_oracle(
            2, data.p_series_a, 2, 2, 8, data.a_cap
        )
        assert [oracle[m][0] for m in range(8)] == list(golden_b0)
        assert [oracle[m][1] for m in range(8)] == list(golden_b1)

    @pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
    def test_oracle_agreement_low_precision(self, p, n):
        M = 6
        cfg = ChromaticConfig(p, n, u_precision=M)
        d = cfg.eisenstein_degree
        data = build_reduced_law_data(cfg)
        fact = weierstrass_from_rows(
            p, data.p_series_a, d, p**n, M, M, depth=data.a_cap
        )
        oracle = weierstrass_linear_oracle(p, data.p_series_a, d, p**n, M, data.a_cap)
        for i in range(d):
            got = list(fact.distinguished.coefficients[i].coeffs)
            want = [oracle[m][i] for m in range(M)]
            assert got == want, f"coefficient a^{i}"

    def test_invariants_and_reconstruction(self, pipeline):
        pipe = pipeline(2, 1)
        g = pipe.factorization.distinguished
        M = pipe.config.u_precision
        assert g.coefficients[g.degree] == USeries.one(2, M)
        assert g.coefficients[0].weight() == 1
        assert eisenstein_check(g)
        assert reconstruction_defect(pipe.factorization, pipe.data.p_series_a, M) == {}

    def test_determinism(self, pipeline):
        pipe = pipeline(2, 1)
        cfg = pipe.config
        fact2 = weierstrass_from_rows(
            2,
            pipe.data.p_series_a,
            cfg.eisenstein_degree,
            2,
            cfg.u_precision,
            cfg.u_precision,
            depth=pipe.data.a_cap,
        )
        assert fact2.distinguished == pipe.factorization.distinguished
        assert fact2.unit_rows == pipe.factorization.unit_rows

    def test_not_preparable_wrong_degree(self, pipeline):
        pipe = pipeline(2, 1)
        with pytest.raises(NotPreparable):
            weierstrass_from_rows(
                2, pipe.data.p_series_a, 4, 2, 8, 8, depth=pipe.data.a_cap
            )

    def test_not_preparable_wrong_pole(self, pipeline):
        pipe = pipeline(2, 1)
        with pytest.raises(NotPreparable):
            weierstrass_from_rows(
                2, pipe.data.p_series_a, 2, 1, 8, 8, depth=pipe.data.a_cap
            )

    def test_multiseries_surface(self):
        """The small-cap reduced p-series, as rows to its formal cap, prepares
        and agrees with the deep route on the levels it can honestly solve."""
        cfg = ChromaticConfig(2, 1, formal_cap=10)  # depth 10 supports 3 levels
        F = build_fgl(cfg)
        fact_small = weierstrass_from_rows(
            2, reduced_p_series(F), 2, 2, 3, 3, depth=F.config.formal_cap
        )
        data = build_reduced_law_data(cfg)
        fact_deep = weierstrass_from_rows(
            2, data.p_series_a, 2, 2, 32, 32, depth=data.a_cap
        )
        lvl = fact_small.distinguished.levels
        assert lvl == 3
        for i in range(2):
            assert (
                fact_small.distinguished.coefficients[i].coeffs[:lvl]
                == fact_deep.distinguished.coefficients[i].coeffs[:lvl]
            )

    @pytest.mark.parametrize("p,n,M,deeper", [(2, 1, 32, 40), (3, 1, 15, 24), (2, 2, 13, 24)])
    def test_unit_terms_agree_with_deeper_run(self, p, n, M, deeper):
        """The unit is unique, so a run at more u-levels has the same terms on
        the whole region the shallower one claims, t < levels and
        t*d + j <= valid_vbound, including the top band
        t*d + j > valid_vbound - d that no reconstruction check reads.  The
        unit's valuations t*d + j lie in one class mod p^(n+1) - 1, so the
        band holds nonzero terms only at some M: at (3,1) and (2,2) it holds
        none at M = 16, some at M = 15 and M = 13."""

        def factorization(levels):
            data = build_reduced_law_data(ChromaticConfig(p, n, u_precision=levels))
            return weierstrass_from_rows(
                p, data.p_series_a, data.d, p**n, levels, levels, depth=data.a_cap
            )

        fact, deep = factorization(M), factorization(deeper)
        d, vb = fact.distinguished.degree, fact.valid_vbound
        assert deep.valid_vbound > vb
        assert fact.unit_rows == {
            (t, j): r for (t, j), r in deep.unit_rows.items() if t < M and t * d + j <= vb
        }
        assert any(t * d + j > vb - d for t, j in fact.unit_rows)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1)])
    def test_fewer_levels_keep_unit_terms(self, pipeline, p, n):
        """Solving fewer levels from the same rows gives the same unit terms on
        its own region t*d + j <= valid_vbound, including the top terms no
        reconstruction check reaches."""
        pipe = pipeline(p, n)
        d, M = pipe.ring.d, pipe.config.u_precision
        for levels in (3, 8):
            fact = weierstrass_from_rows(
                p, pipe.data.p_series_a, d, p**n, M, levels, depth=pipe.data.a_cap
            )
            assert fact.unit_rows == {
                (t, j): r
                for (t, j), r in pipe.factorization.unit_rows.items()
                if t < levels and t * d + j <= fact.valid_vbound
            }

    def test_too_few_levels_rejected(self, pipeline):
        F = pipeline(2, 1).law
        with pytest.raises(NotPreparable):
            weierstrass_from_rows(
                2, reduced_p_series(F), 2, 2, 1, 1, depth=F.config.formal_cap
            )


class TestEisenstein:
    def test_true_for_prepared(self, pipeline):
        assert eisenstein_check(pipeline(2, 1).factorization.distinguished)

    def test_constant_term_zero_rejected(self):
        # g = a^d: constant term in (u^2) -- not distinguished
        M = 4
        coeffs = (
            USeries.zero(2, M),
            USeries.zero(2, M),
            USeries.one(2, M),
        )
        with pytest.raises(NotPreparable):
            DistinguishedPoly(p=2, degree=2, coefficients=coeffs, levels=M)

    def test_constant_term_u_squared_rejected(self):
        M = 4
        coeffs = (
            USeries.monomial(2, M, 2),  # u^2
            USeries.zero(2, M),
            USeries.one(2, M),
        )
        with pytest.raises(NotPreparable):
            DistinguishedPoly(p=2, degree=2, coefficients=coeffs, levels=M)

    def test_unit_lower_coefficient_rejected(self):
        M = 4
        coeffs = (
            USeries.monomial(2, M, 1),
            USeries.one(2, M),  # unit coefficient of a^1
            USeries.one(2, M),
        )
        with pytest.raises(NotPreparable):
            DistinguishedPoly(p=2, degree=2, coefficients=coeffs, levels=M)


# -- the valuation ring --------------------------------------------------------


def schoolbook_mul_oracle(ring, x, y):
    """Brute-force product: full polynomial multiplication followed by long
    division by the monic g, all on coefficient rows."""
    d, p, M = ring.d, ring.p, ring.precision

    def mul(a, b):
        return np.convolve(a, b)[:M] % p

    g = [np.array(c.coeffs) for c in ring.g.coefficients]
    full = np.zeros((2 * d - 1, M), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            full[i + j] = (full[i + j] + mul(x.coeffs[i], y.coeffs[j])) % p
    for k in range(2 * d - 2, d - 1, -1):
        c = full[k].copy()
        if not c.any():
            continue
        # subtract c * a^(k - d) * g
        for i in range(d + 1):
            full[k - d + i] = (full[k - d + i] - mul(c, g[i])) % p
    return full[:d]


def eisenstein_ring(p, d, M, seed):
    """R for a random g, Eisenstein at (u), built directly; no pipeline."""
    rng = random.Random(seed)
    low = [[0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(M - 2)]]
    low += [[0] + [rng.randrange(p) for _ in range(M - 1)] for _ in range(d - 1)]
    coeffs = tuple(USeries(p, c) for c in low) + (USeries.one(p, M),)
    return DvrRing(DistinguishedPoly(p=p, degree=d, coefficients=coeffs, levels=M))


def a_pow_oracle(ring, kmax):
    """a^k mod g for k <= kmax, one d-row step per k: a times the last row,
    the a^d overflow replaced by -(g_0 + ... + g_(d-1) a^(d-1)) through d
    separate truncated convolutions."""
    p, d, M = ring.p, ring.d, ring.precision
    table = [np.zeros((d, M), dtype=np.int64) for _ in range(d)]
    for k in range(d):
        table[k][k, 0] = 1
    prev = table[-1]
    for _ in range(d, kmax + 1):
        top = prev[-1]
        prev = np.roll(prev, 1, axis=0)
        prev[0] = 0
        for i, gi in enumerate(ring._g_low):
            prev[i] -= np.convolve(top, gi)[:M]
        prev %= p
        table.append(prev)
    return np.stack(table)


class TestDvrArithmetic:
    def test_a_pow_table_matches_row_oracle(self, pipeline):
        """The a^k table, extended far past 2d, against the step-by-step
        oracle on the (2,2) ring and on a synthetic p = 5, d = 20 one."""
        for ring in (pipeline(2, 2).ring, eisenstein_ring(5, 20, 8, seed=3)):
            kmax = 12 * ring.d
            ring._ensure_pow(kmax)
            assert np.array_equal(ring._a_pow[: kmax + 1], a_pow_oracle(ring, kmax))

    def test_mul_identity(self, pipeline):
        ring = pipeline(2, 1).ring
        x = pipeline(2, 1).psi + ring.un()
        assert x * ring.one() == x

    def test_top_basis_product_vs_schoolbook(self, pipeline):
        for cfg in [(2, 1), (3, 1), (2, 2)]:
            ring = pipeline(*cfg).ring
            d = ring.d
            lhs = ring.monomial(0, d - 1) * ring.a()
            want = schoolbook_mul_oracle(ring, ring.monomial(0, d - 1), ring.a())
            assert np.array_equal(lhs.coeffs, want)
            assert lhs.valuation() == d

    def test_mul_matches_schoolbook_random(self, pipeline):
        """On the (2,2) ring and on a synthetic p = 5, d = 20, M = 8 one."""
        for ring in (pipeline(2, 2).ring, eisenstein_ring(5, 20, 8, seed=3)):
            rng = random.Random(17)
            d, p = ring.d, ring.p
            for _ in range(10):
                def rand_elt():
                    return ring.from_rows(
                        {
                            (rng.randrange(4), rng.randrange(2 * d)): rng.randrange(1, p)
                            for _ in range(5)
                        }
                    )
                x, y = rand_elt(), rand_elt()
                assert np.array_equal((x * y).coeffs, schoolbook_mul_oracle(ring, x, y))

    def test_valuation_additive_below_horizon(self, pipeline):
        ring = pipeline(3, 1).ring
        rng = random.Random(23)
        for _ in range(20):
            x = ring.monomial(rng.randrange(3), rng.randrange(ring.d), rng.randrange(1, 3))
            y = ring.monomial(rng.randrange(3), rng.randrange(ring.d), rng.randrange(1, 3))
            vx, vy = x.valuation(), y.valuation()
            if vx + vy < ring.prec_cap:
                assert (x * y).valuation() == vx + vy

    def test_valuation_examples(self, pipeline):
        ring = pipeline(2, 1).ring  # d = 2
        assert ring.a().valuation() == 1
        assert ring.a().weight() == WeightValue(1, 2)
        assert ring.un().valuation() == 2
        # u * a^3 reduces mod g but keeps valuation 1*d + 3 = 5
        e = ring.un() * ring.a() ** 3
        assert e.valuation() == 5
        assert ring.zero().valuation() is None
        assert ring.zero().weight().as_fraction() is None

    def test_weight_rendering(self, pipeline):
        ring = pipeline(2, 1).ring
        assert ring.a().weight().render() == "1/2"
        assert ring.un().weight().render() == "1/1"

    def test_residue_field(self, pipeline):
        ring = pipeline(2, 1).ring
        x = (pipeline(2, 1).psi + ring.one()) * ring.from_int(1)
        assert x.residue_mod_m() in (0, 1)

    def test_divide_by_a_roundtrip(self, pipeline):
        ring = pipeline(3, 1).ring
        x = pipeline(3, 1).psi * ring.un()
        q = x.divide_by_a()
        diff = q * ring.a() - x
        assert diff.valuation() is None or diff.valuation() >= q.prec

    def test_divide_by_a_rejects_units(self, pipeline):
        ring = pipeline(2, 1).ring
        with pytest.raises(InexactDivision):
            ring.one().divide_by_a()

    def test_unit_inverse(self, pipeline):
        ring = pipeline(2, 2).ring
        w = pipeline(2, 2).psi.unit_part()[0]
        defect = w * w.unit_inverse() - ring.one()
        assert defect.valuation() is None

    def test_divide_exact(self, pipeline):
        pipe = pipeline(2, 1)
        ring = pipe.ring
        q = ring.un().divide_exact(pipe.psi)
        check = q * pipe.psi - ring.un()
        assert check.valuation() is None or check.valuation() >= q.prec
        with pytest.raises(InexactDivision):
            ring.a().divide_exact(ring.un())


class TestCombine:
    @pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
    def test_from_rows_matches_ring_arithmetic(self, pipeline, p, n):
        """from_rows against sum r * u^t * a^deg formed by ring products, on
        grids reaching a-degree 3d - 1 (past the first 2d rows of the a^k
        table) and t >= M (terms that vanish at this precision).  A fresh
        ring, so the table is extended here."""
        ring = DvrRing(pipeline(p, n).ring.g)
        d, M = ring.d, ring.precision
        rng = random.Random(61)
        for _ in range(6):
            rows = {
                (rng.randrange(M + 3), rng.randrange(3 * d)): rng.randrange(1, p)
                for _ in range(12)
            }
            rows[(rng.randrange(M), 3 * d - 1)] = 1
            rows[(M + 1, rng.randrange(3 * d))] = 1
            want = ring.zero()
            for (t, deg), r in rows.items():
                want = want + ring.monomial(t, 0, r) * ring.a() ** deg
            got = ring.from_rows(rows)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.prec == ring.prec_cap
            assert ring.from_rows(rows, prec=7).prec == 7


class TestPsi:
    def test_p2_psi_is_a(self, pipeline):
        pipe = pipeline(2, 1)
        assert pipe.psi == pipe.ring.a()
        assert pipe.psi.valuation() == 1

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
    def test_weight_and_negative_product(self, pipeline, p, n):
        pipe = pipeline(p, n)
        d = pipe.config.eisenstein_degree
        from fractions import Fraction

        assert pipe.psi.weight().as_fraction() == Fraction(p - 1, d)
        assert pipe.psi == pipe.psi_negative
        assert not pipe.psi.is_zero()
