import random
from fractions import Fraction

import pytest

from fglab.errors import (
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    VariableMismatch,
)
from fglab.series import MultiSeries


def xy(name, cap=6):
    return MultiSeries.variable(("x", "y"), name, cap)


XYU = ("x", "y", "u1", "u2")


def rand_xyu(rng, cap, n_terms=8, constant=True):
    """A random series over (x, y, u1, u2): formal exponents up to the cap, so
    that many products land at the cap or just past it, and large u-exponents,
    which are never truncated."""
    terms = {}
    for _ in range(n_terms):
        e = (rng.randint(0, cap), rng.randint(0, cap), rng.randint(0, 40), rng.randint(0, 40))
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if not constant:
        terms.pop((0, 0, 0, 0), None)
        terms[(1, 0, 0, 0)] = Fraction(rng.choice([1, -1, 2]))
    return MultiSeries(XYU, cap, terms)


def naive_mul(a, b):
    """Every pair of terms, truncated afterwards by the constructor."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiSeries(a.variables, a.formal_cap, out)


def naive_compose(f, subs):
    """Term by term: c * s^i * t^j * (monomial of the variables kept), with *."""
    out = MultiSeries.zero(XYU, f.formal_cap)
    for e, c in f.terms.items():
        kept = tuple(0 if v in subs else ev for v, ev in zip(f.variables, e))
        term = MultiSeries(XYU, f.formal_cap, {kept: c})
        for v, ev in zip(f.variables, e):
            if v in subs:
                for _ in range(ev):
                    term = term * subs[v]
        out = out + term
    return out


class TestMul:
    def test_difference_of_squares(self):
        x, y = xy("x"), xy("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_cancelling_terms_dropped(self):
        """In (x + u1 y + u2)(x - u1 y) the two x y u1 terms cancel and leave
        no zero coefficient behind."""
        def mono(c, *e):
            return MultiSeries(XYU, 2, {e: Fraction(c)})

        a = mono(1, 1, 0, 0, 0) + mono(1, 0, 1, 1, 0) + mono(1, 0, 0, 0, 1)
        b = mono(1, 1, 0, 0, 0) - mono(1, 0, 1, 1, 0)
        got = a * b
        assert got.terms == {
            (2, 0, 0, 0): 1,
            (0, 2, 2, 0): -1,
            (1, 0, 0, 1): 1,
            (0, 1, 1, 1): -1,
        }
        assert (got - got).terms == {} and (a * b.scale(Fraction(0))).terms == {}

    def test_unit(self):
        s = xy("x") + xy("y") * xy("y")
        one = MultiSeries.one(("x", "y"), 6)
        assert s * one == s

    def test_cap_truncation(self):
        D = 5
        x = MultiSeries.variable(("x",), "x", D)
        top = x**D
        assert not top.is_zero()
        assert (top * x).is_zero()

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            xy("x", 6) * MultiSeries.variable(("x", "z"), "x", 6)

    def test_mul_associative_commutative_random(self):
        rng = random.Random(11)
        vars_, cap = ("x", "y"), 5
        def rand_series():
            terms = {}
            for _ in range(5):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return MultiSeries(vars_, cap, terms)
        at_cap = past_cap = 0
        for _ in range(25):
            for a, b, c in [
                (rand_series(), rand_series(), rand_series()),
                (rand_xyu(rng, 3), rand_xyu(rng, 3), rand_xyu(rng, 3)),
            ]:
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * b == naive_mul(a, b)
                for e1 in a.terms:
                    for e2 in b.terms:
                        d = a.formal_degree(e1) + a.formal_degree(e2)
                        at_cap += d == a.formal_cap
                        past_cap += d == a.formal_cap + 1
        assert at_cap > 100 and past_cap > 100


class TestCompose:
    def test_square_of_sum(self):
        x = MultiSeries.variable(("x",), "x", 6)
        outer = x * x
        sub = xy("x") + xy("y")
        got = outer.compose({"x": sub})
        want = xy("x") ** 2 + xy("x") * xy("y") * MultiSeries.constant(
            Fraction(2), ("x", "y"), 6
        ) + xy("y") ** 2
        assert got == want

    def test_substitute_zero_gives_constant(self):
        x = MultiSeries.variable(("x",), "x", 6)
        outer = x * x + MultiSeries.constant(Fraction(7), ("x",), 6)
        got = outer.compose({"x": MultiSeries.zero(("x",), 6)})
        assert got == MultiSeries.constant(Fraction(7), ("x",), 6)

    def test_nonzero_constant_rejected(self):
        x = MultiSeries.variable(("x",), "x", 6)
        with pytest.raises(NonzeroConstantTerm):
            x.compose({"x": MultiSeries.one(("x",), 6)})

    def test_compose_matches_term_by_term_random(self):
        rng = random.Random(7)
        for _ in range(15):
            f = rand_xyu(rng, 3)
            s, t = rand_xyu(rng, 3, 4, constant=False), rand_xyu(rng, 3, 4, constant=False)
            assert f.compose({"x": s, "y": t}) == naive_compose(f, {"x": s, "y": t})
            # y passes through as a formal variable, u1 and u2 as coefficients.
            assert f.compose({"x": s}) == naive_compose(f, {"x": s})

    def test_missing_target_variable_rejected(self):
        f = MultiSeries(("x", "u1"), 4, {(1, 0): Fraction(1), (1, 2): Fraction(3)})
        s = MultiSeries.variable(("x",), "x", 4)
        with pytest.raises(VariableMismatch):
            f.compose({"x": s})
        # A variable that appears with exponent 0 only need not exist there.
        g = MultiSeries(("x", "u1"), 4, {(2, 0): Fraction(1)})
        assert g.compose({"x": s}) == s * s

    def test_compose_associative_random(self):
        rng = random.Random(5)
        cap = 6
        def rand_unit_linear():
            terms = {(1,): Fraction(rng.choice([1, -1, 2]))}
            for e in range(2, 5):
                terms[(e,)] = Fraction(rng.randint(-3, 3))
            return MultiSeries(("x",), cap, terms)
        for _ in range(10):
            f, g, h = (rand_unit_linear() for _ in range(3))
            assert f.compose({"x": g}).compose({"x": h}) == f.compose(
                {"x": g.compose({"x": h})}
            )


def catalan_reversion_oracle(cap: int) -> MultiSeries:
    """Independent oracle for the reversion of s = x + x^2: iterate
    r -> x - (s(r) - x) ... no -- fixed point of r = x - r^2 shifted; spelled
    as the contraction r_{k+1} = x - (s(r_k) - r_k) applied to convergence."""
    x = MultiSeries.variable(("x",), "x", cap)
    s = x + x * x
    r = x
    for _ in range(cap + 1):
        # s(r) - r = r^2; solving s(r) = x means r = x - r^2.
        r = x - r * r
    return r


class TestReversion:
    def test_identity(self):
        x = MultiSeries.variable(("x",), "x", 6)
        assert x.reversion() == x

    def test_catalan_signs(self):
        cap = 6
        x = MultiSeries.variable(("x",), "x", cap)
        s = x + x * x
        r = s.reversion()
        # frozen from the independent fixed-point oracle: signed Catalans
        expected = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14, 6: -42}
        for deg, c in expected.items():
            assert r.coefficient(x=deg) == Fraction(c)
        assert r == catalan_reversion_oracle(cap)

    def test_roundtrip_random(self):
        rng = random.Random(1234)
        cap = 6
        x = MultiSeries.variable(("x",), "x", cap)
        for _ in range(50):
            terms = {(1,): Fraction(rng.choice([1, -1, 2, 3]))}
            for e in range(2, cap + 1):
                terms[(e,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            s = MultiSeries(("x",), cap, terms)
            r = s.reversion()
            assert r.compose({"x": s}) == x
            assert s.compose({"x": r}) == x

    def test_zero_linear_rejected(self):
        x = MultiSeries.variable(("x",), "x", 4)
        with pytest.raises(NonUnitLinearCoefficient):
            (x * x).reversion()

    def test_constant_rejected(self):
        x = MultiSeries.variable(("x",), "x", 4)
        one = MultiSeries.one(("x",), 4)
        with pytest.raises(NonzeroConstantTerm):
            (x + one).reversion()


class TestSerialization:
    def test_canonical_order_graded_then_lex(self):
        s = MultiSeries(
            ("x", "y"), 6,
            {(2, 0): Fraction(1), (0, 2): Fraction(1), (1, 0): Fraction(1)},
        )
        exps = [e for e, _ in s.canonical_terms()]
        assert exps == [(1, 0), (0, 2), (2, 0)]
