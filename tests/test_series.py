import random
from fractions import Fraction

import pytest

from fglab.errors import (
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    VariableMismatch,
)
from fglab.series import MultiSeries, PrimeFieldRing, RationalRing

QQ = RationalRing()


def xy(name, cap=6):
    return MultiSeries.variable(QQ, ("x", "y"), name, cap)


class TestMul:
    def test_difference_of_squares(self):
        x, y = xy("x"), xy("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_unit(self):
        s = xy("x") + xy("y") * xy("y")
        one = MultiSeries.one(QQ, ("x", "y"), 6)
        assert s * one == s

    def test_cap_truncation(self):
        D = 5
        x = MultiSeries.variable(QQ, ("x",), "x", D)
        top = x**D
        assert not top.is_zero()
        assert (top * x).is_zero()

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            xy("x", 6) * MultiSeries.variable(QQ, ("x", "z"), "x", 6)

    def test_mul_associative_commutative_random(self):
        rng = random.Random(11)
        vars_, cap = ("x", "y"), 5
        def rand_series():
            terms = {}
            for _ in range(5):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return MultiSeries(QQ, vars_, cap, None, terms)
        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestCompose:
    def test_square_of_sum(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 6)
        outer = x * x
        sub = xy("x") + xy("y")
        got = outer.compose({"x": sub})
        want = xy("x") ** 2 + xy("x") * xy("y") * MultiSeries.constant(
            QQ, Fraction(2), ("x", "y"), 6
        ) + xy("y") ** 2
        assert got == want

    def test_substitute_zero_gives_constant(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 6)
        outer = x * x + MultiSeries.constant(QQ, Fraction(7), ("x",), 6)
        got = outer.compose({"x": MultiSeries.zero(QQ, ("x",), 6)})
        assert got == MultiSeries.constant(QQ, Fraction(7), ("x",), 6)

    def test_nonzero_constant_rejected(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 6)
        with pytest.raises(NonzeroConstantTerm):
            x.compose({"x": MultiSeries.one(QQ, ("x",), 6)})

    def test_compose_associative_random(self):
        rng = random.Random(5)
        cap = 6
        def rand_unit_linear():
            terms = {(1,): Fraction(rng.choice([1, -1, 2]))}
            for e in range(2, 5):
                terms[(e,)] = Fraction(rng.randint(-3, 3))
            return MultiSeries(QQ, ("x",), cap, None, terms)
        for _ in range(10):
            f, g, h = (rand_unit_linear() for _ in range(3))
            assert f.compose({"x": g}).compose({"x": h}) == f.compose(
                {"x": g.compose({"x": h})}
            )


def catalan_reversion_oracle(cap: int) -> MultiSeries:
    """Independent oracle for the reversion of s = x + x^2: iterate
    r -> x - (s(r) - x) ... no -- fixed point of r = x - r^2 shifted; spelled
    as the contraction r_{k+1} = x - (s(r_k) - r_k) applied to convergence."""
    x = MultiSeries.variable(QQ, ("x",), "x", cap)
    s = x + x * x
    r = x
    for _ in range(cap + 1):
        # s(r) - r = r^2; solving s(r) = x means r = x - r^2.
        r = x - r * r
    return r


class TestReversion:
    def test_identity(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 6)
        assert x.reversion() == x

    def test_catalan_signs(self):
        cap = 6
        x = MultiSeries.variable(QQ, ("x",), "x", cap)
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
        x = MultiSeries.variable(QQ, ("x",), "x", cap)
        for _ in range(50):
            terms = {(1,): Fraction(rng.choice([1, -1, 2, 3]))}
            for e in range(2, cap + 1):
                terms[(e,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            s = MultiSeries(QQ, ("x",), cap, None, terms)
            r = s.reversion()
            assert r.compose({"x": s}) == x
            assert s.compose({"x": r}) == x

    def test_zero_linear_rejected(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 4)
        with pytest.raises(NonUnitLinearCoefficient):
            (x * x).reversion()

    def test_constant_rejected(self):
        x = MultiSeries.variable(QQ, ("x",), "x", 4)
        one = MultiSeries.one(QQ, ("x",), 4)
        with pytest.raises(NonzeroConstantTerm):
            (x + one).reversion()


class TestSerialization:
    def test_roundtrip_canonical(self):
        fp = PrimeFieldRing(5)
        s = MultiSeries(
            fp, ("x", "u1"), 5, 8,
            {(2, 1): fp.from_int(3), (1, 0): fp.one, (0, 4): fp.from_int(2)},
        )
        payload = s.to_payload()
        back = MultiSeries.from_payload(
            fp, ("x", "u1"), 5, 8, payload, lambda t: fp.from_int(int(t))
        )
        assert back == s
        assert back.to_payload() == payload

    def test_canonical_order_graded_then_lex(self):
        s = MultiSeries(
            QQ, ("x", "y"), 6, None,
            {(2, 0): Fraction(1), (0, 2): Fraction(1), (1, 0): Fraction(1)},
        )
        exps = [e for e, _ in s.canonical_terms()]
        assert exps == [(1, 0), (0, 2), (2, 0)]
