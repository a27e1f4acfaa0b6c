import dataclasses
import random
from fractions import Fraction

import pytest

import fglab.fgl
from fglab.cli import main
from fglab.errors import FglabError, IntegralityFailure
from fglab.fgl import (
    CheckRow,
    ChromaticConfig,
    build_fgl,
    c_poly,
    formal_inverse,
    gamma,
    i_series,
    reduce_series,
    verify_fgl_congruences,
)
from fglab.scalars import reduce_mod_p
from fglab.series import MultiSeries
from fglab.verify import run_pseries_command


class TestConfig:
    def test_defaults(self):
        cfg = ChromaticConfig(2, 1)
        assert cfg.formal_cap == 6
        assert cfg.eisenstein_degree == 2
        assert cfg.height == 2
        assert cfg.isogeny_x_cap == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ChromaticConfig(4, 1)
        with pytest.raises(ValueError):
            ChromaticConfig(2, 0)
        with pytest.raises(ValueError):
            ChromaticConfig(2, 1, formal_cap=3)  # below p^(n+1) + 1


class TestCPoly:
    def test_p2_m1(self):
        c = c_poly(2, 1)
        assert c.terms == {(1, 1): Fraction(-1)}

    def test_p3_m1(self):
        c = c_poly(3, 1)
        assert c.terms == {(2, 1): Fraction(-1), (1, 2): Fraction(-1)}

    def test_p2_m2(self):
        c = c_poly(2, 2)
        assert c.terms == {
            (3, 1): Fraction(-2),
            (2, 2): Fraction(-3),
            (1, 3): Fraction(-2),
        }

    def test_integrality(self):
        for (p, m) in [(2, 3), (3, 2), (5, 1), (7, 1)]:
            for coeff in c_poly(p, m).terms.values():
                assert coeff.denominator == 1


class TestGamma:
    def test_zero_and_one(self):
        for p, k in [(2, 1), (3, 2), (5, 1)]:
            assert gamma(0, k, p) == 0
            assert gamma(1, k, p) == 0

    def test_direct_value(self):
        assert gamma(3, 1, 2) == Fraction(-3)

    def test_integrality_fermat(self):
        for p in (2, 3, 5):
            for k in (1, 2):
                for i in range(12):
                    assert gamma(i, k, p).denominator == 1

    def test_gamma_p_is_one_mod_p(self):
        # oracle: direct computation at i = p over several (p, k)
        for p in (2, 3, 5, 7):
            for k in (1, 2):
                g = gamma(p, k, p)
                assert reduce_mod_p(g, p) == 1


class TestBuildFgl:
    def test_leading_congruence_21(self, pipeline):
        F = pipeline(2, 1).law
        # F = x + y + u1 * C_2(x,y) modulo (x,y)^3 with C_2 = -xy
        assert F.addition.coefficient(x=1) == 1
        assert F.addition.coefficient(y=1) == 1
        assert F.addition.coefficient(x=1, y=1, u1=1) == Fraction(-1)

    def test_top_congruence_mod_all_u(self, pipeline):
        F = pipeline(2, 1).law
        cfg = F.config
        killed = F.addition.substitute_zero(cfg.u_names).truncate_formal(3)
        # just x + y survives below degree p^(n+1)
        want = MultiSeries(
            ("x", "y"), 3, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        )
        assert killed == want

    def test_integrality_certified(self, pipeline):
        F = pipeline(3, 1).law
        for c in F.addition.terms.values():
            assert c.denominator % 3 != 0


class TestFormalInverse:
    def test_inverse_props(self, pipeline):
        F = pipeline(2, 1).law
        cfg = F.config
        iota = formal_inverse(F)
        assert iota.constant_term() == 0
        assert iota.coefficient(x=1) == Fraction(-1)
        # F(x, iota(x)) = 0 up to the cap
        xvars = iota.variables
        x = MultiSeries.variable(xvars, "x", cfg.formal_cap)
        assert F.addition.compose({"x": x, "y": iota}).is_zero()


class TestISeries:
    def test_one_is_x(self, pipeline):
        F = pipeline(2, 1).law
        s = i_series(F, 1)
        assert s.terms == {(1, 0): Fraction(1)}

    def test_two_series_congruence_21(self, pipeline):
        F = pipeline(2, 1).law
        s = i_series(F, 2)
        # [2](x) = 2x + u1*gamma(2,1)*x^2 mod (2, x^3); gamma(2,1) = -1 = 1 mod 2
        assert reduce_mod_p(s.coefficient(x=2, u1=1), 2) == 1
        assert s.coefficient(x=1) == 2

    def test_addition_of_multiples_oracle(self, pipeline):
        # oracle: independent recomputation of [i + j] via the recursion from
        # both sides must agree with F([i], [j])
        F = pipeline(2, 1).law
        rng = random.Random(3)
        for _ in range(6):
            i, j = rng.randint(-3, 3), rng.randint(0, 3)
            lhs = i_series(F, i + j)
            rhs = F.addition.compose({"x": i_series(F, i), "y": i_series(F, j)})
            assert lhs == rhs

    def test_composition_multiplicativity(self, pipeline):
        F = pipeline(2, 1).law
        for (i, j) in [(2, 2), (2, 3), (-1, 2)]:
            lhs = i_series(F, i).compose({"x": i_series(F, j)})
            assert lhs == i_series(F, i * j)


class TestCongruenceReport:
    def test_all_pass_21(self, pipeline):
        F = pipeline(2, 1).law
        rows = verify_fgl_congruences(F)
        assert all(r.ok for r in rows)
        by_name = {r.name: r for r in rows}
        assert "addition_congruence_k1" in by_name
        assert "addition_congruence_top" in by_name
        assert "iseries_congruence_i2_k1" in by_name
        # i = 0 and i = 1 rows pass vacuously
        assert by_name["iseries_congruence_i0_k1"].ok
        assert by_name["iseries_congruence_i1_k1"].ok
        # top case present: [p] = x^(p^(n+1)) mod (p, u, x^top)
        assert by_name["iseries_congruence_i2_top"].ok


class TestCertifiedOnce:
    def test_axiom_checks_run_once_per_law(self, monkeypatch):
        calls = []
        real = fglab.fgl.fgl_axiom_checks

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(fglab.fgl, "fgl_axiom_checks", counting)
        F = build_fgl(ChromaticConfig(2, 1))
        rows = verify_fgl_congruences(F)
        assert len(calls) == 1
        assert [r.name for r in rows[:4]] == [
            "fgl_unit_x", "fgl_unit_y", "fgl_symmetry", "fgl_associativity",
        ]
        assert all(r.ok for r in rows[:4])

    def test_failed_axiom_refuses_construction(self, monkeypatch):
        def failing(*args):
            return [
                CheckRow("fgl_unit_x", True),
                CheckRow("fgl_symmetry", False, defect="x^2*y"),
            ]

        monkeypatch.setattr(fglab.fgl, "fgl_axiom_checks", failing)
        with pytest.raises(IntegralityFailure, match=r"fgl_symmetry: x\^2\*y"):
            build_fgl(ChromaticConfig(2, 1))

    def test_axiom_rows_stay_out_of_hash_and_equality(self, pipeline):
        F = pipeline(2, 1).law
        G = dataclasses.replace(F, axiom_rows=())
        assert G == F
        assert hash(G) == hash(F)


def _patched_i_series(monkeypatch, i: int, edit):
    """Make fglab.fgl.i_series(F, i) return a series with terms edit(its terms)."""
    real = fglab.fgl.i_series

    def patched(F, j):
        s = real(F, j)
        if j != i:
            return s
        return MultiSeries(s.variables, s.formal_cap, edit(dict(s.terms)))

    monkeypatch.setattr(fglab.fgl, "i_series", patched)


class TestReduceSeries:
    def test_kills_then_reduces(self):
        s = MultiSeries(("x", "u1", "u2"), 4, {
            (1, 0, 0): Fraction(-1),
            (2, 1, 0): Fraction(1, 3),
            (2, 0, 1): Fraction(5),
            (3, 0, 1): Fraction(4),
        })
        assert reduce_series(s, 2, ["u1"]) == {(1, 0): 1, (2, 1): 1}
        assert reduce_series(s, 5, ["u1"]) == {(1, 0): 4, (3, 1): 4}

    def test_not_p_integral_raises(self):
        s = MultiSeries(("x", "u1"), 4, {(1, 0): Fraction(1), (2, 1): Fraction(1, 2)})
        with pytest.raises(FglabError):
            reduce_series(s, 2, [])

    def test_not_p_integral_exits_one(self, monkeypatch, capsys):
        _patched_i_series(monkeypatch, 2, lambda t: {**t, (2, 1): Fraction(1, 2)})
        assert main(["pseries", "--p", "2", "--n", "1", "--i-max", "2"]) == 1
        assert "not p-integral" in capsys.readouterr().err

    def test_dropped_term_defect_is_a_residue(self, monkeypatch):
        """[2](x) = 2x + u1*x^3 mod (3, x^4); without its u1*x^3 term the
        defect is 0 - 1 = 2 mod 3."""
        _patched_i_series(monkeypatch, 2, lambda t: {e: c for e, c in t.items() if e != (3, 1)})
        rep = run_pseries_command(3, 1, i_max=2)
        row = next(r for r in rep.checks if r.name == "pseries_row_i2_k1")
        assert row.status == "fail"
        assert row.detail == "[2](x) = 2*x mod (p, x^4)"
        assert row.defect == "2*x^3*u1"
