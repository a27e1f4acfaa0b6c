import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from fglab.cli import main
from fglab.report import comparable_bytes
from fglab.schema import validate_report
from fglab.verify import parse_useries, run_descent_command, run_verify
from fglab.scalars import USeries
from fglab.series import MultiSeries

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "goldens")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


class TestExitCodes:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--p", "2", "--n", "1"]) == 0
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main(["verify", "--p", "2"]) == 2
        capsys.readouterr()

    def test_guard_refusal_and_force_flagpath(self, capsys):
        assert main(["verify", "--p", "5", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert "desk-scale" in err

    def test_unparseable_z(self, capsys):
        assert main(["descent", "--p", "2", "--n", "1", "--z", "zz!!"]) == 2
        capsys.readouterr()

    def test_descent_needs_input(self, capsys):
        assert main(["descent", "--p", "2", "--n", "1"]) == 2
        capsys.readouterr()

    def test_random_weight_past_precision_rejected(self, capsys):
        """The default --max-weight 20 cannot be drawn at M = 8: exit 2, not
        an IndexError from the draw; M - 1 is the largest weight allowed."""
        argv = ["descent", "--p", "2", "--n", "1", "--random", "5", "--u-prec"]
        assert main(argv + ["8"]) == 2
        assert "1..7" in capsys.readouterr().err
        assert main(argv + ["12", "--max-weight", "12"]) == 2
        assert "1..11" in capsys.readouterr().err
        assert main(argv + ["12", "--max-weight", "11"]) == 0
        capsys.readouterr()

    def test_descent_sample_past_the_horizon_is_flagged(self, capsys):
        """u^5 + u^7 is zero at M = 5: its row is horizon-flagged, it runs no
        trace, and the run passes."""
        assert main(["verify", "--p", "2", "--n", "2", "--u-prec", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert validate_report(report) == []
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["descent_un5_plus_un7"] == "horizon-flagged"
        assert status["descent_un"] == status["descent_un_squared"] == "pass"
        assert len(report["descent_traces"]) == 2

    def test_random_weight_zero_rejected(self, capsys):
        argv = ["descent", "--p", "2", "--n", "1", "--random", "5", "--max-weight", "0"]
        assert main(argv) == 2
        assert "1..31" in capsys.readouterr().err


class TestParseUseries:
    def test_forms(self):
        assert parse_useries("1", 2, 8) == USeries.one(2, 8)
        assert parse_useries("u", 2, 8) == USeries.monomial(2, 8, 1)
        assert parse_useries("u^3", 2, 8) == USeries.monomial(2, 8, 3)
        assert parse_useries("2*u^2 + u", 3, 8) == USeries.from_coeffs(
            3, 8, [0, 1, 2]
        )
        assert parse_useries("0,1,1", 2, 8) == USeries.from_coeffs(2, 8, [0, 1, 1])


class TestReports:
    def test_json_validates_and_filters(self, capsys):
        assert main(["verify", "--p", "2", "--n", "1", "--check", "wt_psi"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert validate_report(payload) == []
        assert [c["name"] for c in payload["checks"]] == ["wt_psi"]
        assert "wt(psi) = 1/2" in payload["checks"][0]["detail"]

    def test_unknown_filter_fails(self, capsys):
        assert main(["verify", "--p", "2", "--n", "1", "--check", "nonexistent"]) == 1
        capsys.readouterr()

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            main(["verify", "--p", "2", "--n", "1", "--out", str(target)]) == 0
        )
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert validate_report(payload) == []
        assert payload["epsilon_sign"] == 1

    def test_reused_pipeline_reports_no_stage_times(self):
        # A fresh interpreter starts with an empty pipeline cache, so the first
        # call builds whatever this process built before.
        code = (
            "import json, sys; from fglab.verify import run_verify; "
            "json.dump([run_verify(2, 1, u_prec=8).timing for _ in range(2)], sys.stdout)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=600,
        ).stdout
        first, second = json.loads(out)
        stages = {
            "fgl_build_ms",
            "fgl_congruences_ms",
            "bigseries_ms",
            "weierstrass_ms",
            "isogeny_ms",
        }
        assert stages <= set(first) and "pipeline" not in first
        assert second["pipeline"] == "reused" and not stages & set(second)
        for timing in (first, second):
            parts = [v for k, v in timing.items() if k.endswith("_ms") and k != "total_ms"]
            assert sum(parts) == timing["total_ms"]

    def test_text_format(self, capsys):
        assert main(["verify", "--p", "2", "--n", "1", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "epsilon_sign: +1" in out


class TestDescentCommand:
    def test_seeded_reproducible(self):
        r1 = run_descent_command(2, 1, random_count=10, max_weight=12, seed=7)
        r2 = run_descent_command(2, 1, random_count=10, max_weight=12, seed=7)
        assert comparable_bytes(r1.to_dict()) == comparable_bytes(r2.to_dict())
        r3 = run_descent_command(2, 1, random_count=10, max_weight=12, seed=8)
        assert comparable_bytes(r3.to_dict()) != comparable_bytes(r1.to_dict())

    def test_trace_contents(self):
        rep = run_descent_command(2, 1, z_exprs=["u^1"])
        assert len(rep.descent_traces) == 1
        tr = rep.descent_traces[0]
        assert tr["steps"][0]["weight"] == "1/1"
        assert tr["steps"][0]["chosen_index"] == 1
        assert rep.all_ok()

    def test_unit_empty_trace(self):
        rep = run_descent_command(2, 1, z_exprs=["1"])
        assert rep.descent_traces[0]["steps"] == []
        assert rep.all_ok()


class TestGoldens:
    def test_verify_golden_p2_n1(self):
        rep = run_verify(2, 1)
        got = comparable_bytes(rep.to_dict())
        with open(os.path.join(GOLDEN_DIR, "verify_p2_n1.json"), "rb") as fh:
            assert got == fh.read()

    def test_pseries_golden_p2_n1(self, capsys):
        from fglab.verify import run_pseries_command

        rep = run_pseries_command(2, 1)
        got = comparable_bytes(rep.to_dict())
        with open(os.path.join(GOLDEN_DIR, "pseries_p2_n1.json"), "rb") as fh:
            assert got == fh.read()

    def test_pseries_rows(self, capsys):
        assert main(["pseries", "--p", "2", "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {c["name"]: c for c in payload["checks"]}
        # row i=1 shows x
        assert "= x mod" in rows["pseries_row_i1_k1"]["detail"]
        # row i=p, k=n shows u * x^(p^n)
        assert "x^2*u1" in rows["pseries_row_i2_k1"]["detail"].replace(" ", "")

    def test_pseries_checks_rows_beyond_verify_range(self, capsys, monkeypatch):
        """[7](x) lies past the p^2 + 1 = 5 multiples that verify checks at
        (2,1); a wrong [7](x) must still fail its pseries rows."""
        import fglab.fgl

        real = fglab.fgl.i_series

        def wrong_seven(F, i):
            s = real(F, i)
            if i != 7:
                return s
            x2 = MultiSeries(s.variables, s.formal_cap, {(2, 0): Fraction(1)})
            return s + x2  # adds x^2 with no u factor

        monkeypatch.setattr(fglab.fgl, "i_series", wrong_seven)
        assert main(["pseries", "--p", "2", "--n", "1", "--i-max", "7"]) == 1
        rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert rows["pseries_row_i7_k1"]["status"] == "fail"
        assert rows["pseries_row_i7_top"]["status"] == "fail"
        assert rows["pseries_row_i6_k1"]["status"] == "pass"
        assert rows["pseries_row_i6_top"]["status"] == "pass"

    def test_pseries_negative_i_max_is_usage_error(self, capsys):
        assert main(["pseries", "--p", "2", "--n", "1", "--i-max", "-1"]) == 2
        assert "--i-max" in capsys.readouterr().err


def test_package_exports_resolve():
    import fglab

    assert len(set(fglab.__all__)) == len(fglab.__all__)
    missing = [name for name in fglab.__all__ if not hasattr(fglab, name)]
    assert not missing


class TestFailureClassification:
    """A failure inside the computation is an FglabError and exits 1; a bad
    argument stays a ValueError and exits 2."""

    def test_computation_errors_are_fglab_errors(self, pipeline):
        from fglab.errors import FglabError

        one = USeries.one(2, 4)
        x = MultiSeries.variable(("x",), "x", 4)
        cases = [
            lambda: pipeline(2, 1).ring.one() ** -1,
            lambda: one + USeries.one(3, 4),
            lambda: one**-1,
            lambda: x**-1,
        ]
        for case in cases:
            with pytest.raises(FglabError) as info:
                case()
            assert not isinstance(info.value, ValueError)

    def test_computation_error_exits_one(self, monkeypatch, capsys):
        import fglab.cli

        def failing(*args, **kwargs):
            return USeries.one(2, 4) ** -1

        monkeypatch.setattr(fglab.cli, "run_verify", failing)
        assert main(["verify", "--p", "2", "--n", "1"]) == 1
        assert "NegativePower" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "4", "--n", "1"],
            ["verify", "--p", "2", "--n", "0"],
            ["pseries", "--p", "2", "--n", "1", "--i-max", "-1"],
            ["descent", "--p", "2", "--n", "1", "--random", "1", "--max-weight", "40"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err


def test_pseries_shares_the_pipeline_law(monkeypatch):
    """One law per configuration: a verify then a pseries build it once, the
    pseries bytes match a freshly built law's, and a pipeline that finds the
    law cached does not report the build's time as fgl_build_ms."""
    import time
    from functools import lru_cache

    import fglab.verify
    from fglab.verify import run_pseries_command

    calls = []
    real = fglab.verify.build_fgl

    def counting(cfg):
        calls.append(cfg)
        time.sleep(0.3)
        return real(cfg)

    def fresh_caches():
        for name in ("certified_law", "build_pipeline"):
            fn = getattr(fglab.verify, name).__wrapped__
            monkeypatch.setattr(fglab.verify, name, lru_cache(maxsize=8)(fn))

    monkeypatch.setattr(fglab.verify, "build_fgl", counting)
    fresh_caches()
    run_verify(2, 2)
    shared = comparable_bytes(run_pseries_command(2, 2).to_dict())
    assert len(calls) == 1
    fresh_caches()
    assert comparable_bytes(run_pseries_command(2, 2).to_dict()) == shared
    assert len(calls) == 2
    timing = run_verify(2, 2).timing
    assert len(calls) == 2 and timing["fgl_build_ms"] < 300
