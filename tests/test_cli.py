import csv
import json
import math
import subprocess
import sys

import pytest

from driftrecords.cli import main

from conftest import FIXTURE_CSV


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


class TestProb:
    def test_finite_n(self, capsys):
        got = run_json(
            capsys, "prob", "--dist", "gumbel", "--c", "1", "--delta", "0",
            "--n", "5",
        )
        assert set(got) == {"value", "abs_error_bound", "truncation_n"}
        assert got["value"] == pytest.approx(0.6364086465588308, abs=1e-7)
        assert got["abs_error_bound"] < 1e-6

    def test_asymptotic_when_n_is_omitted(self, capsys):
        got = run_json(
            capsys, "prob", "--dist", "gumbel",
            "--c", str(math.log(2.0)), "--delta", "0",
        )
        assert got["value"] == pytest.approx(0.5, abs=1e-6)
        assert got["truncation_n"] >= 1

    def test_bad_distribution_exits_nonzero(self, capsys):
        rc, _, err = run(
            capsys, "prob", "--dist", "cauchy", "--c", "1", "--delta", "0",
        )
        assert rc == 1
        assert "error:" in err


class TestClosedForm:
    def test_gumbel_prob(self, capsys):
        got = run_json(
            capsys, "closed-form", "--model", "gumbel", "--quantity", "prob",
            "--c", "1", "--delta", "0", "--n", "5",
        )
        assert got == {"value": pytest.approx(0.6364086465588308, rel=1e-12)}

    def test_gumbel_argmax(self, capsys):
        got = run_json(
            capsys, "closed-form", "--model", "gumbel",
            "--quantity", "l-inf-argmax", "--c", "1",
        )
        assert set(got) == {"delta_star", "max_value"}
        assert got["delta_star"] == pytest.approx(-0.73016, abs=1e-4)
        assert got["max_value"] == pytest.approx(1.036337, abs=1e-5)

    def test_dagum_with_threshold_equal_to_trend(self, capsys):
        got = run_json(
            capsys, "closed-form", "--model", "dagum", "--quantity", "prob",
            "--q", "2", "--n", "10", "--delta-eq-c",
        )
        assert got["value"] == pytest.approx(0.14163790415395444, rel=1e-9)

    def test_pareto_dependence_index(self, capsys):
        got = run_json(
            capsys, "closed-form", "--model", "pareto", "--quantity", "l-n",
            "--delta", "0.5", "--n", "5",
        )
        assert got["value"] == pytest.approx(1.3212991812278136, rel=1e-6)

    def test_huge_trend_prints_a_value(self, capsys):
        got = run_json(
            capsys, "closed-form", "--model", "gumbel", "--quantity", "l-inf",
            "--c", "800", "--delta", "0.5",
        )
        assert got == {"value": pytest.approx(1.0, abs=1e-12)}

    def test_unexpected_failure_is_reported_without_traceback(
        self, capsys, monkeypatch
    ):
        from driftrecords import closed_form

        for exc in (OverflowError("math range error"), RuntimeError("boom")):
            def fail(*args, exc=exc):
                raise exc

            monkeypatch.setattr(closed_form, "gumbel_l_inf", fail)
            rc, out, err = run(
                capsys, "closed-form", "--model", "gumbel", "--quantity",
                "l-inf", "--c", "1", "--delta", "0",
            )
            assert rc == 1 and out == ""
            assert err.startswith("error:") and str(exc) in err
            assert "Traceback" not in err

    def test_missing_required_flag_exits_nonzero(self, capsys):
        rc, _, err = run(capsys, "closed-form", "--model", "gumbel")
        assert rc == 1
        assert "--delta" in err

    def test_undefined_quantity_for_model_exits_nonzero(self, capsys):
        rc, _, err = run(
            capsys, "closed-form", "--model", "pareto", "--quantity", "l-inf",
            "--delta", "1", "--n", "5",
        )
        assert rc == 1
        assert "pareto" in err


class TestCorr:
    def test_fields_and_closed_form_value(self, capsys):
        got = run_json(
            capsys, "corr", "--dist", "pareto1", "--c", "1",
            "--delta", "0.5", "--n", "5",
        )
        assert set(got) == {"l_n", "joint", "p_n", "p_n1", "branch",
                            "error_bounds"}
        assert got["l_n"] == pytest.approx(1.3212991812278136, abs=1e-5)
        assert got["branch"] == "NonnegativeDelta"
        assert got["joint"] <= min(got["p_n"], got["p_n1"]) + 1e-9
        assert set(got["error_bounds"]) == {"l_n", "joint"}

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_nonpositive_tolerance_exits_with_an_error(self, capsys, tol):
        rc, out, err = run(
            capsys, "corr", "--dist", "gumbel", "--c", "1",
            "--delta", "0.5", "--n", "5", "--tol", tol,
        )
        assert rc == 1
        assert out == ""
        assert "error:" in err and "tol must be positive" in err


class TestSimulate:
    def test_summary_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "counts.csv"
        got = run_json(
            capsys, "simulate", "--dist", "gumbel", "--c", "0.5",
            "--delta", "0", "--n", "200", "--reps", "25", "--seed", "7",
            "--dump", str(dump),
        )
        assert set(got) == {
            "n", "replications", "seed", "mean_rate", "rate_stderr",
            "mean_count", "stabilization_fraction",
        }
        assert got["n"] == 200 and got["replications"] == 25
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "count"]
        assert len(rows) == 26
        counts = [int(r[1]) for r in rows[1:]]
        assert sum(counts) / (25 * 200) == pytest.approx(got["mean_rate"])

    def test_workers_do_not_change_output(self, capsys):
        base = run_json(
            capsys, "simulate", "--dist", "normal", "--c", "0.2",
            "--delta", "0.1", "--n", "300", "--reps", "16", "--seed", "3",
        )
        threaded = run_json(
            capsys, "simulate", "--dist", "normal", "--c", "0.2",
            "--delta", "0.1", "--n", "300", "--reps", "16", "--seed", "3",
            "--workers", "4",
        )
        assert base == threaded

    SIM = ("simulate", "--dist", "gumbel", "--c", "0.5", "--delta", "0",
           "--n", "50", "--reps", "5", "--seed", "1")

    def test_burn_in_flag_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.SIM, "--burn-in", "5"])
        assert exc.value.code == 2
        assert "--burn-in" in capsys.readouterr().err

    def test_zero_workers_exits_with_an_error(self, capsys):
        rc, out, err = run(capsys, *self.SIM, "--workers", "0")
        assert rc == 1 and out == ""
        assert err.startswith("error: workers must be >= 1")

    def test_negative_seed_exits_with_an_error(self, capsys):
        rc, out, err = run(capsys, *self.SIM[:-1], "-1")
        assert rc == 1 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"


class TestVariance:
    def test_inline_flags(self, capsys):
        got = run_json(
            capsys, "variance", "--flags", "1,0,1,1,0,0,1,0", "--m", "2",
        )
        assert set(got) == {"sigma2", "m", "gammas", "floored"}
        assert got["m"] == 2
        assert len(got["gammas"]) == 3
        assert got["gammas"][0] == pytest.approx(0.5 * 0.5)

    def test_flags_from_file(self, capsys, tmp_path):
        p = tmp_path / "flags.txt"
        p.write_text("1,0,1,1\n0,0,1,0\n")
        got = run_json(capsys, "variance", "--flags", str(p), "--m", "2")
        inline = run_json(
            capsys, "variance", "--flags", "1,0,1,1,0,0,1,0", "--m", "2",
        )
        assert got == inline

    def test_bad_token_exits_nonzero(self, capsys):
        rc, _, err = run(capsys, "variance", "--flags", "1,0,2")
        assert rc == 1
        assert "entry 3" in err


class TestSigma2:
    def test_small_run(self, capsys):
        got = run_json(
            capsys, "sigma2", "--dist", "gumbel", "--c", "1", "--delta", "0",
            "--horizon", "400", "--burn-in", "200", "--lag-max", "10",
            "--reps", "40", "--seed", "1",
        )
        assert got["horizon"] == 400
        p = 1.0 - math.exp(-1.0)
        assert got["sigma2"] == pytest.approx(p * (1.0 - p), abs=0.08)


class TestAnalyze:
    def test_end_to_end_artifacts(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        got = run_json(
            capsys, "analyze", "--input", str(FIXTURE_CSV), "--delta", "-1",
            "--bootstrap", "2000", "--seed", "42", "--out", str(out),
        )
        on_disk = json.loads(out.read_text())
        assert on_disk == got
        assert got["n"] == 69
        assert 12 <= got["count"] <= 22
        assert got["record_count"] == 7
        assert got["sigma2_tilde"] == pytest.approx(0.337, abs=0.05)
        assert got["trend_fit"]["beta1"] == pytest.approx(0.0476, abs=0.02)
        assert got["bootstrap"]["reps"] == 2000
        assert len(got["interval"]) == 2

        with open(tmp_path / "rate_path.csv", newline="") as fh:
            rates = list(csv.reader(fh))
        assert rates[0] == ["t", "rate"]
        assert len(rates) == 70
        assert float(rates[-1][1]) == pytest.approx(got["p_hat"])

        with open(tmp_path / "histogram.csv", newline="") as fh:
            hist = list(csv.reader(fh))
        assert hist[0] == ["count", "frequency"]
        assert sum(int(r[1]) for r in hist[1:]) == 2000

    def test_no_histogram_without_bootstrap(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        got = run_json(
            capsys, "analyze", "--input", str(FIXTURE_CSV), "--delta", "-1",
            "--out", str(out),
        )
        assert got["bootstrap"] is None
        assert not (tmp_path / "histogram.csv").exists()
        assert (tmp_path / "rate_path.csv").exists()

    def test_missing_input_exits_nonzero(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "analyze", "--input", str(tmp_path / "absent.csv"),
            "--delta", "0", "--out", str(tmp_path / "r.json"),
        )
        assert rc == 1
        assert "error:" in err


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [
            sys.executable, "-m", "driftrecords.cli", "closed-form",
            "--model", "gumbel", "--quantity", "prob",
            "--c", str(math.log(2.0)), "--delta", "0", "--n", "2",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["value"] == pytest.approx(2.0 / 3.0, rel=1e-12)
