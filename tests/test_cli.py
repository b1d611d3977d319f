import csv
import json
import math
import os
import shlex
import subprocess
import sys

import pytest

from driftrecords import closed_form
from driftrecords.cli import _build_parser, main

from conftest import FIXTURE_CSV, LAW_PARAMETER_CASES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_tiny_trend_on_a_bounded_law(self, capsys):
        # the factors' count below the top overflows a float at c = 1e-300;
        # the value is the c -> 0 one, 0.9^5 / 5
        got = run_json(
            capsys, "prob", "--dist", "uniform", "--c", "1e-300", "--delta", "0.1",
            "--n", "5",
        )
        assert got["value"] == pytest.approx(0.9**5 / 5, abs=1e-12)

    @pytest.mark.parametrize("law, member", [
        (("--dist", "normal:sigma=1e62", "--c", "1e61", "--delta", "5e61"),
         ("--dist", "normal", "--c", "0.1", "--delta", "0.5")),
        (("--dist", "normal:sigma=1e-65", "--c", "1e-66", "--delta", "0", "--n", "1000"),
         ("--dist", "normal", "--c", "0.1", "--delta", "0", "--n", "1000")),
    ])
    def test_extreme_normal_scales_print_the_members_value(self, capsys, law, member):
        # sigma^5 overflows or underflows a double; the record integral
        # runs on the standard normal law and never forms it
        got, want = run_json(capsys, "prob", *law), run_json(capsys, "prob", *member)
        assert abs(got["value"] - want["value"]) <= (
            got["abs_error_bound"] + want["abs_error_bound"])

    def test_bad_distribution_exits_nonzero(self, capsys):
        rc, _, err = run(
            capsys, "prob", "--dist", "cauchy", "--c", "1", "--delta", "0",
        )
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize("kind, name, value, message",
                             [case for case in LAW_PARAMETER_CASES if case[3] is not None])
    def test_bad_law_parameter_names_itself(self, capsys, kind, name, value, message):
        rc, out, err = run(
            capsys, "prob", "--dist", f"{kind}:{name}={value}", "--c", "1", "--delta", "0",
            "--n", "5",
        )
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {message}, got ")


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

    def test_dagum_with_a_large_integer_shape(self, capsys):
        # the integer-q binomial sum printed -2922236 here
        got = run_json(capsys, "closed-form", "--model", "dagum", "--q", "50", "--n", "2")
        assert got["value"] == pytest.approx(0.50499900079864395, rel=1e-12)

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

        # only DriftRecordsError and OSError are user errors: a bare
        # ValueError or ArithmeticError is a fault of the program
        for exc in (OverflowError("math range error"), RuntimeError("boom"),
                    ValueError("bad")):
            def fail(*args, exc=exc):
                raise exc

            monkeypatch.setattr(closed_form, "gumbel_l_inf", fail)
            rc, out, err = run(
                capsys, "closed-form", "--model", "gumbel", "--quantity",
                "l-inf", "--c", "1", "--delta", "0",
            )
            assert rc == 1 and out == ""
            assert err.startswith("error: internal error:") and str(exc) in err
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


# Each (model, quantity) pair of closed-form: the flags it reads, a valid
# call, and the closed form that call must print.
CLOSED_FORMS = {
    ("gumbel", "prob"): (
        {"--c", "--delta", "--n"}, ["--c", "1", "--delta", "0", "--n", "5"],
        lambda: {"value": closed_form.gumbel_p_n_delta(1.0, 0.0, 5)},
    ),
    ("gumbel", "l-inf"): (
        {"--c", "--delta"}, ["--c", "1", "--delta", "0.5"],
        lambda: {"value": closed_form.gumbel_l_inf(1.0, 0.5)},
    ),
    ("gumbel", "l-inf-argmax"): (
        {"--c"}, ["--c", "1"],
        lambda: dict(zip(("delta_star", "max_value"),
                         closed_form.gumbel_l_inf_argmax(1.0))),
    ),
    ("dagum", "prob"): (
        {"--q", "--n", "--delta-eq-c"}, ["--q", "2", "--n", "10"],
        lambda: {"value": closed_form.dagum_p_n0(2.0, 10)},
    ),
    ("dagum", "prob-asymptotic"): (
        {"--q", "--n", "--delta-eq-c"}, ["--q", "2", "--n", "10"],
        lambda: {"value": closed_form.dagum_p_n0_asymptotic(2.0, 10)},
    ),
    ("pareto", "prob"): (
        {"--delta", "--n"}, ["--delta", "0.5", "--n", "5"],
        lambda: {"value": closed_form.pareto_p_n_delta(0.5, 5)},
    ),
    ("pareto", "l-n"): (
        {"--delta", "--n"}, ["--delta", "0.5", "--n", "5"],
        lambda: {"value": closed_form.pareto_l_n(0.5, 5)},
    ),
}
EXTRA = {"--c": ["1"], "--delta": ["0.5"], "--n": ["5"], "--q": ["2"],
         "--delta-eq-c": []}


class TestClosedFormFlags:
    @pytest.mark.parametrize("model, quantity, flag", [
        (model, quantity, flag)
        for (model, quantity), (reads, _, _) in CLOSED_FORMS.items()
        for flag in sorted(set(EXTRA) - reads)
    ])
    def test_flag_the_pair_does_not_read_is_an_error(
        self, capsys, model, quantity, flag
    ):
        _, valid, _ = CLOSED_FORMS[model, quantity]
        rc, out, err = run(
            capsys, "closed-form", "--model", model, "--quantity", quantity,
            *valid, flag, *EXTRA[flag],
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:")
        assert flag in err.replace(",", " ").split()

    @pytest.mark.parametrize("model, quantity", list(CLOSED_FORMS))
    def test_valid_call_prints_the_closed_form(self, capsys, model, quantity):
        _, valid, want = CLOSED_FORMS[model, quantity]
        got = run_json(
            capsys, "closed-form", "--model", model, "--quantity", quantity,
            *valid,
        )
        assert got == want()

    @pytest.mark.parametrize("argv, want", [
        pytest.param(["--model", "gumbel", "--c", "1", "--delta", "0.5"],
                     lambda: closed_form.gumbel_p_delta(1.0, 0.5),
                     id="gumbel-prob-without-n"),
        pytest.param(["--model", "dagum", "--quantity", "prob-asymptotic",
                      "--q", "2", "--n", "10", "--delta-eq-c"],
                     lambda: closed_form.dagum_p_n_delta_eq_c_asymptotic(2.0, 10),
                     id="dagum-prob-asymptotic-delta-eq-c"),
    ])
    def test_optional_flag_picks_the_variant(self, capsys, argv, want):
        assert run_json(capsys, "closed-form", *argv) == {"value": want()}

    # one call per closed-form function; each once printed NaN or a limit
    @pytest.mark.parametrize("argv", [
        pytest.param(["--model", "gumbel", "--c", "1", "--delta", "nan", "--n", "5"],
                     id="gumbel_p_n_delta"),
        pytest.param(["--model", "gumbel", "--c", "nan", "--delta", "0"],
                     id="gumbel_p_delta"),
        pytest.param(["--model", "gumbel", "--quantity", "l-inf", "--c", "1",
                      "--delta", "inf"], id="gumbel_l_inf"),
        pytest.param(["--model", "gumbel", "--quantity", "l-inf-argmax",
                      "--c", "inf"], id="gumbel_l_inf_argmax"),
        pytest.param(["--model", "dagum", "--q", "inf", "--n", "5"], id="dagum_p_n0"),
        pytest.param(["--model", "dagum", "--q", "nan", "--n", "5", "--delta-eq-c"],
                     id="dagum_p_n_delta_eq_c"),
        pytest.param(["--model", "dagum", "--quantity", "prob-asymptotic",
                      "--q", "inf", "--n", "5"], id="dagum_p_n0_asymptotic"),
        pytest.param(["--model", "dagum", "--quantity", "prob-asymptotic",
                      "--q", "nan", "--n", "5", "--delta-eq-c"],
                     id="dagum_p_n_delta_eq_c_asymptotic"),
        pytest.param(["--model", "pareto", "--delta", "nan", "--n", "5"],
                     id="pareto_p_n_delta"),
        pytest.param(["--model", "pareto", "--quantity", "l-n", "--delta", "inf",
                      "--n", "5"], id="pareto_l_n"),
    ])
    def test_non_finite_parameter_is_an_error(self, capsys, argv):
        rc, out, err = run(capsys, "closed-form", *argv)
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "must be finite" in err


def readme_examples():
    """Each `$ drift-records ...` block of the README: the command's
    arguments, and the output the block shows ("" when it shows none)."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    examples = []
    for block in blocks:
        lines = block.strip("\n").split("\n")
        if not lines[0].startswith("$ drift-records "):
            continue
        command = lines.pop(0)[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        argv = shlex.split(command)[1:]
        examples.append(pytest.param(argv, "\n".join(lines), id=argv[0]))
    return examples


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        assert sorted(p.id for p in readme_examples()) == sorted(
            ["prob", "closed-form", "corr", "simulate", "variance", "sigma2",
             "analyze"]
        )

    @pytest.mark.parametrize("argv, shown", readme_examples())
    def test_example_runs_and_prints_the_keys_shown(
        self, capsys, monkeypatch, tmp_path, argv, shown
    ):
        # from the repository root, as the README's relative paths assume
        monkeypatch.chdir(ROOT)
        if "--out" in argv:
            argv = list(argv)
            argv[argv.index("--out") + 1] = str(tmp_path / "report.json")
        got = run_json(capsys, *argv)
        if shown:
            assert list(got) == list(json.loads(shown))


class TestCorr:
    def test_fields_and_closed_form_value(self, capsys):
        got = run_json(
            capsys, "corr", "--dist", "pareto1", "--c", "1",
            "--delta", "0.5", "--n", "5",
        )
        assert set(got) == {"l_n", "joint", "p_n", "p_n1", "error_bounds"}
        assert got["l_n"] == pytest.approx(1.3212991812278136, abs=1e-5)
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
        assert err.startswith("error: workers must be an integer >= 1")

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

    def test_no_flags_exits_nonzero(self, capsys):
        rc, _, err = run(capsys, "variance", "--flags", ",")
        assert rc == 1
        assert err.startswith("error: no indicator values found")


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

    def test_negative_lag_window_exits_with_an_error(self, capsys):
        # it used to print p(1 - p) and echo "lag_max": -3
        rc, out, err = run(
            capsys, "sigma2", "--dist", "gumbel", "--c", "1", "--delta", "0",
            "--horizon", "400", "--lag-max", "-3", "--reps", "2",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error: lag_max must be a non-negative integer")


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

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_threshold_exits_with_an_error(self, capsys, tmp_path, delta):
        # it used to count one record and write "delta": NaN, which is not JSON
        out = tmp_path / "report.json"
        rc, stdout, err = run(
            capsys, "analyze", "--input", str(FIXTURE_CSV), "--delta", delta,
            "--out", str(out),
        )
        assert rc == 1 and stdout == ""
        assert err.startswith("error: delta must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bootstrap", "-1"], "--bootstrap must be a non-negative integer"),
        (["--bootstrap", "-5", "--seed", "-3", "--workers", "0"],
         "--bootstrap must be a non-negative integer"),
        (["--seed", "7"], "analyze takes --seed only with --bootstrap"),
        (["--workers", "2"], "analyze takes --workers only with --bootstrap"),
        (["--bootstrap", "0", "--seed", "7", "--workers", "2"],
         "analyze takes --seed, --workers only with --bootstrap"),
    ])
    def test_unread_bootstrap_flags_exit_with_an_error(
        self, capsys, tmp_path, flags, message
    ):
        # only the bootstrap reads --seed and --workers
        out = tmp_path / "report.json"
        rc, stdout, err = run(
            capsys, "analyze", "--input", str(FIXTURE_CSV), "--delta", "-1",
            "--out", str(out), *flags,
        )
        assert rc == 1 and stdout == ""
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    def test_bootstrap_defaults_to_seed_42_on_one_worker(self, capsys, tmp_path):
        argv = ["analyze", "--input", str(FIXTURE_CSV), "--delta", "-1",
                "--bootstrap", "1000", "--out", str(tmp_path / "report.json")]
        default = run_json(capsys, *argv)
        explicit = run_json(capsys, *argv, "--seed", "42", "--workers", "1")
        assert default == explicit
        assert default["bootstrap"]["reps"] == 1000

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


def test_successive_calls_print_what_fresh_calls_print(capsys):
    # the parser is built once per process; a flag given in one call
    # must not carry over into the next, where closed-form would refuse it
    calls = [
        ("closed-form", "--model", "gumbel", "--c", "0.7", "--delta", "0", "--n", "2"),
        ("simulate", "--dist", "gumbel", "--c", "0.5", "--delta", "0",
         "--n", "50", "--reps", "5", "--seed", "1", "--workers", "2"),
        ("closed-form", "--model", "gumbel", "--quantity", "l-inf-argmax", "--c", "0.7"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert all(rc == 0 for rc, _, _ in fresh)
    assert _build_parser() is _build_parser()
