"""Command-line interface.

Subcommands mirror the library layers: `prob` for quadrature-based
record probabilities, `closed-form` for the analytic special cases,
`corr` for the consecutive-record dependence index, `simulate` for the
Monte Carlo engine, `variance` and `sigma2` for the variance
estimators, and `analyze` for the end-to-end yearly-series pipeline.
All outputs are JSON on stdout; `analyze` also writes plot-ready CSV
artifacts next to its report.
"""
import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import closed_form
from .analysis import analyze, bootstrap_histogram, load_series
from .correlation import dependence_index_result
from .distributions import parse_spec
from .errors import DriftRecordsError, require_int
from .estimation import asymptotic_variance_mc, variance_estimator
from .probability import DEFAULT_TOL, LdmConfig, p_delta, p_n_delta
from .simulate import SimulationConfig, mc_record_rate


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _ldm(args) -> LdmConfig:
    return LdmConfig(dist=parse_spec(args.dist), c=args.c, delta=args.delta)


def _cmd_prob(args) -> None:
    cfg = _ldm(args)
    if args.n is None:
        res = p_delta(cfg, tol=args.tol)
    else:
        res = p_n_delta(cfg, args.n, tol=args.tol)
    _emit(
        {
            "value": res.value,
            "abs_error_bound": res.abs_error_bound,
            "truncation_n": res.truncation_n,
        }
    )


# (model, quantity) -> (flags it requires, flags it may take, function of
# their values in that order).  An unset flag is None.
_CLOSED_FORMS = {
    ("gumbel", "prob"): (
        ("c", "delta"), ("n",),
        lambda c, delta, n: {
            "value": closed_form.gumbel_p_delta(c, delta) if n is None
            else closed_form.gumbel_p_n_delta(c, delta, n)
        },
    ),
    ("gumbel", "l-inf"): (
        ("c", "delta"), (),
        lambda c, delta: {"value": closed_form.gumbel_l_inf(c, delta)},
    ),
    ("gumbel", "l-inf-argmax"): (
        ("c",), (),
        lambda c: dict(
            zip(("delta_star", "max_value"), closed_form.gumbel_l_inf_argmax(c))
        ),
    ),
    ("dagum", "prob"): (
        ("q", "n"), ("delta_eq_c",),
        lambda q, n, eq: {
            "value": (closed_form.dagum_p_n_delta_eq_c if eq
                      else closed_form.dagum_p_n0)(q, n)
        },
    ),
    ("dagum", "prob-asymptotic"): (
        ("q", "n"), ("delta_eq_c",),
        lambda q, n, eq: {
            "value": (closed_form.dagum_p_n_delta_eq_c_asymptotic if eq
                      else closed_form.dagum_p_n0_asymptotic)(q, n)
        },
    ),
    ("pareto", "prob"): (
        ("delta", "n"), (),
        lambda delta, n: {"value": closed_form.pareto_p_n_delta(delta, n)},
    ),
    ("pareto", "l-n"): (
        ("delta", "n"), (),
        lambda delta, n: {"value": closed_form.pareto_l_n(delta, n)},
    ),
}


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _cmd_closed_form(args) -> None:
    pair = (args.model, args.quantity)
    if pair not in _CLOSED_FORMS:
        raise DriftRecordsError(
            f"quantity {args.quantity!r} is not defined for model {args.model!r}"
        )
    required, optional, fn = _CLOSED_FORMS[pair]
    every = {name for req, opt, _ in _CLOSED_FORMS.values() for name in req + opt}
    unread = sorted(
        name for name in every - set(required + optional)
        if getattr(args, name) is not None
    )
    if unread:
        raise DriftRecordsError(f"{' '.join(pair)} does not take {_flags(unread)}")
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        raise DriftRecordsError(f"{' '.join(pair)} requires {_flags(missing)}")
    _emit(fn(*(getattr(args, name) for name in required + optional)))


def _cmd_corr(args) -> None:
    res = dependence_index_result(_ldm(args), args.n, tol=args.tol)
    _emit(
        {
            "l_n": res.value,
            "joint": res.joint.value,
            "p_n": res.p_n,
            "p_n1": res.p_n1,
            "error_bounds": {
                "l_n": res.abs_error_bound,
                "joint": res.joint.abs_error_bound,
            },
        }
    )


def _cmd_simulate(args) -> None:
    cfg = SimulationConfig(
        ldm=_ldm(args),
        n=args.n,
        replications=args.reps,
        seed=args.seed,
    )
    summary = mc_record_rate(cfg, workers=args.workers)
    if args.dump is not None:
        with open(args.dump, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "count"])
            for rep, count in enumerate(summary.counts):
                writer.writerow([rep, int(count)])
    _emit(
        {
            "n": cfg.n,
            "replications": cfg.replications,
            "seed": cfg.seed,
            "mean_rate": summary.mean_rate,
            "rate_stderr": summary.rate_stderr,
            "mean_count": float(np.mean(summary.counts)),
            "stabilization_fraction": summary.stabilization_fraction,
        }
    )


def _parse_flags_arg(text: str) -> np.ndarray:
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = text
    tokens = [tok for tok in raw.replace("\n", ",").split(",") if tok.strip()]
    if not tokens:
        raise DriftRecordsError("no indicator values found in --flags input")
    out = np.empty(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        t = tok.strip()
        if t not in ("0", "1"):
            raise DriftRecordsError(
                f"--flags entry {i + 1}: expected 0 or 1, got {t!r}"
            )
        out[i] = t == "1"
    return out


def _cmd_variance(args) -> None:
    est = variance_estimator(_parse_flags_arg(args.flags), args.m)
    _emit(
        {
            "sigma2": est.sigma2,
            "m": est.m,
            "gammas": [float(g) for g in est.gammas],
            "floored": est.floored,
        }
    )


def _cmd_sigma2(args) -> None:
    value = asymptotic_variance_mc(
        _ldm(args),
        horizon=args.horizon,
        burn_in=args.burn_in,
        lag_max=args.lag_max,
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    _emit(
        {
            "sigma2": value,
            "horizon": args.horizon,
            "burn_in": args.burn_in,
            "lag_max": args.lag_max,
            "reps": args.reps,
            "seed": args.seed,
        }
    )


def _report_payload(report, boot) -> dict:
    fit = report.fit
    payload = {
        "n": report.n,
        "delta": report.delta,
        "count": report.count,
        "record_count": report.record_count,
        "p_hat": report.p_hat,
        "sigma2_tilde": report.sigma2_tilde,
        "m": report.m,
        "sigma2_floored": report.sigma2_floored,
        "level": report.level,
        "interval": [report.interval[0], report.interval[1]],
        "trend_fit": {
            "beta0": fit.beta0,
            "beta1": fit.beta1,
            "stderr0": fit.stderr0,
            "stderr1": fit.stderr1,
            "t_stats": list(fit.t_stats),
            "adj_r2": fit.adj_r2,
            "sigma_eps": fit.sigma_eps,
        },
        "diagnostics": report.diagnostics,
        "bootstrap": None,
    }
    if boot is not None:
        payload["bootstrap"] = {
            "reps": int(boot.histogram.sum()),
            "q025": boot.q025,
            "q975": boot.q975,
            "mean": boot.mean,
        }
    return payload


def _cmd_analyze(args) -> None:
    require_int("--bootstrap", args.bootstrap, 0)
    # only the flags given reach the bootstrap, which owns their defaults
    given = {name: getattr(args, name) for name in ("seed", "workers")
             if getattr(args, name) is not None}
    if given and args.bootstrap == 0:
        raise DriftRecordsError(f"analyze takes {_flags(given)} only with --bootstrap")
    ts = load_series(args.input)
    report = analyze(ts, args.delta, m=args.m, level=args.level)
    boot = None
    if args.bootstrap > 0:
        boot = bootstrap_histogram(report.fit, ts, args.delta, args.bootstrap, **given)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    payload = _report_payload(report, boot)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    rate_path = os.path.join(out_dir, "rate_path.csv")
    with open(rate_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "rate"])
        for t_val, rate in zip(ts.t, report.rate_path):
            writer.writerow([int(t_val), float(rate)])

    if boot is not None:
        hist_path = os.path.join(out_dir, "histogram.csv")
        with open(hist_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["count", "frequency"])
            for value, freq in enumerate(boot.histogram):
                writer.writerow([value, int(freq)])

    _emit(payload)


@functools.cache  # once per process: 1.6 to 1.8 ms to build, 0.1 ms to parse
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drift-records",
        description=(
            "Record statistics for iid sequences with a linear trend: "
            "probabilities, dependence, simulation, and trend analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the model flags of every subcommand that builds an LdmConfig, and the
    # tolerance of those that integrate
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--dist", required=True,
        help="distribution spec: gumbel | pareto1 | dagum:b=<v>,q=<v> | "
        "normal:mu=<v>,sigma=<v> | uniform:lo=<v>,hi=<v> | exp:rate=<v>",
    )
    model.add_argument("--c", type=float, required=True, help="trend per step")
    model.add_argument("--delta", type=float, required=True, help="record threshold")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser(
        "prob", parents=[model, tolerance],
        help="record probability by adaptive quadrature",
    )
    p.add_argument(
        "--n", type=int, default=None,
        help="index of the observation; omit for the asymptotic probability",
    )
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("closed-form", help="analytic special-case values")
    p.add_argument("--model", required=True, choices=["gumbel", "dagum", "pareto"])
    p.add_argument(
        "--quantity",
        default="prob",
        choices=["prob", "prob-asymptotic", "l-inf", "l-inf-argmax", "l-n"],
    )
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=float, default=None, help="dagum shape")
    p.add_argument(
        "--delta-eq-c", action="store_true", default=None,
        help="dagum: threshold equal to the trend instead of zero",
    )
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser(
        "corr", parents=[model, tolerance],
        help="dependence index of consecutive records",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("simulate", parents=[model], help="Monte Carlo record counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump", default=None, help="write per-replication counts CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("variance", help="lag-window variance of 0/1 indicators")
    p.add_argument(
        "--flags", required=True,
        help="comma-separated 0/1 values, or a path to a file of them",
    )
    p.add_argument("--m", type=int, default=None, help="lag window (default sqrt(n))")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser(
        "sigma2", parents=[model], help="Monte Carlo limiting variance of the rate"
    )
    p.add_argument("--horizon", type=int, default=4000)
    p.add_argument("--burn-in", type=int, default=2000)
    p.add_argument("--lag-max", type=int, default=50)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sigma2)

    p = sub.add_parser("analyze", help="yearly-series trend and record pipeline")
    p.add_argument("--input", required=True, help="CSV with header t,value")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--bootstrap", type=int, default=0, help="bootstrap replications")
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    p.add_argument("--workers", type=int, default=None, help="bootstrap workers")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DriftRecordsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the command line reports, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
