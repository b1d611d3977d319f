"""Run one benchmark workload in this interpreter and print one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload quad --seed 1 \
        --seconds 45 --trace 0

``run.py`` starts this script in a fresh interpreter for every workload
run and for every set-up probe (``--setup-only``), so the measured
process holds nothing but the package and the workload.  The closed-loop
caller makes a fixed number of whole passes, sized from ``--seconds``.
With ``--trace 1`` it makes half as many passes untraced, then the same
passes again with the tracer installed, and reports per-layer figures per
pass plus the tracing overhead.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# Seconds one pass took on a 2-CPU container when the benchmark was
# defined.  A run makes round(seconds / PASS_SECONDS) passes, at least one
# of each distinct pass, cycling through the distinct passes.
PASS_SECONDS = {"quad": 4.6, "mc": 2.1}
# A run stops after the pass that takes it past SAFETY_FACTOR * seconds,
# so a slow machine makes it do fewer repeats rather than run much longer.
SAFETY_FACTOR = 1.5

# Public calls whose values come out of the quadrature engine.
QUAD_VALUE_APIS = ("p_delta", "p_n_delta", "dependence_index_result", "classify_finiteness")


def run_passes(calls_of, passes, perturb):
    """Time every call ``calls_of(k)`` of the given passes; return
    (records, wall seconds)."""
    from workloads import perturb as perturb_result

    records = []
    t_start = time.perf_counter()
    for k in passes:
        for call in calls_of(k):
            t0 = time.perf_counter()
            try:
                result = call.fn()
            except Exception as exc:  # a raising call is a measured outcome
                result = exc
            dt = time.perf_counter() - t0
            if call.after is not None and not isinstance(result, Exception):
                result = call.after(result)
            if perturb:
                result = perturb_result(call, result)
            records.append((call, dt, result))
    return records, time.perf_counter() - t_start


def schedule(workload, seconds):
    """Pass indices of a run: the distinct passes in turn, as many passes
    as took about ``seconds`` at the commit that defined the benchmark, so
    every commit does the same work."""
    distinct = workload.distinct_passes
    planned = max(distinct, round(seconds / PASS_SECONDS[workload.name]))
    return [i % distinct for i in range(planned)]


def run_for(workload, passes, seconds, perturb):
    """Run ``passes`` one by one; stop early only past
    ``SAFETY_FACTOR * seconds``.  Returns the records and the wall time
    of each pass."""
    records, walls = [], []
    for k in passes:
        recs, dt = run_passes(workload.calls, [k], perturb)
        records += recs
        walls.append(dt)
        if sum(walls) > SAFETY_FACTOR * seconds:
            break
    return records, walls


def check_all(records):
    """(failed count, failure reasons) over every record."""
    failures = []
    for call, _, result in records:
        try:
            reason = call.check(result)
        except Exception as exc:  # a check that cannot read the result fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{call.key}: {reason}")
    return len(failures), failures


def known_defects(workload):
    """Make the known-defect calls of pass 0 once and report, per defect,
    how many of them still fail their check."""
    from workloads import KNOWN_DEFECTS

    records, _ = run_passes(workload.defect_calls, [0], False)
    out = {}
    for call, dt, result in records:
        entry = out.setdefault(call.defect, {
            "what": KNOWN_DEFECTS[call.defect], "calls": 0, "compared": 0, "failed": 0,
            "failures": []})
        entry["calls"] += 1
        entry["compared"] += call.compared
        _, reasons = check_all([(call, dt, result)])
        if reasons:
            entry["failed"] += 1
            entry["failures"] += reasons
    return out


def end_to_end(records, walls):
    """End-to-end figures from the mean execution time of each distinct call.

    A call is identified by its key (function and inputs); quad keys
    carry the lattice point and the mc keys are the same in every pass,
    so a call runs again each time its pass comes round.  The machine
    switches between fast and slow phases of tens of seconds with the
    load of other tenants, so a call's cost is the mean of its repeats,
    which follows the share of the run spent in each phase smoothly; the
    median and the fastest repeat jump between the phases and spread more
    from run to run.  Throughput is distinct calls over the sum of their
    mean latencies; percentiles interpolate linearly between the mean
    latencies.
    """
    repeats, obs = {}, {}
    for call, dt, _ in records:
        repeats.setdefault(call.key, []).append(dt)
        obs[call.key] = call.obs
    lat_ms = np.sort([np.mean(dts) for dts in repeats.values()]) * 1e3
    p50, p90 = np.percentile(lat_ms, [50, 90])
    busy = lat_ms.sum() / 1e3
    return {
        "values_per_s": len(repeats) / busy,
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
        "obs_per_s": sum(obs.values()) / busy,
        "calls": len(records),
        "distinct_calls": len(repeats),
        "distinct_calls_beyond_p90": int((lat_ms > p90).sum()),
        "passes": len(walls),
        "pass_wall_s": walls,
    }


def layer_metrics(tracer, records, passes, wall_traced, wall_untraced, workers, main_ident):
    """Per-layer figures per traced pass, keyed by metric name."""
    agg = tracer.by_name()
    absent = dict(tracer.absent)

    def field(span, key):
        if span in absent:
            return 0.0
        return agg[span][key] / passes if span in agg else 0.0

    quad_values = sum(1 for call, _, _ in records if call.api in QUAD_VALUE_APIS)
    pool_wall = sum(dt for call, dt, _ in records if call.workers > 1)
    busy = tracer.worker_thread_time(main_ident)
    out = {
        "distributions.log_cdf.points": field("distributions.log_cdf", "work"),
        "distributions.log_cdf.self_s": field("distributions.log_cdf", "self_s"),
        "distributions.pdf.self_s": field("distributions.pdf", "self_s"),
        "distributions.log_sf.self_s": field("distributions.log_sf", "self_s"),
        "distributions.cdf.calls": field("distributions.cdf", "calls"),
        "distributions.tail_integral_bound.calls": field("distributions.tail_integral_bound", "calls"),
        "distributions.quantile.points": field("distributions.quantile", "work"),
        "distributions.quantile.self_s": field("distributions.quantile", "self_s"),
        "distributions.sample.calls": field("distributions.sample", "calls"),
        "distributions.sample.points": field("distributions.sample", "work"),
        "distributions.sample.self_s": field("distributions.sample", "self_s"),
        "probability._log_product.cells": field("probability._log_product", "work"),
        "probability._log_product.self_s": field("probability._log_product", "self_s"),
        "probability.p_delta.self_s": field("probability.p_delta", "self_s"),
        "probability.p_n_delta.self_s": field("probability.p_n_delta", "self_s"),
        "probability.truncation_n.max": float(tracer.truncation_max),
        "probability.classify_finiteness.self_s": field("probability.classify_finiteness", "self_s"),
        "quadrature.integrate.calls": field("quadrature.integrate", "calls"),
        "quadrature.integrate.integrand_calls": tracer.integrand_calls / passes,
        "quadrature.integrate.nodes": tracer.integrand_nodes / passes,
        "quadrature.integrate.self_s": field("quadrature.integrate", "self_s"),
        "quadrature.integrate.failed": field("quadrature.integrate", "failed"),
        "quadrature.nodes_per_value": tracer.integrand_nodes / quad_values if quad_values else 0.0,
        "correlation.joint_prob_consecutive.self_s": field("correlation.joint_prob_consecutive", "self_s"),
        "correlation.inner_integrate.calls": field("quadrature.integrate", "nested_calls"),
        "simulate.replication_rng.calls": field("simulate.replication_rng", "calls"),
        "simulate.replication_rng.self_s": field("simulate.replication_rng", "self_s"),
        "simulate.mc_record_rate.self_s": field("simulate.mc_record_rate", "self_s"),
        "simulate.worker_busy_frac": busy / (workers * pool_wall) if pool_wall else 0.0,
        "special.norm_quantile.calls": field("_special.norm_quantile", "calls"),
        "special.norm_quantile.points": field("_special.norm_quantile", "work"),
        "special.norm_quantile.self_s": field("_special.norm_quantile", "self_s"),
        "kernels.drift_count.points": field("_kernels.drift_count", "work"),
        "kernels.drift_count.self_s": field("_kernels.drift_count", "self_s"),
        "kernels.record_scan.points": field("_kernels.record_scan", "work"),
        "kernels.record_scan.self_s": field("_kernels.record_scan", "self_s"),
        "kernels.lag_products.calls": field("_kernels.lag_products", "calls"),
        "kernels.lag_products.self_s": field("_kernels.lag_products", "self_s"),
        "estimation.asymptotic_variance_mc.self_s": field("estimation.asymptotic_variance_mc", "self_s"),
        "estimation.variance_estimator.self_s": field("estimation.variance_estimator", "self_s"),
        "analysis.bootstrap_histogram.self_s": field("analysis.bootstrap_histogram", "self_s"),
        "analysis.analyze.self_s": field("analysis.analyze", "self_s"),
        "cli.main.self_s": field("cli.main", "self_s"),
        "trace.overhead_s": (wall_traced - wall_untraced) / passes,
        "trace.overhead_frac": (wall_traced - wall_untraced) / wall_untraced,
    }
    return out, absent


def provenance(workload, seed, sizes_name, passes):
    import driftrecords
    import scipy
    from driftrecords import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": getattr(_kernels, "BACKEND", "absent"),
        "driftrecords": getattr(driftrecords, "__version__", "unknown"),
        "workload": workload.name,
        "seed": seed,
        "workers": workload.workers,
        "scale": sizes_name,
        "passes": passes,
    }


def call_counts(records):
    counts = {}
    for call, _, _ in records:
        counts[call.api] = counts.get(call.api, 0) + 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--perturb", action="store_true",
                        help="move Gumbel p_n results by 10x their bound (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the monotonic time, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        import driftrecords

        expected = os.path.join(ROOT, "src", "driftrecords")
        if os.path.dirname(os.path.abspath(driftrecords.__file__)) != expected:
            print(f"error: driftrecords imported from {driftrecords.__file__}, "
                  f"not from {expected}", file=sys.stderr)
            return 2
        import workloads

        sizes = workloads.SCALES[args.scale]
        workload = workloads.Workload(args.workload, args.seed, sizes, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_monotonic": ready}))
            return 0

        out = {"ready_monotonic": ready}
        if args.trace == 0:
            records, walls = run_for(
                workload, schedule(workload, args.seconds), args.seconds, args.perturb)
            passes = len(walls)
            out["end_to_end"] = end_to_end(records, walls)
        else:
            import tracing

            half = args.seconds / 2.0
            untraced, walls = run_for(workload, schedule(workload, half), half, args.perturb)
            passes, wall_u = len(walls), sum(walls)
            tracer = tracing.Tracer()
            tracer.install()
            main_ident = threading.get_ident()
            try:
                traced, wall_t = run_passes(
                    workload.calls, schedule(workload, half)[:passes], args.perturb)
            finally:
                tracer.uninstall()
            out["layers"], out["absent"] = layer_metrics(
                tracer, traced, passes, wall_t, wall_u, workload.workers, main_ident)
            out["end_to_end_untraced"] = end_to_end(untraced, walls)
            out["spans"] = tracer.node_table()
            records = untraced + traced
        failed, reasons = check_all(records)
        out["attempted"] = len(records)
        out["failed"] = failed
        out["failures"] = reasons
        out["call_counts"] = call_counts(records)
        out["latencies_ms"] = [[call.key, dt * 1e3] for call, dt, _ in records]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["known_defects"] = known_defects(workload)
        out["provenance"] = provenance(workload, args.seed, args.scale, passes)
        print(json.dumps(out, allow_nan=False, default=lambda o: o.item()))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
