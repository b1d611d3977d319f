"""driftrecords benchmark: one workload per call, metrics on the last line.

    python3 perfbench/run.py --workload quad --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are ``quad`` and ``mc`` (see README.md beside this
file).  The command runs the workload in a fresh
interpreter, and before and after it times three more fresh interpreters
that only import the package and build the workload inputs (``setup_s``
is the median of all seven set-ups).  It prints a human-readable summary, then one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The full record, with provenance and
the span table, goes to ``.perfbench_out/``.  Exit code 0 means the run
completed; ``correct`` says whether every result passed its check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("quad", "mc")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 160.0
MAX_PRINTED_FAILURES = 20


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _spawn(args, timeout):
    """Run the worker with ``args``; return (spawn time, parsed last line)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="problem sizes; 'small' is for the self-test")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt Gumbel p_n results to exercise the gate (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "driftrecords", "__init__.py")):
        print(f"error: no driftrecords sources under {ROOT}/src", file=sys.stderr)
        return 2
    e2e_units, layer_units = _units()

    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]

    def probe():
        t_spawn, ready = _spawn(common + ["--setup-only"], WORKER_TIMEOUT_S)
        return ready["ready_monotonic"] - t_spawn

    # Probes before and after the workload, so that set-up is sampled
    # across the whole run rather than in one burst of machine load.
    setups = [probe() for _ in range(SETUP_PROBES)]
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        run_args.append("--perturb")
    t_spawn, res = _spawn(run_args, WORKER_TIMEOUT_S)
    setups.append(res["ready_monotonic"] - t_spawn)
    setups += [probe() for _ in range(SETUP_PROBES)]

    attempted, failed = res["attempted"], res["failed"]
    prov = dict(res["provenance"], setup_samples=len(setups))
    if args.trace == 0:
        e2e = res["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "values_per_s": e2e["values_per_s"],
            "latency_ms_p50": e2e["latency_ms_p50"],
            "latency_ms_p90": e2e["latency_ms_p90"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = e2e_units
        prov["latency_samples"] = e2e["distinct_calls"]
        prov["latency_samples_beyond_p90"] = e2e["distinct_calls_beyond_p90"]
        prov["calls_executed"] = e2e["calls"]
        extra = {
            "obs_per_s": (e2e["obs_per_s"], "1/s"),
            "failed_frac": (failed / attempted, "ratio"),
        }
    else:
        values = res["layers"]
        units = layer_units
        extra = {"failed_frac": (failed / attempted, "ratio")}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the worker did not produce {missing}", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(res, metrics=metrics, setup_samples_s=setups, provenance=prov)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# calls " + json.dumps(res["call_counts"], sort_keys=True))
    for name in units:
        print(f"{name:<44} {values[name]:>16.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for name, reason in sorted(res.get("absent", {}).items()):
        print(f"# absent {name}: {reason}")
    for name, entry in sorted(res["known_defects"].items()):
        print(f"# known defect {name} ({entry['what']}): {entry['failed']} of "
              f"{entry['calls']} untimed calls fail their check, {entry['compared']} of "
              f"them compared with a closed form or stored reference")
        for reason in entry["failures"][:3]:
            print(f"#   {reason}")
    for reason in res["failures"][:MAX_PRINTED_FAILURES]:
        print(f"# FAILED {reason}")
    if failed > MAX_PRINTED_FAILURES:
        print(f"# ... and {failed - MAX_PRINTED_FAILURES} more failures in the run record")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
