"""Reduced-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the reduced sizes, untraced and traced, and checks
that each metric named in BENCHMARK.json is printed with its unit, that
``obs_per_s``, ``failed_frac`` and the known-defect report are printed
too, and that a Gumbel p_n moved by ten times its bound is counted as
failed.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's own files, where it must exit non-zero
without printing a result.
Exits non-zero when any check fails.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "3"


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", SEED,
         "--seconds", "1", "--scale", "small", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run("--workload", workload, "--trace", str(trace))
            res = last_json(proc)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0 or res is None:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            text = proc.stdout
            for name in ["failed_frac"] + (["obs_per_s"] if trace == 0 else []):
                if f"\n{name} " not in text:
                    problems.append(f"{tag}: {name} not printed")
            if workload == "quad" and "\n# known defect D" not in text:
                problems.append(f"{tag}: the known-defect calls were not reported")
            print(f"ok  {tag}: {res['attempted']} calls")

    proc = run("--workload", "quad", "--trace", "0", "--perturb")
    res = last_json(proc)
    if res is None or res["correct"] or res["failed"] < 1:
        problems.append(f"perturbed quad: the gate missed the moved values: {res}")
    else:
        print(f"ok  perturbed quad: {res['failed']} of {res['attempted']} calls failed")

    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "quad", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or last_json(proc) is not None:
            problems.append("bare directory: the benchmark did not fail cleanly")
        else:
            print(f"ok  bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
