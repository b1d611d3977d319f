"""Print sha256 digests of the package's Monte Carlo outputs.

A refactor of the Monte Carlo engine should keep every output bit for
bit.  Run this script on the code before and after the change and diff
the two listings:

    PYTHONPATH=src python scripts/mc_digests.py > before.txt
    (change the code)
    PYTHONPATH=src python scripts/mc_digests.py > after.txt
    diff before.txt after.txt

It hashes the `mc_record_rate` summaries of five laws at path lengths on
both sides of the vectorized-stream cutoff, on both sides of the row
length from which the record scan takes a block one row at a time (2047
and 2048, then 4001 and 20000, several rows a block) and past one
record-scan piece, on one and two workers; eight `asymptotic_variance_mc` runs: one
with no burn-in, one with a burn-in of one value, one at a threshold
where almost every step is a record (Normal, c = 1, delta = -2), one at
c < 0, where no burn-in value is skipped, one of a law with a finite top
(Uniform), and one at the default horizon and burn-in, whose 4001-wide
window is scanned row by row; bootstrap histograms at three thresholds;
the fixture series at four seeds; a long `simulate_ldm` path; and the
record flags of single rows on both sides of one piece and past three,
on a 1/4 grid that makes exact ties, through `delta_record_flags` and,
with -inf at the start and on both sides of each piece edge (which
`delta_record_flags` refuses), through `_kernels.record_scan`.  It
takes a few seconds.
"""
import hashlib
import sys

import numpy as np

import driftrecords as dr
from driftrecords import _kernels
from driftrecords.analysis import FIXTURE_SEED

LAWS = ["normal:mu=0.3,sigma=2", "gumbel", "pareto1", "uniform:lo=-1,hi=2", "exp:rate=1.5"]
LENGTHS = [20, 513, 700, 2000, 2047, 2048, 4001, 20_000, 70_000]
B = _kernels.BLOCK_VALUES


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    out = sys.stdout
    for spec in LAWS:
        ldm = dr.LdmConfig(dr.parse_spec(spec), c=0.01, delta=0.2)
        for n in LENGTHS:
            reps = max(3, 100_000 // n)
            for workers in (1, 2):
                s = dr.mc_record_rate(dr.SimulationConfig(ldm, n, reps, seed=11), workers)
                d = digest(s.counts, s.standardized,
                           np.array([s.mean_rate, s.rate_stderr, s.stabilization_fraction]))
                print(f"mc_record_rate {spec} n={n} reps={reps} workers={workers} {d}", file=out)
    for spec, c, delta, burn_in, horizon in (
            ("gumbel", 1.0, 0.5, 500, 1500), ("normal", 0.1, -0.2, 500, 1500),
            ("normal", 0.1, -0.2, 0, 1500), ("normal", 0.1, -0.2, 1, 1500),
            ("normal", 1.0, -2.0, 500, 1500), ("gumbel", -0.001, -2.0, 500, 1500),
            ("uniform:lo=-1,hi=2", 0.1, 0.2, 500, 1500), ("normal", 0.1, 0.5, 2000, 4000)):
        ldm = dr.LdmConfig(dr.parse_spec(spec), c=c, delta=delta)
        v = dr.asymptotic_variance_mc(ldm, horizon=horizon, burn_in=burn_in, lag_max=20,
                                      reps=40, seed=3, workers=2)
        print(f"asymptotic_variance_mc {spec} c={c} delta={delta} burn_in={burn_in} "
              f"horizon={horizon} {v!r}", file=out)
    series = dr.synthetic_temperature_series()
    fit = dr.ols_fit(series)
    for delta in (-1.0, 0.0, 0.5):
        bs = dr.bootstrap_histogram(fit, series, delta, reps=2000, seed=5)
        d = digest(bs.histogram, np.array([bs.q025, bs.q975, bs.mean]))
        print(f"bootstrap_histogram delta={delta} {d}", file=out)
    for seed in (0, 7, 2**40, FIXTURE_SEED):
        ts = dr.synthetic_temperature_series(seed)
        print(f"synthetic_temperature_series seed={seed} {digest(ts.t, ts.value)}", file=out)
    ldm = dr.LdmConfig(dr.parse_spec("normal"), c=0.1, delta=0.5)
    path = dr.simulate_ldm(ldm, 200_000, dr.replication_rng(21, 0))
    print(f"simulate_ldm n=200000 {digest(path)}", file=out)
    for n in (B - 1, B, B + 1, 3 * B + 5):
        rng = np.random.default_rng(n)
        y = np.round(4.0 * rng.standard_normal(n) + 8.0 * np.arange(n) / n) / 4.0
        for delta in (-0.5, 0.0, 0.25):
            d = digest(dr.delta_record_flags(y, delta).flags)
            print(f"delta_record_flags n={n} delta={delta} {d}", file=out)
        for at in (0, *range(B - 1, n, B)):
            y[at:at + 2] = -np.inf
        for delta in (-0.5, 0.0, 0.25):
            d = digest(_kernels.record_scan(y, delta))
            print(f"record_scan -inf n={n} delta={delta} {d}", file=out)


if __name__ == "__main__":
    main()
