"""Workloads of the driftrecords benchmark.

A workload turns a seed into inputs and the inputs into passes.  A pass
is the list of public calls that the single closed-loop caller makes one
after the other; pass k of a seed is always the same list.  Every call
carries the check that decides, after timing, whether its result is
correct.  The package is always reached through module attributes at
call time, so a tracer that rewraps those attributes sees every call.
"""
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import driftrecords as dr
from driftrecords import cli
from driftrecords import closed_form as cf

WORKLOADS = ("quad", "mc")

# The seed the stored references in reference.json were made for.  Other
# seeds check the closed-form families and the statistical gates only.
DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Monte Carlo means must lie within this many standard errors of sum_k p_k.
MC_SIGMAS = 5.0

# Quad inputs on which the package is known to return a wrong value or an
# error bound smaller than its error.  A workload must be made of calls
# that succeed, so these calls are left out of the timed passes; each run
# makes them once afterwards, untimed, and reports whether they still fail.
KNOWN_DEFECTS = {
    "D1": "Dagum(b=1,q=2) p_n at c=1, delta=0, n=1e4 is off by 13x its bound",
    "D2": "Dagum dependence index for delta<0 is ~1e-16 instead of ~1.1",
    "D3": "Uniform p, p_n and index exceed their bounds up to 4x (kinked integrands)",
    "D4": "Pareto and Exponential index for delta<0, c<1 exceed their bounds up to 2.5x",
}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

LAWS = (
    ("normal", dr.Normal()),
    ("gumbel", dr.Gumbel()),
    ("pareto1", dr.ParetoUnit()),
    ("dagum", dr.Dagum(b=1.0, q=2.0)),
    ("uniform", dr.Uniform()),
    ("exp", dr.Exponential()),
)

# Zero-trend finiteness verdicts for delta > 0, from the tails: infinite
# right-tail mean (pareto1, dagum) or an exponential-type tail (gumbel,
# exp) makes the survival-ratio integral diverge.
EXPECTED_FINITENESS = {
    "normal": dr.ALMOST_SURELY_FINITE,
    "gumbel": dr.INFINITE,
    "pareto1": dr.INFINITE,
    "dagum": dr.INFINITE,
    "uniform": dr.ALMOST_SURELY_FINITE,
    "exp": dr.INFINITE,
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of all three workloads."""

    decades: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    pn_decades: int = 3
    n_grid: tuple = (2, 10, 100, 1000, 10000)
    dep_n: tuple = (5, 50)
    short_n: int = 20
    short_reps: int = 5000
    boot_reps: int = 2000
    long_n: int = 20000
    long_reps: int = 200
    sigma2_kwargs: tuple = ()
    path_len: int = 10 ** 6


FULL = Sizes()
# Reduced sizes for the self-test: every call kind still appears.
SMALL = Sizes(
    decades=(1e-1, 1e-2),
    pn_decades=2,
    n_grid=(2, 10, 100),
    dep_n=(5,),
    short_reps=200,
    boot_reps=1000,
    long_n=2000,
    long_reps=20,
    sigma2_kwargs=(("horizon", 400), ("burn_in", 200), ("reps", 20)),
    path_len=10 ** 4,
)
SCALES = {"full": FULL, "small": SMALL}


@dataclass
class Call:
    """One public call: ``fn`` is timed, ``after`` runs untimed right
    after it, ``check`` returns None when the result is correct and a
    reason otherwise."""

    key: str
    api: str
    fn: Callable[[], object]
    check: Callable[[object], Optional[str]]
    obs: int = 0
    after: Optional[Callable[[object], object]] = None
    ref: Optional[tuple] = None
    defect: Optional[str] = None
    compared: bool = False  # checked against a closed form or stored reference
    workers: int = 0  # threads of the package's pool; 0 when there is none


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def mc_digest(api: str, res) -> str:
    """Text that a bit-reproducible Monte Carlo result must match exactly."""
    if api == "mc_record_rate":
        return _digest(np.ascontiguousarray(res.counts, dtype="<i8").tobytes())
    if api == "cli.analyze":
        _, text, hist = res
        payload = json.loads(text)
        return _digest((hist + repr(payload["p_hat"]) + repr(payload["sigma2_tilde"])).encode())
    if api == "asymptotic_variance_mc":
        return repr(res)
    return repr(res.sigma2)  # variance_estimator


def _ldm(dist, c, delta):
    return dr.LdmConfig(dist, float(c), float(delta))


def _prob_sane(res) -> Optional[str]:
    if not isinstance(res, dr.ProbResult):
        return f"expected ProbResult, got {type(res).__name__}: {res!r}"[:200]
    if not (math.isfinite(res.value) and 0.0 <= res.value <= 1.0):
        return f"value {res.value!r} outside [0, 1]"
    if not (math.isfinite(res.abs_error_bound) and res.abs_error_bound >= 0.0):
        return f"bound {res.abs_error_bound!r} is not a finite nonnegative number"
    return None


def _within(value, bound, ref, what) -> Optional[str]:
    err = abs(value - ref)
    if err <= bound:
        return None
    return f"|value - {what}| = {err:.3e} exceeds {bound:.3e} (value {value!r}, ref {ref!r})"


def ref_id(ref) -> str:
    """Exact text form of a reference spec (quantity, law, c, delta, n)."""
    quantity, law, c, delta, n = ref
    return f"{quantity}|{law}|{float(c)!r}|{float(delta)!r}|{int(n)}"


class Checker:
    """Reference data shared by the checks of one run."""

    def __init__(self, seed: int, sizes: Sizes):
        self.stored = {}
        self.stored_mc = {}
        if seed == DEFAULT_SEED and sizes == FULL and os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                ref = json.load(fh)
            if ref.get("seed") == seed:
                self.stored = ref.get("quad", {})
                self.stored_mc = ref.get("mc", {})
        self._sums = {}

    def stored_digest(self, key, api, res) -> Optional[str]:
        """None when there is no stored digest or it matches, else a reason."""
        want = self.stored_mc.get(key)
        got = mc_digest(api, res)
        if want is None or got == want:
            return None
        return f"{got} differs from the stored {want}"

    def stored_quad(self, key, ref):
        """Stored (value, bound) for ``key``, None when there is none, and
        a mismatch reason when it was made for other inputs."""
        entry = self.stored.get(key)
        if entry is None:
            return None
        if entry["ref"] != ref_id(ref):
            return f"stored reference {key} was made for {entry['ref']}, not {ref_id(ref)}"
        return entry["value"], entry["bound"]

    def expected_count(self, dist, c, delta, n):
        """sum_{k=1..n} p_k with a slack covering every bound used."""
        key = (dist, c, delta, n)
        if key not in self._sums:
            if dist == dr.Gumbel():
                total = sum(cf.gumbel_p_n_delta(c, delta, k) for k in range(1, n + 1))
                slack = 1e-9 * n  # rounding of the closed form, generously
            else:
                cfg = _ldm(dist, c, delta)
                head = min(n, 300)
                parts = [dr.p_n_delta(cfg, k) for k in range(1, head + 1)]
                total = sum(p.value for p in parts)
                slack = sum(p.abs_error_bound for p in parts)
                if n > head:
                    lim = dr.p_delta(cfg)
                    total += (n - head) * lim.value
                    gap = abs(parts[-1].value - lim.value) + lim.abs_error_bound
                    slack += (n - head) * gap
            self._sums[key] = (total, slack)
        return self._sums[key]


# ---------------------------------------------------------------------------
# quad: the quadrature sweep
# ---------------------------------------------------------------------------


# Passes of one quad run share a lattice: pass k uses point k / LATTICE
# (shifted again by the golden ratio every LATTICE passes).
LATTICE = 4


class QuadInputs:
    """Seeded (c, delta) draws.  Each cell (law, decade) has a seeded
    offset; pass k takes lattice point k of that offset through the tent
    map u -> 1 - |2u - 1|.  Every draw is log-uniform in c over its decade
    and uniform in delta, and the passes of one run cover both ranges
    evenly, so the work of a run changes little from seed to seed."""

    def __init__(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng([seed, 0])
        shape = (len(LAWS), len(sizes.decades))
        self.c_offset = rng.random(shape)
        self.delta_offset = rng.random(shape)
        self.anchor_offset = float(rng.random())
        self.sizes = sizes

    @staticmethod
    def _point(offset, k):
        v = (offset + k / LATTICE + (k // LATTICE) * _GOLDEN / LATTICE) % 1.0
        return 1.0 - abs(2.0 * v - 1.0)

    def c(self, law, decade, k):
        u = self._point(self.c_offset[law, decade], k)
        return float(self.sizes.decades[decade] * 10.0 ** u)

    def delta(self, law, decade, k):
        return float(-0.5 + 1.5 * self._point(self.delta_offset[law, decade], k))

    def anchor_delta(self, k):
        return float(-0.5 + 1.5 * self._point(self.anchor_offset, k))


def _quad_sane(res) -> Optional[str]:
    if isinstance(res, dr.ProbResult):
        return _prob_sane(res)
    if not isinstance(res, dr.DependenceIndexResult):
        return f"unexpected result {type(res).__name__}: {res!r}"[:200]
    if not (math.isfinite(res.value) and res.value >= 0.0):
        return f"index {res.value!r} is not a finite nonnegative number"
    if not (math.isfinite(res.abs_error_bound) and res.abs_error_bound >= 0.0):
        return f"bound {res.abs_error_bound!r} is not a finite nonnegative number"
    return None


def _quad_call(key, api, fn, checker, closed=None, ref=None, refusal=None, defect=None):
    """A quadrature call checked against ``closed()`` when the family has
    a closed form at these parameters, otherwise against the stored
    reference for ``ref`` = (quantity, law, c, delta, n) when one exists.
    ``refusal`` judges an IllConditionedError."""

    def check(res):
        if refusal is not None and isinstance(res, dr.IllConditionedError):
            return refusal()
        reason = _quad_sane(res)
        if reason is not None:
            return reason
        if closed is not None:
            return _within(res.value, res.abs_error_bound, closed(), "closed form")
        stored = checker.stored_quad(key, ref) if ref is not None else None
        if isinstance(stored, str):
            return stored
        if stored is not None:
            value, bound = stored
            return _within(res.value, res.abs_error_bound + bound, value, "stored reference")
        return None

    compared = closed is not None or (ref is not None and key in checker.stored)
    return Call(key=key, api=api, fn=fn, check=check, ref=ref, defect=defect, compared=compared)


def _dep_call(key, cfg, n, checker, closed=None, ref=None, defect=None):
    def refusal():
        # Documented refusal: valid only when a marginal really is below
        # the floor of 10 * tol.
        floor = 10.0 * dr.probability.DEFAULT_TOL
        low = min(dr.p_n_delta(cfg, n).value, dr.p_n_delta(cfg, n + 1).value)
        return None if low <= floor else f"refused although min(p_n, p_n1) = {low:.3e}"

    return _quad_call(key, "dependence_index_result",
                      lambda: dr.dependence_index_result(cfg, n),
                      checker, closed=closed, ref=ref, refusal=refusal, defect=defect)


def quad_pass(inputs: QuadInputs, checker: Checker, k: int):
    """The calls of pass ``k``."""
    sizes = inputs.sizes
    calls = []
    for li, (name, dist) in enumerate(LAWS):
        uniform = "D3" if name == "uniform" else None
        for di in range(len(sizes.decades)):
            c, delta = inputs.c(li, di, k), inputs.delta(li, di, k)
            cfg = _ldm(dist, c, delta)
            closed = ref = None
            if name == "gumbel":
                closed = (lambda c=c, delta=delta: cf.gumbel_p_delta(c, delta))
            elif name in ("pareto1", "dagum"):
                closed = (lambda: 0.0)  # infinite right-tail mean: p = 0
            else:
                ref = ("p", name, c, delta, 0)
            calls.append(_quad_call(f"{k}|p|{name}|d{di}", "p_delta",
                                    lambda cfg=cfg: dr.p_delta(cfg),
                                    checker, closed, ref, defect=uniform))
            if di >= sizes.pn_decades:
                continue
            for n in sizes.n_grid:
                closed = ref = None
                if name == "gumbel":
                    closed = (lambda c=c, delta=delta, n=n: cf.gumbel_p_n_delta(c, delta, n))
                else:
                    ref = ("p_n", name, c, delta, n)
                calls.append(_quad_call(f"{k}|p_n|{name}|d{di}|n{n}", "p_n_delta",
                                        lambda cfg=cfg, n=n: dr.p_n_delta(cfg, n),
                                        checker, closed, ref, defect=uniform))
        c_dep = inputs.c(li, 1, k)
        for delta in (0.5, -0.5):
            cfg = _ldm(dist, c_dep, delta)
            defect = uniform
            if delta < 0 and name == "dagum":
                defect = "D2"
            elif delta < 0 and name in ("pareto1", "exp"):
                defect = "D4"
            for n in sizes.dep_n:
                calls.append(_dep_call(f"{k}|L|{name}|{delta:+}|n{n}", cfg, n, checker,
                                       ref=("L", name, c_dep, delta, n), defect=defect))
        for delta in (0.5, 2.0):
            cfg = _ldm(dist, 0.0, delta)
            want = EXPECTED_FINITENESS[name]
            calls.append(Call(
                key=f"{k}|finiteness|{name}|{delta:+}", api="classify_finiteness",
                fn=lambda cfg=cfg: dr.classify_finiteness(cfg),
                check=lambda res, want=want: None if getattr(res, "verdict", None) == want
                else f"verdict {res!r}, expected {want}"))
            calls.append(Call(
                key=f"{k}|positivity|{name}|{delta:+}", api="classify_positivity",
                fn=lambda cfg=cfg: dr.classify_positivity(cfg),
                check=lambda res: None if res is False else f"positivity {res!r}, expected False"))

    # Closed-form anchors at unit trend, where the Pareto and Dagum forms
    # hold and the Gumbel index has converged to its limit by n = 50.
    delta = inputs.anchor_delta(k)
    pareto = _ldm(dr.ParetoUnit(), 1.0, delta)
    dagum = _ldm(dr.Dagum(b=1.0, q=2.0), 1.0, 0.0)
    for n in sizes.n_grid:
        calls.append(_quad_call(
            f"{k}|p_n|pareto1|c1|n{n}", "p_n_delta",
            lambda n=n: dr.p_n_delta(pareto, n), checker,
            closed=lambda n=n: cf.pareto_p_n_delta(delta, n)))
        calls.append(_quad_call(
            f"{k}|p_n|dagum|c1|n{n}", "p_n_delta",
            lambda n=n: dr.p_n_delta(dagum, n), checker,
            closed=lambda n=n: cf.dagum_p_n0(2.0, n), defect="D1" if n == 10000 else None))
    for d in (0.5, -0.5):
        for n in sizes.dep_n:
            calls.append(_dep_call(
                f"{k}|L|pareto1|c1|{d:+}|n{n}", _ldm(dr.ParetoUnit(), 1.0, d), n, checker,
                closed=lambda d=d, n=n: cf.pareto_l_n(d, n)))
        calls.append(_dep_call(
            f"{k}|L|gumbel|c1|{d:+}|n50", _ldm(dr.Gumbel(), 1.0, d), 50, checker,
            closed=lambda d=d: cf.gumbel_l_inf(1.0, d)))
    return calls


# ---------------------------------------------------------------------------
# mc: the replicated Monte Carlo engine
# ---------------------------------------------------------------------------


def _mc_seeds(seed, stream, count):
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count)]


def _mc_rate_call(key, dist, c, delta, n, reps, sim_seed, workers, checker):
    cfg = dr.SimulationConfig(ldm=_ldm(dist, c, delta), n=n, replications=reps, seed=sim_seed)

    def check(res):
        if not isinstance(res, dr.SimSummary):
            return f"expected SimSummary, got {res!r}"[:200]
        counts = np.asarray(res.counts)
        if counts.shape != (reps,) or counts.min() < 1 or counts.max() > n:
            return f"counts of shape {counts.shape} in [{counts.min()}, {counts.max()}]"
        reason = checker.stored_digest(key, "mc_record_rate", res)
        if reason is not None:
            return reason
        total, slack = checker.expected_count(dist, c, delta, n)
        se = float(counts.std(ddof=1)) / math.sqrt(reps)
        return _within(float(counts.mean()), MC_SIGMAS * se + slack, total, "sum_k p_k")

    return Call(key=key, api="mc_record_rate",
                fn=lambda: dr.mc_record_rate(cfg, workers=workers),
                check=check, obs=n * reps, workers=workers if workers > 1 else 0)


def _scan_count(values, delta):
    """Delta-record count by a plain loop, independent of the package."""
    count, best = 1, values[0]
    for v in values[1:]:
        if v > best + delta:
            count += 1
        best = max(best, v)
    return count


class McShortInputs:
    """Short-path inputs of ``mc``: simulation seeds, the bootstrap seed and
    threshold, and the synthetic yearly series written to a CSV file."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.seeds = _mc_seeds(seed, 1, 3)
        self.analyze_delta = float(np.random.default_rng([seed, 2]).uniform(0.0, 0.2))
        self.series = dr.synthetic_temperature_series(seed)
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "series.csv")
        with open(self.csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            for t, v in zip(self.series.t, self.series.value):
                writer.writerow([int(t), repr(float(v))])
        # The CSV round trip is exact: repr of a float parses back to it.
        self.values = [float(v) for v in self.series.value]


def _analyze_call(inputs: McShortInputs, checker: Checker):
    sizes = inputs.sizes
    out_path = os.path.join(inputs.workdir, "report.json")
    hist_path = os.path.join(inputs.workdir, "histogram.csv")
    argv = [
        "analyze", "--input", inputs.csv_path, "--delta", repr(inputs.analyze_delta),
        "--bootstrap", str(sizes.boot_reps), "--seed", str(inputs.seeds[2]),
        "--workers", "1", "--out", out_path,
    ]
    key = "analyze"

    def fn():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def after(res):
        code, text = res
        with open(hist_path, encoding="utf-8") as fh:
            hist = fh.read()
        return code, text, hist

    def check(res):
        if not isinstance(res, tuple):
            return f"analyze raised {res!r}"[:200]
        code, text, hist = res
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        n = len(inputs.values)
        want_count = _scan_count(inputs.values, inputs.analyze_delta)
        if payload["n"] != n or payload["count"] != want_count:
            return f"n={payload['n']} count={payload['count']}, expected {n} and {want_count}"
        boot = payload["bootstrap"]
        if boot is None or boot["reps"] != sizes.boot_reps:
            return f"bootstrap block {boot!r}"
        rows = list(csv.reader(io.StringIO(hist)))[1:]
        values = np.array([int(r[0]) for r in rows], dtype=np.float64)
        freq = np.array([int(r[1]) for r in rows], dtype=np.float64)
        if int(freq.sum()) != sizes.boot_reps:
            return f"histogram holds {int(freq.sum())} paths"
        mean = float((values * freq).sum() / freq.sum())
        var = float((freq * (values - mean) ** 2).sum() / (freq.sum() - 1.0))
        reason = checker.stored_digest(key, "cli.analyze", res)
        if reason is not None:
            return reason
        fit = payload["trend_fit"]
        noise = dr.Normal(0.0, fit["sigma_eps"])
        total, slack = checker.expected_count(noise, fit["beta1"], inputs.analyze_delta, n)
        se = math.sqrt(var / sizes.boot_reps)
        return _within(mean, MC_SIGMAS * se + slack, total, "sum_k p_k")

    return Call(key=key, api="cli.analyze", fn=fn, check=check, after=after,
                obs=len(inputs.values) * (sizes.boot_reps + 1))


def mc_short_pass(inputs: McShortInputs, checker: Checker, k: int):
    s = inputs.sizes
    return [
        _mc_rate_call("mc_record_rate|normal", dr.Normal(), 0.1, 0.5,
                      s.short_n, s.short_reps, inputs.seeds[0], 1, checker),
        _mc_rate_call("mc_record_rate|gumbel", dr.Gumbel(), 0.1, 0.0,
                      s.short_n, s.short_reps, inputs.seeds[1], 1, checker),
        _analyze_call(inputs, checker),
    ]


LONG_WORKERS = 2
LONG_LDM = (dr.Normal(), 0.1, 0.5)


class McLongInputs:
    """Long-path inputs of ``mc``: simulation seeds and the record flags of one
    long simulated path."""

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.seeds = _mc_seeds(seed, 3, 4)
        dist, c, delta = LONG_LDM
        rng = dr.replication_rng(self.seeds[3], 0)
        path = dr.simulate_ldm(_ldm(dist, c, delta), sizes.path_len, rng)
        self.flags = dr.delta_record_flags(path, delta)


def mc_long_pass(inputs: McLongInputs, checker: Checker, k: int):
    s = inputs.sizes
    dist, c, delta = LONG_LDM
    ldm = _ldm(dist, c, delta)
    sigma2_kwargs = dict(s.sigma2_kwargs)
    horizon = sigma2_kwargs.get("horizon", 4000)
    burn_in = sigma2_kwargs.get("burn_in", 2000)
    reps = sigma2_kwargs.get("reps", 200)

    def sigma2_check(res):
        if not (isinstance(res, float) and math.isfinite(res) and res > 0.0):
            return f"sigma2 {res!r} is not a finite positive number"
        return checker.stored_digest("asymptotic_variance_mc", "asymptotic_variance_mc", res)

    def estimator_check(res):
        if not isinstance(res, dr.VarianceEstimate):
            return f"expected VarianceEstimate, got {res!r}"[:200]
        if not (math.isfinite(res.sigma2) and res.sigma2 >= 0.0):
            return f"sigma2 {res.sigma2!r} is not a finite nonnegative number"
        ind = inputs.flags.flags
        n = ind.shape[0]
        p_hat = float(ind.mean())
        reason = _within(res.gammas[0], 1e-12, p_hat * (1.0 - p_hat), "p_hat (1 - p_hat)")
        if reason is not None:
            return reason
        reason = checker.stored_digest("variance_estimator", "variance_estimator", res)
        if reason is not None:
            return reason
        total, slack = checker.expected_count(dist, c, delta, n)
        tol = MC_SIGMAS * math.sqrt(max(res.sigma2, p_hat * (1.0 - p_hat)) / n) + slack / n
        return _within(p_hat, tol, total / n, "mean of p_k")

    return [
        _mc_rate_call("mc_record_rate_long|normal", dr.Normal(), 0.1, 0.5,
                      s.long_n, s.long_reps, inputs.seeds[0], LONG_WORKERS, checker),
        _mc_rate_call("mc_record_rate_long|gumbel", dr.Gumbel(), 0.1, 0.0,
                      s.long_n, s.long_reps, inputs.seeds[1], LONG_WORKERS, checker),
        Call(key="asymptotic_variance_mc", api="asymptotic_variance_mc",
             fn=lambda: dr.asymptotic_variance_mc(
                 ldm, seed=inputs.seeds[2], workers=LONG_WORKERS, **sigma2_kwargs),
             check=sigma2_check, obs=(horizon + burn_in) * reps, workers=LONG_WORKERS),
        Call(key="variance_estimator", api="variance_estimator",
             fn=lambda: dr.variance_estimator(inputs.flags),
             check=estimator_check, obs=s.path_len),
    ]


class McInputs:
    """Inputs of ``mc``: the short-path part and the long-path part."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.short = McShortInputs(seed, sizes, workdir)
        self.long = McLongInputs(seed, sizes)


def mc_pass(inputs: McInputs, checker: Checker, k: int):
    """Short paths on one worker and the analyze CLI, then long paths on
    the pool, sigma2 and the variance estimator."""
    return mc_short_pass(inputs.short, checker, k) + mc_long_pass(inputs.long, checker, k)


# ---------------------------------------------------------------------------


class Workload:
    """Inputs plus the pass builder of one named workload."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: str):
        self.name = name
        self.checker = Checker(seed, sizes)
        if name == "quad":
            self.inputs = QuadInputs(seed, sizes)
            self._pass = quad_pass
            self.workers = 0
            # Every lattice point once per cycle; repeats give each call
            # a best-of latency.
            self.distinct_passes = LATTICE
        elif name == "mc":
            self.inputs = McInputs(seed, sizes, workdir)
            self._pass = mc_pass
            self.workers = LONG_WORKERS
            self.distinct_passes = 1
        else:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

    def calls(self, k: int):
        """The timed calls of pass ``k``."""
        return [call for call in self._pass(self.inputs, self.checker, k) if call.defect is None]

    def defect_calls(self, k: int):
        """The calls of pass ``k`` that hit a known defect (see KNOWN_DEFECTS)."""
        return [call for call in self._pass(self.inputs, self.checker, k) if call.defect is not None]


def perturb(call: Call, result):
    """Move a Gumbel p_n result by ten times its bound (self-test only)."""
    if "|p_n|gumbel|d" in call.key and isinstance(result, dr.ProbResult):
        return dataclasses.replace(result, value=result.value + 10.0 * result.abs_error_bound)
    return result
