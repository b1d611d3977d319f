"""Monte Carlo engine for sequences with a linear trend.

Every replication owns an independent random stream derived from
(seed, replication index), so results are identical whether the
replications run on one worker or many, and any single replication can
be reproduced in isolation.  `replicate` is the one engine behind every
Monte Carlo result of the package: it stacks the uniforms of a block of
replications and hands the block to a vectorized scan.
"""
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import record_scan
from .probability import LdmConfig

# Uniforms per block: 2**16 float64 values make each block array 512 KB.
_BLOCK_VALUES = 2**16


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Generator for one replication, derived from (seed, rep).

    Uses a spawn key rather than seed arithmetic, so streams for
    different replication indices never collide.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.PCG64(ss))


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def replicate(seed: int, reps: int, n: int, scan, workers: int = 1) -> list:
    """Apply ``scan`` to blocks of stacked uniforms; one result per block.

    Row i of the block starting at replication lo holds the n uniforms
    of ``replication_rng(seed, lo + i)``, so a scan that reduces rows
    independently gives the same per-replication values as drawing each
    replication on its own.  There are at least ``workers`` blocks, of
    at most about 2**16 values each (one row when a path is longer);
    they run on a pool of ``workers`` threads and come back in
    replication order, so the output does not depend on the worker
    count.
    """
    _require_count("replications", reps)
    _require_count("horizon n", n)
    _require_count("workers", workers)
    blocks = max(workers, math.ceil(reps * n / _BLOCK_VALUES))
    rows = math.ceil(reps / blocks)

    def run(lo: int):
        u = np.empty((min(rows, reps - lo), n), dtype=np.float64)
        for i in range(u.shape[0]):
            replication_rng(seed, lo + i).random(out=u[i])
        return scan(u)

    starts = range(0, reps, rows)
    if workers == 1:
        return [run(lo) for lo in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, starts))


@dataclass(frozen=True)
class SimulationConfig:
    """Replicated-experiment description: model, horizon, replication
    count and master seed."""

    ldm: LdmConfig
    n: int
    replications: int
    seed: int

    def __post_init__(self):
        _require_count("horizon n", self.n)
        _require_count("replications", self.replications)


@dataclass(frozen=True)
class SimSummary:
    """Aggregates over replications.

    counts holds one record count per replication; standardized holds
    sqrt(n) * (count/n - center) where center is the sample mean rate
    (or a caller-supplied reference for the limit-theorem sampler);
    stabilization_fraction is the fraction of replications whose last
    record fell in the first half of the horizon.

    stabilization_fraction proxies the unobservable event {total record
    count is finite} by "no record in the second half of the horizon".
    A finite count drives the proxy to 1 as n grows, but an infinite
    count need not drive it to 0: in the boundary case of unit-Pareto
    noise with c = -1 and delta = 0 it equals log 2 at every even
    horizon.
    """

    counts: np.ndarray
    mean_rate: float
    rate_stderr: float
    standardized: np.ndarray
    stabilization_fraction: float


def simulate_ldm(ldm: LdmConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """One path X_j + c*j for j = 1..n."""
    if n < 1:
        raise ValueError(f"horizon n must be >= 1, got {n}")
    x = ldm.dist.sample(rng, n)
    return x + ldm.c * np.arange(1, n + 1, dtype=np.float64)


def _run_replications(cfg: SimulationConfig, workers: int):
    """Per-replication (count, 1-based index of last record), in
    replication order."""
    c, delta, dist, n = cfg.ldm.c, cfg.ldm.delta, cfg.ldm.dist, cfg.n
    drift = c * np.arange(1, n + 1, dtype=np.float64)

    def scan(u):
        flags, _ = record_scan(dist.quantile(u) + drift, delta)
        return flags.sum(axis=1), n - np.argmax(flags[:, ::-1], axis=1)

    parts = replicate(cfg.seed, cfg.replications, n, scan, workers)
    counts = np.concatenate([p[0] for p in parts]).astype(np.int64)
    last = np.concatenate([p[1] for p in parts]).astype(np.int64)
    return counts, last


def _summarize(cfg: SimulationConfig, counts, last) -> SimSummary:
    rates = counts / float(cfg.n)
    mean_rate = float(rates.mean())
    if cfg.replications > 1:
        rate_stderr = float(rates.std(ddof=1) / math.sqrt(cfg.replications))
    else:
        rate_stderr = 0.0
    standardized = math.sqrt(cfg.n) * (rates - mean_rate)
    stab = float(np.mean(2 * last <= cfg.n))
    return SimSummary(
        counts=counts,
        mean_rate=mean_rate,
        rate_stderr=rate_stderr,
        standardized=standardized,
        stabilization_fraction=stab,
    )


def mc_record_rate(cfg: SimulationConfig, workers: int = 1) -> SimSummary:
    """Record rate across replications.

    mean_rate estimates the asymptotic record probability when it is
    positive; otherwise the rate drifts to 0 as n grows.
    """
    counts, last = _run_replications(cfg, workers)
    return _summarize(cfg, counts, last)


def mc_clt_sample(
    cfg: SimulationConfig, p_ref: float, workers: int = 1
) -> np.ndarray:
    """Per-replication sqrt(n) * (count/n - p_ref).

    p_ref should be the asymptotic record probability from the
    quadrature or closed-form routes; the output is the sample whose
    distribution the central limit theorem describes.
    """
    counts, _ = _run_replications(cfg, workers)
    return math.sqrt(cfg.n) * (counts / float(cfg.n) - p_ref)
