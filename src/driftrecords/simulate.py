"""Monte Carlo engine for sequences with a linear trend.

Every replication owns an independent random stream derived from
(seed, replication index), so results are identical whether the
replications run on one worker or many, and any single replication can
be reproduced in isolation.  `replicate` is the one engine behind every
Monte Carlo result of the package.  It stacks the uniforms of a block
of replications, whole rows within 2**17 values, and hands the block to
the caller's reduction, which builds its own paths from them.  A block
holds twice the values of a piece of the record scan and `simulate_ldm`
(`_kernels.BLOCK_VALUES`): a block pays a fixed setup, and
`simulate_ldm`'s memory has no room for larger pieces.  For short rows
it computes the uniforms for every row of the block at once
(`_stream_block`), bit for bit what `replication_rng` would draw.  For
longer rows it seeds every replication in one vectorized pass
(`_pcg_seeds`) and sets one generator per block to each row's seeded
state in turn.
"""
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import BLOCK_VALUES, record_scan
from .errors import require_int
from .probability import LdmConfig

# Rows of at most this many uniforms come from `_stream_block`, at 50 to
# 60 ns per value on 2 CPUs.  A longer row is drawn in C, at about 2 ns
# per value, after 3 to 4 us to set its seeded state on its block's
# generator.  The two break even near n = 150, under this cutoff, which
# was set when a longer row paid 20 to 30 us for its own `replication_rng`.
_VECTOR_MAX_N = 512
# Values per `replicate` block: whole rows within 2**17 (1 MB of
# float64), one row when a row is longer.  A block pays a fixed setup:
# a generator, a pool hand-off and the reduction's numpy calls (about 15
# for the sigma2 window and its scan).  The record scan and
# `simulate_ldm` keep pieces of BLOCK_VALUES = 2**16, as `simulate_ldm`'s
# memory (its path and one piece of drift) has no room for 1 MB pieces.
_BLOCK_BUDGET = 2**17
# `_stream_block` works through a block in chunks of about this many
# values, so that its uint64 scratch arrays (64 KB each) stay in cache.
_CHUNK_VALUES = 2**13


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Generator for one replication, derived from (seed, rep).

    Uses a spawn key rather than seed arithmetic, so streams for
    different replication indices never collide.
    """
    require_int("seed", seed, 0)
    require_int("rep", rep, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.PCG64(ss))


# -- the streams of a block, vectorized ---------------------------------------
#
# replication_rng(seed, rep) seeds PCG64 from SeedSequence(entropy=seed,
# spawn_key=(rep,)).  Both are fixed algorithms (numpy's bit_generator.pyx
# and pcg64.h), so `_stream_block` reproduces them in numpy, all rows at once:
#   * SeedSequence hashes its entropy words (the 32-bit words of seed,
#     padded with zeros to the pool size 4, then those of rep) into a pool
#     of 4 uint32 words.  Every step before the first word of rep depends on
#     the seed alone: it leaves the pool of SeedSequence(seed), which pads
#     the same way, and a hash constant advanced once per step
#     (`_seed_pool`).  The words of rep are mixed in per row.
#   * generate_state(4, uint64) turns the pool into the 128-bit numbers s
#     and q from which PCG64 takes inc = 2q + 1 and the state M (s + inc) +
#     inc, for the LCG multiplier M.
#   * Draw k of a row is the XSL-RR output of the state k + 1 LCG steps on,
#     M^(k+2) (s + inc) + (1 + M + ... + M^(k+1)) inc mod 2**128, and
#     random() turns the 64-bit output x into (x >> 11) * 2**-53.
# 128-bit numbers are (high, low) pairs of uint64 words; a product takes
# the high word of low x low from 32-bit halves.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BITS32, _LOW32 = np.uint64(32), np.uint64(_MASK32)


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hash of a uint32 word (an int or a uint32 array)
    under hash constant h; returns the hash and the next constant."""
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def _mix_word(pool: list, word, h: int) -> int:
    """Mix an entropy word past the first four into every pool word, in
    place; returns the next hash constant."""
    for dst in range(_POOL_SIZE):
        w, h = _hashmix(word, h)
        pool[dst] = _mix(pool[dst], w)
    return h


def _seed_pool(seed: int):
    """SeedSequence's pool after every entropy word of the seed, and the
    hash constant that the first word of the spawn key meets.  Each
    entropy word, padded to at least the pool size, takes one hash step
    per pool word."""
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    h = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 2**32) & _MASK32
    return np.random.SeedSequence(seed).pool, h


def _split128(values) -> tuple:
    """128-bit ints as uint64 arrays: high word, low word, and the low
    and high 32-bit halves of the low word."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    return hi, lo, lo & _LOW32, lo >> _BITS32


@functools.cache
def _jump_tables() -> tuple:
    """For draw k < _VECTOR_MAX_N: M^(k+2) and 1 + M + ... + M^(k+1),
    mod 2**128, each split by `_split128`."""
    mult, step = [], []
    m, c = _PCG_MULT**2 % 2**128, 1 + _PCG_MULT
    for _ in range(_VECTOR_MAX_N):
        mult.append(m)
        step.append(c)
        c = (c + m) % 2**128
        m = m * _PCG_MULT % 2**128
    return _split128(mult), _split128(step)


def _pcg_seeds(seed: int, lo: int, rows: int) -> tuple:
    """Per row, s + inc and inc of the PCG64 seeding of replications
    lo..lo+rows-1, as (high, low) uint64 pairs, for lo + rows <= 2**64."""
    pool, h = _seed_pool(seed)
    reps = np.arange(lo, lo + rows, dtype=np.uint64)
    pool = [np.full(rows, w, dtype=np.uint32) for w in pool]
    h = _mix_word(pool, (reps & _LOW32).astype(np.uint32), h)
    if lo + rows - 1 > _MASK32:
        # an index past 2**32 - 1 has a second 32-bit word, mixed in
        # after the first; an index below keeps the pool of its one word
        high = reps >> _BITS32
        two = list(pool)
        _mix_word(two, high.astype(np.uint32), h)
        pool = [np.where(high != 0, w2, w1) for w1, w2 in zip(pool, two)]
    h = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        w, h = _hashmix(pool[i % _POOL_SIZE], h, _MULT_B)
        state.append(w.astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (state[2 * k] | (state[2 * k + 1] << _BITS32) for k in range(4))
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < s_lo)
    return (t_hi, t_lo), (inc_hi, inc_lo)


def _seeded_states(seeds: tuple, lo: int, rows: int):
    """PCG64's ``state`` just after its seeding, for rows lo..lo+rows-1
    of the output ``seeds`` of `_pcg_seeds`: the LCG has taken one step
    from s + inc, to M (s + inc) + inc."""
    (t_hi, t_lo), (inc_hi, inc_lo) = seeds
    words = (a[lo:lo + rows].tolist() for a in (t_hi, t_lo, inc_hi, inc_lo))
    for th, tl, ih, il in zip(*words):
        inc = ih << 64 | il
        state = (_PCG_MULT * (th << 64 | tl) + inc) % 2**128
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
               "state": {"state": state, "inc": inc}}


def _mul_add(hi, lo, x, c, t):
    """(hi, lo) += x * c mod 2**128 in place, for x = (high, low) column
    vectors (one number per row) and c a per-column `_split128` table;
    t is a scratch array of the same shape as hi."""
    x_hi, x_lo = x
    c_hi, c_lo, c0, c1 = c
    x0, x1 = x_lo & _LOW32, x_lo >> _BITS32
    # high word of x_lo * c_lo: the carries out of the middle 32-bit column
    np.multiply(x0, c0, out=t)
    mid = t >> _BITS32
    np.multiply(x0, c1, out=t)
    hi += t >> _BITS32
    t &= _LOW32
    mid += t
    np.multiply(x1, c0, out=t)
    hi += t >> _BITS32
    t &= _LOW32
    mid += t
    mid >>= _BITS32
    hi += mid
    np.multiply(x1, c1, out=t)
    hi += t
    np.multiply(x_hi, c_lo, out=t)
    hi += t
    np.multiply(x_lo, c_hi, out=t)
    hi += t
    np.multiply(x_lo, c_lo, out=t)
    lo += t
    hi += lo < t


def _stream_block(seed: int, lo: int, u: np.ndarray) -> None:
    """Fill row i of u with replication_rng(seed, lo + i).random(n), for
    n = u.shape[1] <= _VECTOR_MAX_N and lo + len(u) <= 2**64."""
    rows, n = u.shape
    base, inc = _pcg_seeds(seed, lo, rows)
    mult, step = (tuple(a[:n] for a in table) for table in _jump_tables())
    chunk = max(1, _CHUNK_VALUES // n)
    for r in range(0, rows, chunk):
        part = slice(r, r + chunk)
        hi = np.zeros(u[part].shape, dtype=np.uint64)
        lo_word, t = np.zeros_like(hi), np.empty_like(hi)
        _mul_add(hi, lo_word, (base[0][part, None], base[1][part, None]), mult, t)
        _mul_add(hi, lo_word, (inc[0][part, None], inc[1][part, None]), step, t)
        # XSL-RR: rotate high ^ low right by the top 6 bits of the state
        lo_word ^= hi
        hi >>= np.uint64(58)
        np.right_shift(lo_word, hi, out=t)
        np.subtract(np.uint64(64), hi, out=hi)
        hi &= np.uint64(63)
        lo_word <<= hi
        lo_word |= t
        lo_word >>= np.uint64(11)
        np.multiply(lo_word, 2.0**-53, out=u[part])


def replicate(seed: int, reps: int, n: int, reduce, workers: int = 1) -> list:
    """Apply ``reduce`` to blocks of stacked uniforms; one result per block.

    Row i of the block starting at replication lo holds the n uniforms
    of ``replication_rng(seed, lo + i)``, and the block is the
    reduction's to overwrite.  So a reduction that treats rows
    independently gives the same per-replication values as drawing
    each stream on its own.  Rows of at most ``_VECTOR_MAX_N`` values
    are drawn for the whole block at once by `_stream_block`.  Longer
    rows are seeded for the whole call in one `_pcg_seeds` pass, and
    each block draws them from one generator whose state it sets to
    each row's seeded state in turn.  There are at least ``workers``
    blocks, of at most ``_BLOCK_BUDGET`` = 2**17 values each (one row
    when a row is longer), so that each block's fixed setup is paid
    for few values; they run on a pool of ``workers`` threads and come
    back in replication order, so the output does not depend on the
    block split or the worker count.
    """
    require_int("seed", seed, 0)
    require_int("reps", reps, 1)
    require_int("n", n, 1)
    require_int("workers", workers, 1)
    seed = int(seed)
    blocks = max(workers, math.ceil(reps / max(1, _BLOCK_BUDGET // n)))
    rows = math.ceil(reps / blocks)
    if n > _VECTOR_MAX_N:
        seeds = _pcg_seeds(seed, 0, reps)

    def run(lo: int):
        u = np.empty((min(rows, reps - lo), n), dtype=np.float64)
        if n <= _VECTOR_MAX_N:
            _stream_block(seed, lo, u)
        else:
            # the seed of PCG64(0) is overwritten before every draw
            rng = np.random.Generator(np.random.PCG64(0))
            for row, state in zip(u, _seeded_states(seeds, lo, len(u))):
                rng.bit_generator.state = state
                rng.random(out=row)
        return reduce(u)

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
        require_int("n", self.n, 1)
        require_int("replications", self.replications, 1)
        require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class SimSummary:
    """Aggregates over replications.

    counts holds one record count per replication; standardized holds
    sqrt(n) * (count/n - mean_rate); stabilization_fraction is the
    fraction of replications whose last record fell in the first half of
    the horizon.

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
    """One path X_j + c*j for j = 1..n.

    The path is filled a piece of ``BLOCK_VALUES`` at a time: uniforms,
    then their quantiles in place, then the drift, so the call holds the
    path and one piece of drift.  ``rng`` draws one double per value, in
    order, so the path has the bits of the one-shot
    ``dist.quantile(rng.random(n)) + c * np.arange(1, n + 1)``.
    """
    require_int("n", n, 1)
    x = np.empty(n, dtype=np.float64)
    for lo in range(0, n, BLOCK_VALUES):
        piece = x[lo:lo + BLOCK_VALUES]
        rng.random(out=piece)
        ldm.dist.quantile(piece, out=piece)
        drift = np.arange(lo + 1, lo + 1 + piece.shape[0], dtype=np.float64)
        drift *= ldm.c
        piece += drift
        del drift  # freed before the next piece makes its own
    return x


def mc_record_rate(cfg: SimulationConfig, workers: int = 1) -> SimSummary:
    """Record rate across replications.

    mean_rate estimates the asymptotic record probability when it is
    positive; otherwise the rate drifts to 0 as n grows.
    """
    ldm, n = cfg.ldm, cfg.n
    drift = ldm.c * np.arange(1, n + 1, dtype=np.float64)

    def reduce(u):
        x = ldm.dist.quantile(u, out=u)
        x += drift
        flags = record_scan(x, ldm.delta)
        return flags.sum(axis=1), n - np.argmax(flags[:, ::-1], axis=1)

    parts = replicate(cfg.seed, cfg.replications, n, reduce, workers)
    counts = np.concatenate([p[0] for p in parts]).astype(np.int64)
    last = np.concatenate([p[1] for p in parts]).astype(np.int64)
    rates = counts / float(n)
    mean_rate = float(rates.mean())
    if cfg.replications > 1:
        rate_stderr = float(rates.std(ddof=1) / math.sqrt(cfg.replications))
    else:
        rate_stderr = 0.0
    return SimSummary(
        counts=counts,
        mean_rate=mean_rate,
        rate_stderr=rate_stderr,
        standardized=math.sqrt(n) * (rates - mean_rate),
        stabilization_fraction=float(np.mean(2 * last <= n)),
    )
