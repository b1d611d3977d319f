"""Hot loops for record scanning and lag products, in plain numpy.

The record scan works along the last axis, so a stack of paths is
scanned in one call; every row gets exactly the comparisons a 1-D scan
of that row would make, so stacked and row-by-row flags are identical.
It holds only its flags: the running maximum lives one piece at a time
and is carried from piece to piece.

A stack of long rows is scanned one row at a time.  Under numpy 2.4 a
2-D ``np.maximum.accumulate(..., axis=-1)`` holds the GIL for the whole
call, at any shape, while a 1-D one releases it, so the two threads of
the Monte Carlo pool scan their blocks at the same time only row by
row.  The three numpy calls per row cost more than that overlap saves
on short rows.  On 2 CPUs, with 2 threads each scanning its own blocks
of 2**16 values, a stack took 7.4 ns a value whole and 11.1 row by row
at 1536 values a row, 7.1 and 6.7 at 2047, 7.0 and 4.9 at 4001, and
7.5 and 4.0 at 20000.  On one thread the rows cost 1.2 ns a value more
at 2047 and 0.6 more at 4001.
"""
import numpy as np

# Values per Monte Carlo block (2**16 float64 values make one array
# 512 KB), and per piece of the loops that work through a longer input
# piecewise: the record scan and `simulate.simulate_ldm`.  A block is
# one piece; shorter pieces leave too little work per numpy call for
# the threads that run the blocks.
BLOCK_VALUES = 2**16
# Rows of at least this many values are scanned one at a time, in 1-D
# calls that release the GIL; shorter rows are scanned as one stack.
_ROW_SCAN_MIN = BLOCK_VALUES // 32


def record_scan(y, delta):
    """delta-record flags of ``y`` along its last axis.

    Flag j is y[j] > max(y[:j]) + delta, and flag 0 is set.  The running
    maximum is formed a piece of about ``BLOCK_VALUES`` values at a
    time, in one reused scratch array: the first piece accumulates from
    column 0, and each later piece folds in the maximum carried from
    the one before.  A stack of rows of at least ``_ROW_SCAN_MIN``
    values is scanned one row at a time, into one reused scratch row,
    because only a 1-D accumulate releases the GIL (see the module
    docstring); a shorter stack is scanned whole.  Every flag equals
    the one-shot ``y[..., 1:] > np.maximum.accumulate(y)[..., :-1] +
    delta``: ``max`` picks one of its inputs, and where the carried
    maximum can differ from the one-shot one (+0.0 against -0.0) the
    compare cannot tell.
    """
    flags = np.empty(y.shape, np.bool_)
    flags[..., 0] = True
    n = y.shape[-1]
    if n == 1:
        return flags
    if y.ndim == 1 or n < _ROW_SCAN_MIN:
        width = max(1, BLOCK_VALUES * n // max(y.size, 1))
        _scan(y, delta, flags, np.empty(y.shape[:-1] + (min(width, n - 1),)))
        return flags
    thresh = np.empty(min(BLOCK_VALUES, n - 1))
    for row, out in zip(y.reshape(-1, n), flags.reshape(-1, n)):
        if n - 1 > BLOCK_VALUES:
            _scan(row, delta, out, thresh)
        else:
            # `_scan`'s three calls, inline: the other thread waits for
            # the Python run between two GIL-free calls, and `_scan`'s
            # loop made the rows lose to the whole stack up to 3000
            # values a row
            np.maximum.accumulate(row[:-1], out=thresh)
            np.add(thresh, delta, out=thresh)
            np.greater(row[1:], thresh, out=out[1:])
    return flags


def _scan(y, delta, flags, thresh):
    """Flags 1.. of `record_scan` into ``flags``, a piece of
    ``thresh.shape[-1]`` columns at a time."""
    n, width = y.shape[-1], thresh.shape[-1]
    for lo in range(0, n - 1, width):
        hi = min(lo + width, n - 1)
        piece = np.maximum.accumulate(y[..., lo:hi], axis=-1, out=thresh[..., :hi - lo])
        if lo:
            np.maximum(piece, carry, out=piece)
        if hi < n - 1:
            carry = piece[..., -1:].copy()
        np.add(piece, delta, out=piece)
        np.greater(y[..., lo + 1:hi + 1], piece, out=flags[..., lo + 1:hi + 1])


def lag_products(z, lag_max):
    """sum_j z[j] z[j+k] for k = 1..lag_max, as BLAS dot products.

    On 0/1 indicator inputs the products and sums are exact integers, so
    the summation order cannot matter.  On general inputs the order is
    the BLAS library's, which can split one dot product across its
    threads, so the last bits can change with the thread count: on a
    1e6-point flag path ``variance_estimator`` gave 0.0151410729711048
    with 2 OpenBLAS threads and 0.01514107297121852 with 1.
    """
    out = np.empty(lag_max, np.float64)
    for k in range(1, lag_max + 1):
        out[k - 1] = float(np.dot(z[:-k], z[k:])) if k < z.shape[0] else 0.0
    return out
