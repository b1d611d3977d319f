"""Hot loops for record scanning and lag products, in plain numpy.

The record scan takes a stack of short rows whole and any other input
one row at a time.  Under numpy 2.4 a 2-D ``np.maximum.accumulate(...,
axis=-1)`` holds the GIL for the whole call, at any shape, while a 1-D
one releases it, so the two threads of the Monte Carlo pool scan their
blocks at the same time only row by row.  The three numpy calls per row
cost more than that overlap saves on short rows.  On 2 CPUs, with 2
threads each scanning its own blocks of 2**16 values, a stack took 7.4
ns a value whole and 11.1 row by row at 1536 values a row, 7.1 and 6.7
at 2047, 7.0 and 4.9 at 4001, and 7.5 and 4.0 at 20000.  On one thread
the rows cost 1.2 ns a value more at 2047 and 0.6 more at 4001.
"""
import numpy as np

# Values per piece of the loops that work through a long row piecewise:
# the record scan and `simulate.simulate_ldm` (2**16 float64 values make
# one array 512 KB).  Shorter pieces leave too little work per numpy
# call for the threads that run the Monte Carlo blocks, which hold up
# to twice as many values (`simulate._BLOCK_BUDGET`).
BLOCK_VALUES = 2**16
# Rows of at least this many values are scanned one at a time, in 1-D
# calls that release the GIL; a stack of shorter rows is scanned whole.
_ROW_SCAN_MIN = BLOCK_VALUES // 32


def record_scan(y, delta):
    """delta-record flags of ``y`` along its last axis.

    Flag j is y[j] > max(y[:j]) + delta, and flag 0 is set.  A stack of
    rows shorter than ``_ROW_SCAN_MIN`` is scanned whole: one 2-D
    running maximum, delta added in place and a compare into the flags.
    Any other input, 1-D included, is scanned one row at a time into one
    reused scratch row, and a row longer than ``BLOCK_VALUES`` a piece of
    that many values at a time, each piece after the first folding in
    the maximum carried from the one before.  Every flag equals the
    one-shot ``y[..., 1:] > np.maximum.accumulate(y)[..., :-1] + delta``:
    ``max`` picks one of its inputs, and where the carried maximum can
    differ from the one-shot one (+0.0 against -0.0) the compare cannot
    tell.
    """
    flags = np.empty(y.shape, np.bool_)
    flags[..., 0] = True
    n = y.shape[-1]
    if n == 1:
        return flags
    if y.ndim > 1 and n < _ROW_SCAN_MIN:
        thresh = np.maximum.accumulate(y[..., :-1], axis=-1)
        np.add(thresh, delta, out=thresh)
        np.greater(y[..., 1:], thresh, out=flags[..., 1:])
        return flags
    thresh = np.empty(min(BLOCK_VALUES, n - 1))
    for row, out in zip(y.reshape(-1, n), flags.reshape(-1, n)):
        if n - 1 <= BLOCK_VALUES:
            # three calls in a row: the other thread waits for the Python
            # run between two GIL-free calls, and a piece loop here made
            # the rows lose to the whole stack up to 3000 values a row
            np.maximum.accumulate(row[:-1], out=thresh)
            np.add(thresh, delta, out=thresh)
            np.greater(row[1:], thresh, out=out[1:])
            continue
        for lo in range(0, n - 1, BLOCK_VALUES):
            hi = min(lo + BLOCK_VALUES, n - 1)
            piece = np.maximum.accumulate(row[lo:hi], out=thresh[:hi - lo])
            if lo:
                np.maximum(piece, carry, out=piece)
            carry = piece[-1]
            np.add(piece, delta, out=piece)
            np.greater(row[lo + 1:hi + 1], piece, out=out[lo + 1:hi + 1])
    return flags


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
