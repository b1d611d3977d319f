"""Hot loops for record scanning and lag products, in plain numpy.

The record scan works along the last axis, so a stack of paths is
scanned in one call; every row gets exactly the comparisons a 1-D scan
of that row would make, so stacked and row-by-row flags are identical.
"""
import numpy as np

# Values per Monte Carlo block (2**16 float64 values make one array
# 512 KB), and per piece of the loops that work through a longer input
# piecewise: the record scan's threshold compare and
# `_special.norm_quantile`.  A block is one piece; shorter pieces leave
# too little work per numpy call for the threads that run the blocks.
BLOCK_VALUES = 2**16


def record_scan(y, delta):
    """delta-record flags and running maxima of ``y`` along its last axis.

    The thresholds running_max + delta are formed a piece of about
    ``BLOCK_VALUES`` at a time and compared straight into the flags.
    """
    running_max = np.maximum.accumulate(y, axis=-1)
    flags = np.empty(y.shape, np.bool_)
    flags[..., 0] = True
    n = y.shape[-1]
    width = max(1, BLOCK_VALUES * n // max(y.size, 1))
    scratch = np.empty(y.shape[:-1] + (min(width, n - 1),))
    for lo in range(0, n - 1, width):
        hi = min(lo + width, n - 1)
        thresh = np.add(running_max[..., lo:hi], delta, out=scratch[..., :hi - lo])
        np.greater(y[..., lo + 1:hi + 1], thresh, out=flags[..., lo + 1:hi + 1])
    return flags, running_max


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
