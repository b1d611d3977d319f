"""Hot loops for record scanning and lag products, in plain numpy.

The record scan works along the last axis, so a stack of paths is
scanned in one call; every row gets exactly the comparisons a 1-D scan
of that row would make, so stacked and row-by-row flags are identical.
It holds only its flags: the running maximum lives one piece at a time
and is carried from piece to piece.
"""
import numpy as np

# Values per Monte Carlo block (2**16 float64 values make one array
# 512 KB), and per piece of the loops that work through a longer input
# piecewise: the record scan and `simulate.simulate_ldm`.  A block is
# one piece; shorter pieces leave too little work per numpy call for
# the threads that run the blocks.
BLOCK_VALUES = 2**16


def record_scan(y, delta):
    """delta-record flags of ``y`` along its last axis.

    Flag j is y[j] > max(y[:j]) + delta, and flag 0 is set.  The running
    maximum is formed a piece of about ``BLOCK_VALUES`` values at a
    time, in one reused scratch array: the first piece accumulates from
    column 0, and each later piece folds in the maximum carried from
    the one before.  Every flag equals the one-shot
    ``y[..., 1:] > np.maximum.accumulate(y)[..., :-1] + delta``: ``max``
    picks one of its inputs, and where the carried maximum can differ
    from the one-shot one (+0.0 against -0.0) the compare cannot tell.
    """
    flags = np.empty(y.shape, np.bool_)
    flags[..., 0] = True
    n = y.shape[-1]
    width = max(1, BLOCK_VALUES * n // max(y.size, 1))
    thresh = np.empty(y.shape[:-1] + (min(width, n - 1),))
    carry = np.empty(y.shape[:-1] + (1,))
    for lo in range(0, n - 1, width):
        hi = min(lo + width, n - 1)
        piece = np.maximum.accumulate(y[..., lo:hi], axis=-1, out=thresh[..., :hi - lo])
        if lo:
            np.maximum(piece, carry, out=piece)
        carry[...] = piece[..., -1:]
        np.add(piece, delta, out=piece)
        np.greater(y[..., lo + 1:hi + 1], piece, out=flags[..., lo + 1:hi + 1])
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
