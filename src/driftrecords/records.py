"""Threshold-record indicators and running rates on sequences.

An observation is a delta-record when it exceeds the running maximum of all
previous observations by strictly more than delta; the first observation is
a delta-record by convention.  Ties therefore never count, which keeps the
scan deterministic on floating-point data.  A scan keeps only the
indicators; the running maximum it compares against is scratch, at
most a block of it at a time (`_kernels.record_scan`).
"""
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DriftRecordsError, require_finite


@dataclass(frozen=True)
class RecordFlags:
    """Per-index delta-record indicators and the delta they were taken at.

    The running maxima are not kept; ``np.maximum.accumulate(y)`` gives
    them when they are needed.
    """

    flags: np.ndarray
    delta: float

    def __len__(self):
        return self.flags.shape[0]


def _as_sequence(y):
    arr = np.ascontiguousarray(y, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise DriftRecordsError("expected a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DriftRecordsError(f"non-finite value at index {bad}")
    return arr


def delta_record_flags(y, delta: float) -> RecordFlags:
    """Scan ``y`` once, left to right, and flag every delta-record.

    Returns the indicator array and delta itself.  The comparison is
    strict: y[j] > max(y[:j]) + delta.  Beside the input and its one
    byte of flags per value, the scan holds only block-sized scratch.
    """
    require_finite(delta=delta)
    arr = _as_sequence(y)
    return RecordFlags(flags=_kernels.record_scan(arr, float(delta)), delta=float(delta))


def running_rate(y, delta: float) -> np.ndarray:
    """Sequence of record rates: k-th entry is (records among first k) / k."""
    return _rates(delta_record_flags(y, delta).flags)


def _rates(flags: np.ndarray) -> np.ndarray:
    """`running_rate` of the flags of a scan already made."""
    return np.cumsum(flags, dtype=np.float64) / np.arange(1, len(flags) + 1, dtype=np.float64)
