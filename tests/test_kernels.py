import numpy as np
import pytest

from conftest import one_shot_flags
from driftrecords import _kernels

B = _kernels.BLOCK_VALUES


class TestKernelSemantics:
    def test_stacked_scan_matches_row_by_row(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rows, n = int(rng.integers(1, 8)), int(rng.integers(1, 300))
            c = float(rng.uniform(-1, 1))
            delta = float(rng.uniform(-1, 1))
            y = rng.standard_normal((rows, n)) + c * np.arange(1, n + 1)
            flags = _kernels.record_scan(y, delta)
            for row, fl in zip(y, flags):
                np.testing.assert_array_equal(fl, _kernels.record_scan(row, delta))
                np.testing.assert_array_equal(fl, one_shot_flags(row, delta))

    def test_lag_products_matches_naive(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(200)
        got = _kernels.lag_products(z, 10)
        for k in range(1, 11):
            want = float(np.sum(z[: 200 - k] * z[k:]))
            assert got[k - 1] == pytest.approx(want, rel=1e-12)

    def test_lag_products_beyond_length_is_zero(self):
        z = np.ones(3)
        got = _kernels.lag_products(z, 5)
        np.testing.assert_allclose(got, [2.0, 1.0, 0.0, 0.0, 0.0])

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("shape", [
        (1,), (2,), (B - 1,), (B,), (B + 1,), (3 * B + 5,),
        (5, B // 2 + 3), (40, 999), (2, 3, 20_001), (3, 2 * B + 7), (4, 1), (40, 2047),
    ])
    def test_piecewise_compare_matches_the_one_shot_form(self, shape):
        # a row longer than a block is scanned a piece at a time, the
        # running maximum carried across pieces, and a stack of short rows
        # wider than one block in one piece; values on a 1/4 grid with
        # delta = 0.25 make many exact ties, and -inf entries sit on and
        # beside piece boundaries
        rng = np.random.default_rng(sum(shape))
        y = np.round(4.0 * rng.standard_normal(shape)) / 4.0
        n = shape[-1]
        for at in {0, min(1, n - 1), n // 2, n - 1} | set(range(B - 1, n, B)):
            y[..., at] = -np.inf
        for delta in (0.25, 0.0, -0.5):
            flags = _kernels.record_scan(y, delta)
            assert flags.dtype == np.bool_ and flags.shape == shape
            assert flags.tobytes() == one_shot_flags(y, delta).tobytes()

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("n", [
        _kernels._ROW_SCAN_MIN - 1, _kernels._ROW_SCAN_MIN, 4001, 20_000, 70_000,
    ])
    def test_row_by_row_scan_matches_the_one_shot_form(self, n):
        # stacks of rows on both sides of the length from which a stack is
        # scanned row by row.  A slow drift on a 1/4 grid makes many
        # records and exact ties; row 0 ties -0.0 with +0.0, row 1 holds
        # -inf and then +inf, after which nothing is a record, and row 2
        # a NaN, after which nothing is a record either; row 3 on is plain
        rows = max(4, B // n)
        rng = np.random.default_rng(n)
        y = np.round(4.0 * rng.standard_normal((rows, n)) + 8.0 * np.arange(n) / n) / 4.0
        y[0] = -0.0
        y[0, n // 3::2] = 0.0
        y[1, 0] = y[1, n // 2] = -np.inf
        y[1, 2 * n // 3] = np.inf
        y[2, n // 2 + 1] = np.nan
        for delta in (-0.5, -0.0, 0.0, 0.25):
            flags = _kernels.record_scan(y, delta)
            assert flags.dtype == np.bool_ and flags.shape == y.shape
            assert flags.tobytes() == one_shot_flags(y, delta).tobytes()
            # a strided view, as the sigma2 window is scanned
            view = y[:, 3:]
            flags_view = _kernels.record_scan(view, delta)
            assert flags_view.tobytes() == one_shot_flags(view, delta).tobytes()
        assert np.count_nonzero(flags[1, 2 * n // 3 + 1:]) == 0
        assert np.count_nonzero(flags[2, n // 2 + 1:]) == 0

    def test_carried_maximum_reaches_later_pieces(self):
        # one early peak is the running maximum of every later piece
        y = np.zeros(3 * B + 5)
        y[3] = 10.0
        y[-1] = 10.5
        for delta, last in ((0.25, True), (0.5, False), (-0.5, True)):
            flags = _kernels.record_scan(y, delta)
            assert flags.tobytes() == one_shot_flags(y, delta).tobytes()
            assert flags[-1] == last
            assert np.count_nonzero(flags[4:-1]) == 0

    def test_signed_zeros_across_pieces(self):
        # from the second piece on, the carried maximum differs from the
        # one-shot one in the sign of its zero; the compare cannot tell
        # them apart, so the flags agree
        y = np.full(3 * B + 5, -0.0)
        y[B::2] = 0.0
        for delta in (-0.0, 0.0):
            flags = _kernels.record_scan(y, delta)
            assert flags.tobytes() == one_shot_flags(y, delta).tobytes()
            assert np.count_nonzero(flags) == 1

    def test_single_element(self):
        assert _kernels.record_scan(np.array([4.2]), 0.0).tolist() == [True]
        flags = _kernels.record_scan(np.array([[4.2], [-1.0]]), 0.0)
        assert flags.tolist() == [[True], [True]]
