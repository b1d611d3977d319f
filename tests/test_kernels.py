import numpy as np
import pytest

from driftrecords import _kernels


class TestKernelSemantics:
    def test_stacked_scan_matches_row_by_row(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rows, n = int(rng.integers(1, 8)), int(rng.integers(1, 300))
            c = float(rng.uniform(-1, 1))
            delta = float(rng.uniform(-1, 1))
            y = rng.standard_normal((rows, n)) + c * np.arange(1, n + 1)
            flags, running_max = _kernels.record_scan(y, delta)
            for row, fl, rm in zip(y, flags, running_max):
                want_fl, want_rm = _kernels.record_scan(row, delta)
                np.testing.assert_array_equal(fl, want_fl)
                np.testing.assert_array_equal(rm, want_rm)

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

    @pytest.mark.parametrize("shape", [
        (_kernels.BLOCK_VALUES + 3,), (3 * _kernels.BLOCK_VALUES + 1,),
        (5, _kernels.BLOCK_VALUES // 2 + 3), (40, 999), (2, 3, 20_001),
    ])
    def test_piecewise_compare_matches_the_one_shot_form(self, shape):
        # the thresholds running_max + delta are formed a piece at a time;
        # values on a 1/4 grid with delta = 0.25 make many exact ties
        rng = np.random.default_rng(sum(shape))
        y = np.round(4.0 * rng.standard_normal(shape)) / 4.0
        for delta in (0.25, -0.5):
            flags, running_max = _kernels.record_scan(y, delta)
            want_rm = np.maximum.accumulate(y, axis=-1)
            want = np.empty(shape, np.bool_)
            want[..., 0] = True
            want[..., 1:] = y[..., 1:] > want_rm[..., :-1] + delta
            assert flags.tobytes() == want.tobytes()
            assert running_max.tobytes() == want_rm.tobytes()

    def test_single_element(self):
        flags, running_max = _kernels.record_scan(np.array([4.2]), 0.0)
        assert flags.tolist() == [True]
        assert running_max.tolist() == [4.2]
        flags, _ = _kernels.record_scan(np.array([[4.2], [-1.0]]), 0.0)
        assert flags.tolist() == [[True], [True]]
