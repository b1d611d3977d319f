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

    def test_single_element(self):
        flags, running_max = _kernels.record_scan(np.array([4.2]), 0.0)
        assert flags.tolist() == [True]
        assert running_max.tolist() == [4.2]
        flags, _ = _kernels.record_scan(np.array([[4.2], [-1.0]]), 0.0)
        assert flags.tolist() == [[True], [True]]
