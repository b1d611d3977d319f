import numpy as np
import pytest

from driftrecords.errors import DriftRecordsError
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_shot_flags
from driftrecords.records import (
    delta_record_flags,
    running_rate,
)

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sequences = st.lists(finite_values, min_size=1, max_size=60)
deltas = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestFlagExamples:
    def test_increasing_sequence(self):
        assert delta_record_flags([1.0, 2.0, 3.0], 0.0).flags.tolist() == [
            True, True, True,
        ]

    def test_negative_threshold_revives_small_values(self):
        # 2 > 3 - 1.5, so the third entry is a record at delta = -1.5
        assert delta_record_flags([3.0, 1.0, 2.0], -1.5).flags.tolist() == [
            True, False, True,
        ]

    def test_positive_threshold(self):
        assert delta_record_flags([3.0, 1.0, 2.0], 0.5).flags.tolist() == [
            True, False, False,
        ]

    def test_first_entry_is_always_a_record(self):
        assert delta_record_flags([-5.0], 99.0).flags.tolist() == [True]

    def test_ties_are_not_records(self):
        assert delta_record_flags([1.0, 1.0, 1.0], 0.0).flags.tolist() == [
            True, False, False,
        ]

    def test_flags_example_without_running_max(self):
        # flags only: the running maximum 3, 3, 3 is scratch of the scan
        y = np.array([3.0, 1.0, 2.0, 7.0])
        out = delta_record_flags(y, 0.0)
        assert out.flags.tolist() == [True, False, False, True]
        assert out.flags.tobytes() == one_shot_flags(y, 0.0).tobytes()
        assert not hasattr(out, "running_max")

    def test_len(self):
        assert len(delta_record_flags([1.0, 2.0], 0.0)) == 2


class TestCounts:
    def test_examples(self):
        assert delta_record_flags([1.0, 2.0, 3.0], 0.0).flags.sum() == 3
        assert delta_record_flags([9.0], -3.0).flags.sum() == 1

    def test_running_rate_examples(self):
        np.testing.assert_allclose(
            running_rate([1.0, 2.0, 3.0], 0.0), [1.0, 1.0, 1.0]
        )
        np.testing.assert_allclose(
            running_rate([3.0, 1.0, 2.0], 0.5), [1.0, 0.5, 1.0 / 3.0]
        )

    def test_running_rate_last_entry_is_total_rate(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(100)
        rate = running_rate(y, 0.2)
        assert rate[-1] == pytest.approx(delta_record_flags(y, 0.2).flags.sum() / 100.0)


class TestErrors:
    def test_empty_sequence(self):
        with pytest.raises(DriftRecordsError, match="empty"):
            delta_record_flags([], 0.0)

    def test_non_finite_entry_named_by_index(self):
        with pytest.raises(DriftRecordsError, match="index 2"):
            delta_record_flags([1.0, 2.0, np.nan], 0.0)

    def test_two_dimensional_input(self):
        with pytest.raises(DriftRecordsError):
            delta_record_flags(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [delta_record_flags, running_rate])
    def test_non_finite_threshold(self, fn, delta):
        with pytest.raises(DriftRecordsError, match="delta must be finite"):
            fn([1.0, 2.0, 3.0], delta)


class TestProperties:
    @given(sequences, deltas)
    @settings(max_examples=200, deadline=None)
    def test_count_monotone_in_delta(self, y, delta):
        looser = delta_record_flags(y, delta).flags.sum()
        assert delta_record_flags(y, delta + 0.5).flags.sum() <= looser

    @given(sequences)
    @settings(max_examples=200, deadline=None)
    def test_containment_around_plain_records(self, y):
        plain = delta_record_flags(y, 0.0).flags
        tighter = delta_record_flags(y, 0.75).flags
        looser = delta_record_flags(y, -0.75).flags
        assert np.all(~tighter | plain)   # positive-threshold records are records
        assert np.all(~plain | looser)    # records survive a negative threshold

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                 max_size=60),
        st.integers(min_value=-20, max_value=20),
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
        st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_equivariance(self, y_int, delta2, b, a):
        # Dyadic scale factors and integer data keep every product exact,
        # so the scaled comparison is the same comparison, not merely a
        # nearby one.
        y = np.asarray(y_int, dtype=np.float64)
        delta = delta2 / 2.0
        base = delta_record_flags(y, delta).flags
        moved = delta_record_flags(b * y + a, b * delta).flags
        np.testing.assert_array_equal(base, moved)

    @given(sequences, deltas)
    @settings(max_examples=100, deadline=None)
    def test_flags_match_one_shot_reference(self, y, delta):
        out = delta_record_flags(y, delta)
        assert out.flags[0]
        assert out.flags.tobytes() == one_shot_flags(y, delta).tobytes()

    @given(sequences, deltas)
    @settings(max_examples=100, deadline=None)
    def test_flags_match_direct_definition(self, y, delta):
        out = delta_record_flags(y, delta)
        for j in range(1, len(y)):
            assert out.flags[j] == (y[j] > max(y[:j]) + delta)
