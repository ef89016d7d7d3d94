"""Tests for the VectorPair primitive and vector coercion helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import DimensionMismatchError, InvalidCapacityError
from repro.core.resources import VectorPair, as_vector, check_same_dimensions


class TestAsVector:
    def test_list_is_copied(self):
        src = [1.0, 2.0]
        v = as_vector(src)
        assert v.dtype == np.float64
        src[0] = 99.0
        assert v[0] == 1.0

    def test_array_is_copied(self):
        src = np.array([1.0, 2.0])
        v = as_vector(src)
        src[0] = 99.0
        assert v[0] == 1.0

    def test_scalar_broadcast(self):
        v = as_vector(0.5, dims=3)
        assert v.shape == (3,)
        assert (v == 0.5).all()

    def test_scalar_without_dims_rejected(self):
        with pytest.raises(ValueError):
            as_vector(0.5)

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            as_vector([1.0, 2.0], dims=3)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 2)))


class TestCheckSameDimensions:
    def test_returns_common_length(self):
        assert check_same_dimensions(np.ones(2), np.zeros(2)) == 2

    def test_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            check_same_dimensions(np.ones(2), np.ones(3))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            check_same_dimensions()


class TestVectorPair:
    def test_basic_construction(self):
        vp = VectorPair([0.8, 1.0], [3.2, 1.0])
        assert vp.dims == 2
        assert vp.elementary[0] == 0.8
        assert vp.aggregate[0] == 3.2

    def test_arrays_are_read_only(self):
        vp = VectorPair([0.5, 0.5], [1.0, 0.5])
        with pytest.raises(ValueError):
            vp.elementary[0] = 2.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidCapacityError):
            VectorPair([-0.1, 0.5], [1.0, 0.5])

    def test_nan_rejected(self):
        with pytest.raises(InvalidCapacityError):
            VectorPair([np.nan, 0.5], [1.0, 0.5])

    def test_dominance_enforced_by_default(self):
        with pytest.raises(InvalidCapacityError):
            VectorPair([1.0, 1.0], [0.5, 1.0])

    def test_dominance_can_be_waived(self):
        # Service needs may legitimately have aggregate < elementary in a
        # dimension (e.g. zero aggregate need with nonzero elementary is
        # not meaningful, but uneven virtual elements are: 1.1 agg, 1.0 elem).
        vp = VectorPair([1.0, 0.0], [0.5, 0.0], require_dominance=False)
        assert vp.aggregate[0] == 0.5

    def test_aggregate_not_required_integer_multiple(self):
        # §2: 110% aggregate with 100% elementary is explicitly legal.
        vp = VectorPair([1.0, 0.5], [1.1, 0.5])
        assert vp.aggregate[0] == pytest.approx(1.1)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            VectorPair([1.0], [1.0, 2.0])

    def test_scaled_scalar(self):
        vp = VectorPair([0.5, 0.5], [1.0, 0.5]).scaled(2.0)
        assert vp.elementary.tolist() == [1.0, 1.0]
        assert vp.aggregate.tolist() == [2.0, 1.0]

    def test_scaled_per_dimension(self):
        vp = VectorPair([0.5, 0.5], [1.0, 0.5]).scaled(np.array([2.0, 1.0]))
        assert vp.elementary.tolist() == [1.0, 0.5]
        assert vp.aggregate.tolist() == [2.0, 0.5]

    def test_add(self):
        a = VectorPair([0.5, 0.5], [1.0, 0.5])
        b = VectorPair([0.25, 0.0], [0.5, 0.0])
        c = a + b
        assert c.elementary.tolist() == [0.75, 0.5]
        assert c.aggregate.tolist() == [1.5, 0.5]

    def test_equality_and_hash(self):
        a = VectorPair([0.5, 0.5], [1.0, 0.5])
        b = VectorPair([0.5, 0.5], [1.0, 0.5])
        c = VectorPair([0.5, 0.5], [1.1, 0.5])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6))
    def test_identity_scale_preserves(self, values):
        vp = VectorPair(values, values)
        assert vp.scaled(1.0) == vp

    @given(
        st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=6),
        st.floats(min_value=0.001, max_value=100.0),
    )
    def test_scaling_is_linear(self, values, factor):
        vp = VectorPair(values, values)
        scaled = vp.scaled(factor)
        np.testing.assert_allclose(scaled.elementary, np.array(values) * factor)
        np.testing.assert_allclose(scaled.aggregate, np.array(values) * factor)
