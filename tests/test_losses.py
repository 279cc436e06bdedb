import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselin import (
    Dataset,
    DimensionError,
    LabelError,
    LinearModel,
    LossKind,
    SparseVec,
    loss_subgradient,
    loss_value,
    objective_value,
    validate_labels,
)

preds = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
reg_labels = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
cls_labels = st.sampled_from([-1.0, 1.0])


def labels_for(kind):
    return cls_labels if kind.is_classification else reg_labels


class TestLossValues:
    def test_squared(self):
        assert loss_value(LossKind.SQUARED, 3.0, 1.0) == 2.0

    def test_hinge(self):
        assert loss_value(LossKind.HINGE, 2.0, 1.0) == 0.0

    def test_log(self):
        assert loss_value(LossKind.LOG, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_absolute(self):
        assert loss_value(LossKind.ABSOLUTE, 2.0, 5.0) == 3.0

    def test_classification_label_rejected(self):
        with pytest.raises(LabelError):
            loss_value(LossKind.HINGE, 0.0, 0.5)
        with pytest.raises(LabelError):
            loss_subgradient(LossKind.LOG, 0.0, 2.0)


class TestSubgradients:
    def test_squared(self):
        assert loss_subgradient(LossKind.SQUARED, 3.0, 1.0) == 2.0

    def test_log_at_zero(self):
        assert loss_subgradient(LossKind.LOG, 0.0, 1.0) == -0.5

    def test_hinge_boundary_takes_first_branch(self):
        # p*y == 1 exactly
        assert loss_subgradient(LossKind.HINGE, 1.0, 1.0) == -1.0
        assert loss_subgradient(LossKind.HINGE, -1.0, -1.0) == 1.0

    def test_absolute_boundary_takes_first_branch(self):
        assert loss_subgradient(LossKind.ABSOLUTE, 5.0, 5.0) == -1.0

    def test_hinge_inactive(self):
        assert loss_subgradient(LossKind.HINGE, 2.0, 1.0) == 0.0

    def test_absolute_above(self):
        assert loss_subgradient(LossKind.ABSOLUTE, 6.0, 5.0) == 1.0


class TestLossProperties:
    @settings(max_examples=300)
    @given(st.sampled_from(list(LossKind)), st.data())
    def test_convexity_sampled(self, kind, data):
        y = data.draw(labels_for(kind))
        p1, p2 = data.draw(preds), data.draw(preds)
        theta = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        mid = theta * p1 + (1 - theta) * p2
        lhs = loss_value(kind, mid, y)
        rhs = theta * loss_value(kind, p1, y) + (1 - theta) * loss_value(kind, p2, y)
        assert lhs <= rhs + 1e-10

    @settings(max_examples=300)
    @given(st.sampled_from(list(LossKind)), st.data())
    def test_subgradient_inequality_everywhere(self, kind, data):
        y = data.draw(labels_for(kind))
        p, q = data.draw(preds), data.draw(preds)
        g = loss_subgradient(kind, p, y)
        assert loss_value(kind, q, y) >= loss_value(kind, p, y) + g * (q - p) - 1e-10

    @settings(max_examples=300)
    @given(st.sampled_from(list(LossKind)), st.data())
    def test_finite_difference_agreement(self, kind, data):
        y = data.draw(labels_for(kind))
        p = data.draw(preds)
        if kind is LossKind.HINGE and abs(p * y - 1.0) <= 1e-3:
            return  # kink: derivative undefined
        if kind is LossKind.ABSOLUTE and abs(p - y) <= 1e-3:
            return
        h = 1e-6
        fd = (loss_value(kind, p + h, y) - loss_value(kind, p - h, y)) / (2 * h)
        assert fd == pytest.approx(loss_subgradient(kind, p, y), abs=1e-4)

    @given(st.floats(-1e8, 1e8, allow_nan=False), cls_labels)
    def test_log_subgradient_bounded_and_finite(self, p, y):
        g = loss_subgradient(LossKind.LOG, p, y)
        assert math.isfinite(g)
        assert abs(g) <= 1.0
        assert math.isfinite(loss_value(LossKind.LOG, p, y))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for kind in LossKind:
            for _ in range(50):
                y = float(rng.choice([-1.0, 1.0])) if kind.is_classification else float(rng.normal())
                assert loss_value(kind, float(rng.normal(scale=10)), y) >= 0.0


class TestObjective:
    def test_zero_model_squared(self):
        data = Dataset.from_rows([(SparseVec([0], [3.0], 2), 2.0)], 2)
        model = LinearModel.zero(2, LossKind.SQUARED)
        assert objective_value(model, data, 1.0) == 2.0

    def test_zero_model_log(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 1.0)], 1)
        model = LinearModel.zero(1, LossKind.LOG)
        for lam in (0.5, 1.0, 7.0):
            assert objective_value(model, data, lam) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_evaluated(self):
        # w=[1], b=1, x={0:1}, y=2, squared, lam=2
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)
        model = LinearModel(w=np.array([1.0]), b=1.0, loss=LossKind.SQUARED, dim=1)
        assert objective_value(model, data, 2.0) == 2.0

    def test_dimension_mismatch(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 3), 2.0)], 3)
        model = LinearModel.zero(2, LossKind.SQUARED)
        with pytest.raises(DimensionError):
            objective_value(model, data, 1.0)


class TestValidateLabels:
    def test_regression_accepts_any_real(self):
        data = Dataset.from_rows([(SparseVec([], [], 1), 3.25)], 1)
        validate_labels(data, LossKind.SQUARED)
        validate_labels(data, LossKind.ABSOLUTE)

    def test_classification_rejects_and_names_example(self):
        data = Dataset.from_rows([(SparseVec([], [], 1), 1.0), (SparseVec([], [], 1), 0.0)], 1)
        with pytest.raises(LabelError, match="example 2"):
            validate_labels(data, LossKind.HINGE)
