import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_model
from sparselin import (
    Dataset,
    DimensionError,
    LabelError,
    LinearModel,
    LossKind,
    SparseVec,
    SparselinError,
    loss_subgradient,
    loss_value,
    objective_value,
    validate_labels,
)
from sparselin.data_io import load_dataset, load_scores
from sparselin.losses import mean_loss, penalized

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

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_non_finite_label_rejected(self, kind):
        for y in (math.inf, -math.inf, math.nan):
            with pytest.raises(LabelError, match=f"^{kind.value} loss needs"):
                loss_value(kind, 0.0, y)
            with pytest.raises(LabelError, match=f"^{kind.value} loss needs"):
                loss_subgradient(kind, 0.0, y)


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
        model = LinearModel([], [], 0.0, LossKind.SQUARED, 2)
        assert objective_value(model, data, 1.0) == 2.0

    def test_zero_model_log(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 1.0)], 1)
        model = LinearModel([], [], 0.0, LossKind.LOG, 1)
        for lam in (0.5, 1.0, 7.0):
            assert objective_value(model, data, lam) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_evaluated(self):
        # w=[1], b=1, x={0:1}, y=2, squared, lam=2
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)
        model = dense_model(np.array([1.0]), 1.0, LossKind.SQUARED)
        assert objective_value(model, data, 2.0) == 2.0

    def test_dimension_mismatch(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 3), 2.0)], 3)
        model = LinearModel([], [], 0.0, LossKind.SQUARED, 2)
        with pytest.raises(DimensionError):
            objective_value(model, data, 1.0)

    @pytest.mark.parametrize("w, avg_loss, term", [
        (1e200, 0.0, "penalty"),        # |w|^2 overflows
        (0.0, math.inf, "average loss"),
        (1e154, 1.7e308, "objective"),  # each term finite, their sum not
    ])
    def test_non_finite_term_is_an_error(self, w, avg_loss, term):
        model = dense_model(np.array([w]), 0.0, LossKind.SQUARED)
        with np.errstate(all="raise"):  # and no numpy warning
            with pytest.raises(SparselinError, match=f"^{term} .* is not finite$"):
                penalized(model, 1.0, avg_loss)


class TestTrainedObjective:
    # the objective train prints is objective_value's on the data as read:
    # tests/test_cli.py checks it equals eval's on the same file and model
    def test_non_finite_score_names_its_example(self):
        data = Dataset.from_rows([(SparseVec([], [], 2), 1.0), (SparseVec([1], [10.0], 2), 1.0)],
                                 2)
        model = LinearModel(np.array([1]), np.array([1e308]), 0.0, LossKind.SQUARED, 2)
        with np.errstate(all="raise"):  # and no numpy warning
            with pytest.raises(SparselinError, match="^example 2: score inf is not finite$"):
                objective_value(model, data, 1.0)

    def test_a_bad_label_comes_before_a_non_finite_score(self, tmp_path):
        # objective_value checks in load_scores' order (and so eval's): the
        # label, then the score
        path = tmp_path / "data.txt"
        path.write_text("0.5 1:1e10\n")
        model = LinearModel(np.array([0]), np.array([1e300]), 0.0, LossKind.HINGE, 1)
        with pytest.raises(LabelError) as read:
            load_scores(str(path), model)
        with pytest.raises(LabelError) as scored:
            objective_value(model, load_dataset(str(path)), 1.0)
        assert (str(scored.value) == str(read.value)
                == "example 1: hinge loss needs labels in {-1, +1}, got 0.5")


def row_loop_mean(kind, ps, ys):
    """The per-row reference: ``loss_value`` summed in row order."""
    total = 0.0
    for p, y in zip(ps, ys):
        total += loss_value(kind, p, y)
    return total / len(ys)


# scores of every magnitude, the signed zeros, and the hinge kink p*y == 1 at p = y = +-1
SCORES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


class TestMeanLoss:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(LossKind)), st.data())
    def test_bit_identical_to_row_loop(self, kind, data):
        m = data.draw(st.integers(1, 64))  # np.sum would add pairwise from 8 rows on
        ys = data.draw(st.lists(labels_for(kind), min_size=m, max_size=m))
        ps = data.draw(st.lists(SCORES, min_size=m, max_size=m))
        got = mean_loss(kind, np.array(ps), np.array(ys))
        assert (np.float64(got).view(np.int64)
                == np.float64(row_loop_mean(kind, ps, ys)).view(np.int64))

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("ps, ys", [
        ([1.0], [1.0]), ([-1.0], [-1.0]),  # hinge's kink, m = 1
        ([0.0], [1.0]), ([-0.0], [-1.0]), ([-0.0, 0.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]),
    ])
    def test_edges(self, kind, ps, ys):
        got = mean_loss(kind, np.array(ps), np.array(ys))
        assert (np.float64(got).view(np.int64)
                == np.float64(row_loop_mean(kind, ps, ys)).view(np.int64))


class TestValidateLabels:
    def test_regression_accepts_any_real(self):
        data = Dataset.from_rows([(SparseVec([], [], 1), 3.25)], 1)
        validate_labels(data, LossKind.SQUARED)
        validate_labels(data, LossKind.ABSOLUTE)

    @pytest.mark.parametrize("kind", [LossKind.SQUARED, LossKind.ABSOLUTE])
    def test_regression_rejects_non_finite_and_names_example(self, kind):
        for y in (math.inf, -math.inf, math.nan):
            data = Dataset.from_rows([(SparseVec([], [], 1), 1.0), (SparseVec([], [], 1), y)], 1)
            with pytest.raises(LabelError, match=f"^example 2: {kind.value} loss needs finite "
                                                 f"labels, got {y}$"):
                validate_labels(data, kind)

    def test_classification_rejects_and_names_example(self):
        data = Dataset.from_rows([(SparseVec([], [], 1), 1.0), (SparseVec([], [], 1), 0.0)], 1)
        with pytest.raises(LabelError, match="example 2"):
            validate_labels(data, LossKind.HINGE)
