import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_dataset
from sparselin import (
    Dataset,
    DimensionError,
    EmptyDatasetError,
    FormatError,
    IndexOrderError,
    LinearModel,
    LossKind,
    ParseError,
    TrainConfig,
    parse_libsvm,
    read_model,
    sgd_train,
    write_libsvm,
    write_model,
)
from sparselin.data_io import fmt_float


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm(["1 3:2.5 7:-1"])
        assert ds.m == 1 and ds.dim == 7
        x, y = ds.row(0), ds.labels[0]
        assert y == 1.0
        assert list(x.indices) == [2, 6]
        assert list(x.values) == [2.5, -1.0]

    def test_label_only_line(self):
        ds = parse_libsvm(["-1"])
        x, y = ds.row(0), ds.labels[0]
        assert y == -1.0 and x.nnz == 0 and ds.dim == 0

    def test_decreasing_index_rejected(self):
        with pytest.raises(IndexOrderError) as exc:
            parse_libsvm(["1 3:2.5 2:1.0"])
        assert exc.value.line_no == 1

    def test_duplicate_index_rejected(self):
        with pytest.raises(IndexOrderError):
            parse_libsvm(["1 3:2.5 3:1.0"])

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(["1 1:1", "", "# comment", "1 nope"])
        assert exc.value.line_no == 4
        assert "line 4" in str(exc.value)

    @pytest.mark.parametrize("line", ["nan 1:1", "-inf 1:1", "1 1:nan", "1 1:1 2:inf", "1 1:1e999"])
    def test_non_finite_rejected(self, line):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(["1 1:1", line])
        assert exc.value.line_no == 2

    def test_non_finite_unlabeled_value_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(["3:nan"], require_labels=False)
        assert exc.value.line_no == 1

    def test_zero_based_file_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm(["1 0:2.5"])

    def test_comments_and_blank_lines_skipped(self):
        ds = parse_libsvm(["# header", "", "1 1:1", "   ", "-1 2:1"])
        assert ds.m == 2

    def test_crlf_lines(self):
        ds = parse_libsvm(["1 1:1\r\n", "-1 2:3\r\n"])
        assert ds.m == 2 and ds.dim == 2
        assert list(ds.row(1).values) == [3.0]

    def test_explicit_zero_values_dropped(self):
        ds = parse_libsvm(["1 1:0 2:5"])
        x = ds.row(0)
        assert list(x.indices) == [1]

    def test_dim_override(self):
        ds = parse_libsvm(["1 1:1"], dim_override=10)
        assert ds.dim == 10
        with pytest.raises(DimensionError, match="line 1"):
            parse_libsvm(["1 11:1"], dim_override=10)

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            parse_libsvm(["# only a comment", ""])

    def test_unlabeled_lines_for_prediction(self):
        ds = parse_libsvm(["3:2.5 7:-1", "0 1:1"], require_labels=False)
        assert ds.labels[0] == 0.0
        assert list(ds.row(0).indices) == [2, 6]

    def test_streaming_consumes_an_iterator(self):
        def lines():
            yield "1 1:1"
            yield "-1 2:1"

        assert parse_libsvm(lines()).m == 2


finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda v: v != 0.0)


@st.composite
def csr_rows(draw, min_nnz=0):
    """(dim, rows, zero_positions): each row a sorted {index: value} of nonzeros, plus
    indices of that row that are written with an explicit :0 value."""
    dim = draw(st.integers(1, 40))
    rows, zeros = [], []
    for _ in range(draw(st.integers(1, 12))):
        idx = draw(st.sets(st.integers(0, dim - 1), min_size=min_nnz, max_size=min(dim, 8)))
        rows.append({i: draw(nonzero) for i in sorted(idx)})
        free = sorted(set(range(dim)) - idx)
        zeros.append(draw(st.sets(st.sampled_from(free), max_size=3)) if free else set())
    return dim, rows, zeros


def csr_dataset(dim, rows, labels) -> Dataset:
    return Dataset(
        indptr=np.cumsum([0] + [len(r) for r in rows]),
        indices=[i for r in rows for i in r],
        values=[v for r in rows for v in r.values()],
        labels=labels,
        dim=dim,
    )


def assert_same_arrays(got: Dataset, want: Dataset) -> None:
    assert got.dim == want.dim
    for name in ("indptr", "indices", "values", "labels"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestParseRoundTrip:
    @given(csr_rows(), st.data())
    def test_write_then_parse_is_identity(self, drawn, data):
        dim, rows, _ = drawn
        labels = [data.draw(finite) for _ in rows]
        want = csr_dataset(dim, rows, labels)
        buf = io.StringIO()
        write_libsvm(want, buf)
        assert_same_arrays(parse_libsvm(io.StringIO(buf.getvalue()), dim_override=dim), want)

    @given(csr_rows(min_nnz=1))
    def test_label_free_input(self, drawn):
        dim, rows, _ = drawn
        text = "".join(
            " ".join(f"{i + 1}:{fmt_float(v)}" for i, v in r.items()) + "\n" for r in rows
        )
        got = parse_libsvm(io.StringIO(text), dim_override=dim, require_labels=False)
        assert_same_arrays(got, csr_dataset(dim, rows, [0.0] * len(rows)))

    @given(csr_rows())
    def test_explicit_zero_values_dropped(self, drawn):
        dim, rows, zeros = drawn
        lines = []
        for r, z in zip(rows, zeros):
            entries = sorted([*r.items(), *((i, 0.0) for i in z)])
            lines.append(" ".join(["1", *(f"{i + 1}:{fmt_float(v)}" for i, v in entries)]))
        got = parse_libsvm(lines, dim_override=dim)
        assert_same_arrays(got, csr_dataset(dim, rows, [1.0] * len(rows)))


class TestDatasetRoundTrip:
    def test_reparsed_dataset_trains_identically(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, 12, 9, 5, LossKind.SQUARED, k_min=1)
        buf = io.StringIO()
        write_libsvm(data, buf)
        reparsed = parse_libsvm(io.StringIO(buf.getvalue()), dim_override=data.dim)
        cfg = TrainConfig(steps=100, lam=0.5, seed=6, loss=LossKind.SQUARED)
        m1, m2 = sgd_train(data, cfg), sgd_train(reparsed, cfg)
        assert np.array_equal(m1.w, m2.w)
        assert m1.b == m2.b


class TestFmtFloat:
    def test_integral_drops_point(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(-4.0) == "-4"
        assert fmt_float(0.0) == "0"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = float(rng.normal(scale=10.0 ** rng.integers(-8, 9)))
            assert float(fmt_float(x)) == x


class TestModelFile:
    def model(self):
        w = np.array([2.0, 0.0, -0.5])
        return LinearModel(w=w, b=2.0, loss=LossKind.SQUARED, dim=3)

    def test_exact_format(self):
        buf = io.StringIO()
        write_model(self.model(), buf)
        assert buf.getvalue() == (
            "sparselin-model v1\n"
            "loss squared\n"
            "dim 3\n"
            "bias 2\n"
            "0:2\n"
            "2:-0.5\n"
        )

    def test_zero_model_has_no_weight_lines(self):
        buf = io.StringIO()
        write_model(LinearModel.zero(3, LossKind.SQUARED), buf)
        assert buf.getvalue() == "sparselin-model v1\nloss squared\ndim 3\nbias 0\n"

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        for loss in LossKind:
            w = np.where(rng.random(20) < 0.4, rng.normal(size=20), 0.0)
            model = LinearModel(w=w, b=float(rng.normal()), loss=loss, dim=20)
            buf = io.StringIO()
            write_model(model, buf)
            back = read_model(io.StringIO(buf.getvalue()))
            assert np.array_equal(back.w, model.w)
            assert back.b == model.b
            assert back.loss is model.loss and back.dim == model.dim

    @given(st.lists(st.one_of(st.just(0.0), finite), min_size=1, max_size=30), finite,
           st.sampled_from(list(LossKind)))
    def test_round_trip_bits(self, weights, bias, loss):
        model = LinearModel(w=np.array(weights), b=bias, loss=loss, dim=len(weights))
        buf = io.StringIO()
        write_model(model, buf)
        back = read_model(io.StringIO(buf.getvalue()))
        # zero weights are not stored, so a -0.0 weight reads back as +0.0
        assert back.w.tobytes() == (model.w + 0.0).tobytes()
        assert np.float64(back.b).tobytes() == np.float64(model.b).tobytes()
        assert back.loss is loss and back.dim == model.dim

    def test_unknown_version_rejected(self):
        with pytest.raises(FormatError):
            read_model(io.StringIO("sparselin-model v9\nloss squared\ndim 1\nbias 0\n"))

    def test_unknown_loss_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_model(io.StringIO("sparselin-model v1\nloss huber\ndim 1\nbias 0\n"))
        assert exc.value.line_no == 2

    def test_non_finite_weight_rejected(self):
        text = "sparselin-model v1\nloss squared\ndim 2\nbias 0\n0:inf\n"
        with pytest.raises(FormatError):
            read_model(io.StringIO(text))

    def test_non_finite_model_not_written(self):
        model = LinearModel(w=np.array([np.nan]), b=0.0, loss=LossKind.LOG, dim=1)
        with pytest.raises(FormatError):
            write_model(model, io.StringIO())

    def test_truncated_file_rejected(self):
        with pytest.raises(FormatError):
            read_model(io.StringIO("sparselin-model v1\nloss squared\n"))

    def test_out_of_order_weights_rejected(self):
        text = "sparselin-model v1\nloss squared\ndim 3\nbias 0\n2:1\n0:1\n"
        with pytest.raises(FormatError) as exc:
            read_model(io.StringIO(text))
        assert exc.value.line_no == 6

    def test_crlf_model_file(self):
        text = "sparselin-model v1\r\nloss hinge\r\ndim 2\r\nbias 1.5\r\n1:-3\r\n"
        model = read_model(io.StringIO(text))
        assert model.loss is LossKind.HINGE
        assert model.b == 1.5 and list(model.w) == [0.0, -3.0]
