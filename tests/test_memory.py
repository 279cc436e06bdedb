"""Peak memory of the data path, traced by ``tracemalloc``.

numpy reports each array buffer it allocates to ``tracemalloc``, so the
peak it records is that of the arrays a call makes, whatever the C library
does with the memory.  On a dataset of a million nonzeros and a model of as
many weights, the readers peak at the arrays they return, scoring,
validation and the penalty at their result, and the objective at one
int32 directory and four m-long arrays: each within ``SLACK``, which the
fixed-size buffers and blocks of these calls fit in and any temporary the
size of the input does not.  Scoring a file as ``predict`` and ``eval``
do holds no dataset, so its peak does not grow with the nonzeros per row.
Through its loop, training holds 4 bytes per nonzero and its sums of n'
floats, where ``asgd`` and ``casgd`` peak, and it draws each step's row
inside the loop, so its peak does not grow with the number of steps.
``mean_vector`` allocates its ``dim`` floats and little more.
"""

import tracemalloc

import numpy as np
import pytest

from sparselin import (
    Dataset,
    LinearModel,
    LossKind,
    TrainConfig,
    _kernel,
    asgd_train,
    casgd_train,
    sgd_train,
)
from sparselin.data_io import load_dataset, load_model, load_scores, save_model
from sparselin.losses import objective_value, scores
from sparselin.sparse_core import mean_vector, squared_norm, support

SLACK = 1 << 20  # 1 MiB
M, K = 50_000, 20  # rows and nonzeros per row: a million nonzeros


@pytest.fixture(autouse=True)
def compiled():
    # without the kernel, scoring takes search and row_dots, whose temporaries are O(nnz)
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A LIBSVM file of M rows of K rising features, about a million distinct,
    and a model with a weight for each of them."""
    rng = np.random.default_rng(5)
    indices = np.cumsum(rng.integers(1, 100, size=(M, K)), axis=1)
    indices += rng.integers(0, 20_000_000, size=(M, 1))
    text = [f"{v / 8}" for v in range(1, 9)]
    values = rng.integers(0, 8, size=(M, K)).tolist()
    lines = ("1 " + " ".join(f"{j}:{text[v]}" for j, v in zip(row, vals))
             for row, vals in zip((indices + 1).tolist(), values))
    directory = tmp_path_factory.mktemp("memory")
    data = directory / "data.txt"
    data.write_text("\n".join(lines) + "\n")
    feats = support(indices.ravel())
    model = directory / "model.txt"
    weights = rng.integers(1, 8, size=feats.size) / -8.0
    save_model(LinearModel(feats, weights, 0.5, LossKind.HINGE, int(feats[-1]) + 1), str(model))
    return str(data), str(model)


def traced_peak(fn, *args):
    """``fn(*args)`` and the most memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def csr(data):
    return data.indptr, data.indices, data.values, data.labels


def test_load_dataset_peaks_at_its_arrays(files):
    data, peak = traced_peak(load_dataset, files[0])
    assert data.indices.size == M * K
    assert peak <= nbytes(*csr(data)) + SLACK


def test_load_model_peaks_at_its_arrays(files):
    model, peak = traced_peak(load_model, files[1])
    assert model.feats.size > 900_000
    assert peak <= nbytes(model.feats, model.weights) + SLACK


def test_scores_allocate_the_result_and_one_directory(files):
    data, model = load_dataset(files[0]), load_model(files[1])
    p, peak = traced_peak(scores, model, data)
    assert p.size == M
    assert peak <= p.nbytes + 4 * (model.feats.size + 1) + SLACK
    # train's objective scores so too, then adds m-long work: scores' p and its
    # isfinite mask, check_labels' three masks beside p, and at most four
    # m-long floats in mean_loss (p, 1 - p*y, the hinge terms and their cumsum)
    objective, peak = traced_peak(objective_value, model, data, 1e-3)
    assert objective > 0
    assert peak <= 4 * p.nbytes + 4 * (model.feats.size + 1) + SLACK


@pytest.mark.parametrize("require_labels", [False, True])
def test_scoring_a_file_peaks_at_two_results_and_one_directory(files, tmp_path, require_labels):
    # predict and eval score the file a block at a time as they read it: beyond
    # the model, the two m-long results and its directory, only the fixed
    # block buffers, so rows of 200 nonzeros peak as rows of 20 do
    model = load_model(files[1])
    rng = np.random.default_rng(7)
    m, peaks = 4_000, []
    for k in (20, 200):
        path = tmp_path / f"k{k}.txt"
        # k features of the model's, every 37th from a random one, 1-based
        starts = rng.integers(0, model.feats.size - 37 * k, size=(m, 1))
        rows = model.feats[starts + 37 * np.arange(k)] + 1
        path.write_text("".join(f"-1 {' '.join(f'{j}:0.5' for j in row)}\n"
                                for row in rows.tolist()))
        (p, labels), peak = traced_peak(load_scores, str(path), model, require_labels)
        assert p.size == labels.size == m
        assert peak <= 2 * 8 * m + 4 * (model.feats.size + 1) + SLACK
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + (64 << 10)


def test_validation_and_the_norm_allocate_no_input_sized_temporary(files):
    data, model = load_dataset(files[0]), load_model(files[1])
    _, peak = traced_peak(Dataset, *csr(data), data.dim)
    assert peak <= SLACK
    _, peak = traced_peak(LinearModel, model.feats, model.weights, model.b, model.loss,
                          model.dim)
    assert peak <= SLACK
    norm, peak = traced_peak(squared_norm, model.weights)
    assert peak <= SLACK
    assert norm == float(np.cumsum(model.weights * model.weights)[-1])


@pytest.mark.parametrize("train, sums", [(asgd_train, 2), (casgd_train, 3)])
def test_training_holds_four_bytes_per_nonzero_and_its_sums(files, train, sums):
    # through the loop, training holds the data, the int32 position of each
    # nonzero and its n'-long sums (v and u, and casgd's mean); the support
    # itself is rebuilt from the positions after the loop, the other sums freed
    data = load_dataset(files[0])
    n = support(data.indices).size
    cfg = TrainConfig(steps=1_000, lam=1e-3, seed=3, loss=LossKind.HINGE)
    model, peak = traced_peak(train, data, cfg)
    assert model.feats.size == n > 900_000
    assert peak <= 4 * data.indices.size + sums * 8 * n + SLACK


@pytest.mark.parametrize("train", [sgd_train, asgd_train, casgd_train])
def test_training_memory_does_not_grow_with_the_steps(train):
    # compiled training at T = 10^6 peaks as at T = 10^3: nothing T long
    rng = np.random.default_rng(6)
    m, k = 2_000, 20
    indices = (np.cumsum(rng.integers(1, 50, size=(m, k)), axis=1)
               + rng.integers(0, 100_000, size=(m, 1))).ravel()
    data = Dataset(np.arange(0, m * k + 1, k), indices, rng.integers(1, 1000, m * k) / 1000,
                   rng.choice([-1.0, 1.0], m), int(indices.max()) + 1)
    peaks = []
    for steps in (1_000, 1_000_000):
        cfg = TrainConfig(steps=steps, lam=1e-3, seed=3, loss=LossKind.LOG)
        _, peak = traced_peak(train, data, cfg)
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + (64 << 10)


def test_mean_vector_allocates_its_dim_floats():
    # the mean is data.dim floats long, as LinearModel.dense is, whatever the
    # data: one row of two nonzeros at dim 10^6 peaks at those 8 MB
    dim = 10**6
    data = Dataset(np.array([0, 2]), np.array([3, dim - 1]), np.array([0.5, -2.0]),
                   np.array([1.0]), dim)
    xbar, peak = traced_peak(mean_vector, data)
    assert xbar.size == dim and xbar[3] == 0.5 and xbar[dim - 1] == -2.0
    assert 8 * dim <= peak <= 8 * dim + SLACK
