"""L2-regularized linear predictors on high-dimensional sparse data.

Three trainers -- plain SGD, averaged SGD, and centered averaged SGD --
that keep every per-step operation proportional to the number of nonzeros
in the sampled example, so training costs O(n + T*k) instead of O(T*n).
"""

from .errors import (
    DimensionError,
    EmptyDatasetError,
    FormatError,
    IndexOrderError,
    LabelError,
    NonFiniteError,
    ParseError,
    SparselinError,
)
from .sparse_core import Dataset, DenseVec, SparseVec, TouchCounter, mean_vector
from .losses import (LinearModel, LossKind, loss_subgradient, loss_value, objective_value,
                     predict, validate_labels)
from .solvers import (
    TrainConfig,
    asgd_train,
    casgd_train,
    draw_indices,
    sgd_train,
)
from .data_io import (
    load_dataset,
    load_model,
    parse_libsvm,
    read_model,
    save_model,
    write_libsvm,
    write_model,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DenseVec",
    "DimensionError",
    "EmptyDatasetError",
    "FormatError",
    "IndexOrderError",
    "LabelError",
    "LinearModel",
    "LossKind",
    "NonFiniteError",
    "ParseError",
    "SparseVec",
    "SparselinError",
    "TouchCounter",
    "TrainConfig",
    "asgd_train",
    "casgd_train",
    "draw_indices",
    "load_dataset",
    "load_model",
    "loss_subgradient",
    "loss_value",
    "mean_vector",
    "objective_value",
    "parse_libsvm",
    "predict",
    "read_model",
    "save_model",
    "sgd_train",
    "validate_labels",
    "write_libsvm",
    "write_model",
]
