import ast
import contextlib
import gc
import importlib
import io
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import random_dataset
from sparselin import LossKind, _kernel, cli
from sparselin.cli import build_parser, main
from sparselin.data_io import fmt_float, load_dataset, parse_libsvm, write_libsvm
from sparselin.solvers import MAX_STEPS

SRC = str(Path(__file__).resolve().parent.parent / "src")
TRAIN_FLAGS = ["--algo", "sgd", "--loss", "squared", "--lambda", "1", "--steps", "1", "--seed", "0"]


@pytest.fixture
def one_line_file(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("2 1:1\n")
    return str(path)


def train(one_line_file, tmp_path, *extra):
    model_path = str(tmp_path / "model.txt")
    rc = main(["train", "--data", one_line_file, "--model", model_path, *TRAIN_FLAGS, *extra])
    return rc, model_path


class TestTrain:
    def test_one_step_sgd(self, one_line_file, tmp_path, capsys):
        rc, model_path = train(one_line_file, tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("trained algo=sgd loss=squared lambda=1 T=1 seed=0 objective=")
        text = open(model_path).read()
        assert "bias 2\n" in text and "0:2\n" in text

    def test_casgd_moves_mass_to_bias(self, one_line_file, tmp_path):
        model_path = str(tmp_path / "model.txt")
        rc = main(["train", "--data", one_line_file, "--model", model_path,
                   "--algo", "casgd", "--loss", "squared", "--lambda", "1",
                   "--steps", "1", "--seed", "0"])
        assert rc == 0
        # all weight mass moves to the bias for a single centered example
        text = open(model_path).read()
        assert text == "sparselin-model v1\nloss squared\ndim 1\nbias 2\n"

    def test_zero_lambda_exits_1_naming_flag(self, one_line_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", one_line_file, "--model", str(tmp_path / "m"),
                  "--algo", "sgd", "--loss", "squared", "--lambda", "0",
                  "--steps", "1", "--seed", "0"])
        assert exc.value.code == 1
        assert "--lambda" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, one_line_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", one_line_file, "--model", str(tmp_path / "m"),
                  "--algo", "sgd", "--loss", "squared", "--lambda", "1", "--steps", "1"])
        assert exc.value.code == 1

    def test_bad_label_for_hinge_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("2 1:1\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"),
                   "--algo", "sgd", "--loss", "hinge", "--lambda", "1",
                   "--steps", "1", "--seed", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1 x:y\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1 1:1\nnan 1:1\n", "1 1:1\n2 1:inf\n"])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, text):
        data = tmp_path / "bad.txt"
        data.write_text(text)
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    # From 2^60 on (sparse_core.MAX_DIM), no float64 vector of that length can
    # even be described (2^61 below), and beyond 2^63 - 1 an index overflows
    # int64: a file line with such an index is named by its line number
    @pytest.mark.parametrize(
        "text, extra, where",
        [("1 2305843009213693952:1\n", [], "line 1: "),
         ("1 10000000000000000000:1\n", [], "line 1: "),
         ("1 1:1\n", ["--dim", "2305843009213693952"], "")],
        ids=[f"{text}-extra{i}" for i, text in enumerate(
            ["1 1000000000000000:1\n", "1 1:1\n", "1 2305843009213693952:1\n",
             "1 10000000000000000000:1\n", "1 1:1\n"]) if i >= 2],
    )
    def test_too_large_dimension_exits_1(self, tmp_path, capsys, text, extra, where):
        data = tmp_path / "huge.txt"
        data.write_text(text)
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS,
                   *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("sparselin: error: " + where) and err.count("\n") == 1

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        data.write_text("2 1:1\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"),
                   "--algo", "sgd", "--loss", "squared", "--lambda", "1e-300",
                   "--steps", "200", "--seed", "0"])
        assert rc == 2

    def test_byte_identical_model_files(self, tmp_path):
        data = tmp_path / "train.txt"
        data.write_text("1 1:1 3:-2.5\n-1 2:0.75\n1 1:0.5 2:1\n")
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["--data", str(data), "--algo", "casgd", "--loss", "log",
                "--lambda", "0.25", "--steps", "400", "--seed", "99"]
        assert main(["train", "--model", a, *args]) == 0
        assert main(["train", "--model", b, *args]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


@pytest.fixture(params=["compiled", "fallback"])
def reader_path(request, monkeypatch):
    """Runs a test with the compiled scanners, then with the Python line code alone."""
    from sparselin import _kernel

    if request.param == "fallback":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    else:
        assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
    return request.param


class TestDefaultDimension:
    # the default dimension is the largest index read, that of a :0 value too,
    # so it is a --dim the same file trains at, and one less is refused
    @pytest.mark.parametrize("text, dim", [("1 1:1 2:0\n", 2), ("1 1:1\n-1 3:0\n1 2:1\n", 3),
                                           ("1 5:0\n", 5)])
    def test_an_explicit_zero_counts(self, reader_path, tmp_path, capsys, text, dim):
        data, model = tmp_path / "train.txt", tmp_path / "model.txt"
        data.write_text(text)
        assert load_dataset(str(data)).dim == parse_libsvm(text.splitlines()).dim == dim
        for extra in ([], ["--dim", str(dim)]):
            assert main(["train", "--data", str(data), "--model", str(model), *TRAIN_FLAGS,
                         *extra]) == 0
            assert model.read_text().splitlines()[2] == f"dim {dim}"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--model", str(model), *TRAIN_FLAGS,
                     "--dim", str(dim - 1)]) == 1
        assert f"index {dim} exceeds dimension {dim - 1}" in capsys.readouterr().err


class TestHashedSpace:
    # a hashed feature space (Weinberger et al., ICML 2009) of 10^12 features:
    # the model is the 5 features the rows use, where 10^12 float64 weights
    # would be 8 TB
    @pytest.mark.parametrize("algo", ["sgd", "asgd", "casgd"])
    def test_train_predict_eval(self, tmp_path, capsys, reader_path, algo):
        data = tmp_path / "hashed.txt"
        data.write_text("1 3:1 999999999999:-2\n-1 5:0.5\n1 77:0.25 1000000000000:1\n")
        model = tmp_path / "model.txt"
        assert main(["train", "--data", str(data), "--model", str(model), "--algo", algo,
                     "--loss", "hinge", "--lambda", "0.1", "--steps", "50", "--seed", "1",
                     "--dim", "1000000000000"]) == 0
        lines = model.read_text().splitlines()
        assert lines[2] == "dim 1000000000000" and len(lines) <= 4 + 5
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data), "--lambda", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 + 3 + 1 and out[-1].startswith("avg_loss=")


class TestInvalidUtf8:
    def test_data_line_exits_1(self, tmp_path, capsys, reader_path):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"1 1:1\n-1 2:\xff\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ("sparselin: error: line 2: not valid UTF-8 "
                                "(invalid start byte)\n")

    def test_line_number_counts_lone_carriage_returns(self, tmp_path, capsys, reader_path):
        # text-mode reading ends a line at a lone \r, so the bad byte is on line 3
        data = tmp_path / "bad.txt"
        data.write_bytes(b"1 1:1\r\n1 2:1\r-1 \xc3:1\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS])
        assert rc == 1
        assert capsys.readouterr().err.startswith("sparselin: error: line 3: not valid UTF-8")

    def test_weight_line_exits_1(self, one_line_file, tmp_path, capsys, reader_path):
        model = tmp_path / "model.txt"
        model.write_bytes(b"sparselin-model v1\nloss squared\ndim 2\nbias 0\n1:\xff\n")
        rc = main(["predict", "--model", str(model), "--data", one_line_file])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sparselin: error: line 5: not valid UTF-8 "
                                "(invalid start byte)\n")


class TestPredict:
    def test_prediction_output(self, one_line_file, tmp_path, capsys):
        rc, model_path = train(one_line_file, tmp_path)
        data = tmp_path / "test.txt"
        data.write_text("0 1:1\n9 \n")
        capsys.readouterr()
        rc = main(["predict", "--model", model_path, "--data", str(data)])
        assert rc == 0
        assert capsys.readouterr().out == "4\n2\n"

    def test_out_file_and_unlabeled_input(self, one_line_file, tmp_path):
        rc, model_path = train(one_line_file, tmp_path)
        data = tmp_path / "test.txt"
        data.write_text("1:1\n")
        out = tmp_path / "preds.txt"
        rc = main(["predict", "--model", model_path, "--data", str(data), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "4\n"

    def test_index_beyond_model_dim_is_zero_weight(self, one_line_file, tmp_path, capsys):
        rc, model_path = train(one_line_file, tmp_path)
        data = tmp_path / "test.txt"
        data.write_text("0 7:100\n")
        capsys.readouterr()
        rc = main(["predict", "--model", model_path, "--data", str(data)])
        assert rc == 0
        assert capsys.readouterr().out == "2\n"

    def test_non_finite_feature_exits_1(self, one_line_file, tmp_path, capsys):
        rc, model_path = train(one_line_file, tmp_path)
        data = tmp_path / "test.txt"
        data.write_text("1:nan\n")
        capsys.readouterr()
        rc = main(["predict", "--model", model_path, "--data", str(data)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "line 1" in captured.err

    def test_bad_dim_line_exits_1_under_python_O(self, one_line_file, tmp_path):
        # -O strips asserts: the model file checks must not rely on them
        model = tmp_path / "model.txt"
        model.write_text("sparselin-model v1\nloss squared\ndim -1\nbias 0\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "sparselin", "predict", "--model", str(model),
             "--data", one_line_file],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 1
        assert proc.stderr == "sparselin: error: line 3: expected 'dim <n>', got 'dim -1'\n"

    def test_missing_model_file_exits_1(self, tmp_path, one_line_file):
        rc = main(["predict", "--model", str(tmp_path / "nope"), "--data", one_line_file])
        assert rc == 1


class TestEval:
    def test_zero_model_objective(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text("sparselin-model v1\nloss squared\ndim 1\nbias 0\n")
        data = tmp_path / "data.txt"
        data.write_text("2 1:1\n")
        rc = main(["eval", "--model", str(model_path), "--data", str(data), "--lambda", "1"])
        assert rc == 0
        assert capsys.readouterr().out == "avg_loss=2 objective=2\n"

    def test_trained_model_hand_values(self, one_line_file, tmp_path, capsys):
        # w=[2], b=2 on "2 1:1": p=4, avg_loss=2, objective=(1/2)*8+2=6
        rc, model_path = train(one_line_file, tmp_path)
        capsys.readouterr()
        rc = main(["eval", "--model", model_path, "--data", one_line_file, "--lambda", "1"])
        assert rc == 0
        assert capsys.readouterr().out == "avg_loss=2 objective=6\n"

    def test_accuracy_on_separable_hinge(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text("sparselin-model v1\nloss hinge\ndim 2\nbias 0\n0:1\n1:-1\n")
        data = tmp_path / "data.txt"
        data.write_text("1 1:2\n-1 2:2\n1 1:1 2:2\n")
        rc = main(["eval", "--model", str(model_path), "--data", str(data), "--lambda", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        # third example predicts 1-2=-1 but y=+1: 2/3 correct
        assert out.strip().endswith(f"accuracy={2 / 3!r}")

    def test_tie_counts_incorrect(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text("sparselin-model v1\nloss hinge\ndim 1\nbias 0\n")
        data = tmp_path / "data.txt"
        data.write_text("1 1:1\n")
        rc = main(["eval", "--model", str(model_path), "--data", str(data), "--lambda", "1"])
        assert rc == 0
        assert "accuracy=0\n" in capsys.readouterr().out


class TestTrainObjective:
    # train scores the data as read through the Scorer that eval scores a file
    # with, so it prints eval's objective on the same file, model and lambda
    @pytest.mark.parametrize("kernel", [True, False], ids=["compiled", "fallback"])
    @pytest.mark.parametrize("algo", ["sgd", "asgd", "casgd"])
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_equals_evals_objective(self, tmp_path, capsys, monkeypatch, kernel, algo, kind):
        if not kernel:
            monkeypatch.setattr(_kernel, "load", lambda: None)
        # rows without features, and a --dim beyond every index
        data = random_dataset(np.random.default_rng(13), 40, 25, 6, kind)
        assert np.diff(data.indptr).min() == 0
        path, model = tmp_path / "data.txt", str(tmp_path / "model.txt")
        with open(path, "w") as fh:
            write_libsvm(data, fh)
        assert main(["train", "--data", str(path), "--model", model, "--algo", algo,
                     "--loss", kind.value, "--lambda", "0.05", "--steps", "300", "--seed", "9",
                     "--dim", "80"]) == 0
        trained = capsys.readouterr().out
        assert main(["eval", "--model", model, "--data", str(path), "--lambda", "0.05"]) == 0
        evaluated = capsys.readouterr().out
        objective = re.compile(r"objective=(\S+)")
        assert objective.search(trained)[1] == objective.search(evaluated)[1]


class TestRejectedLambda:
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_exits_1_with_one_line_naming_the_flag(self, one_line_file, tmp_path, capsys,
                                                    command, value):
        _, model_path = train(one_line_file, tmp_path)
        capsys.readouterr()
        argv = {"train": ["train", "--data", one_line_file, "--model", str(tmp_path / "m"),
                          *TRAIN_FLAGS],
                "eval": ["eval", "--model", model_path, "--data", one_line_file,
                         "--lambda", "1"]}[command]
        argv[argv.index("--lambda") + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"sparselin {command}: error: argument --lambda: "
            f"must be a positive finite real, got '{value}'"]


class TestRejectedTrainFlag:
    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "0", "must be >= 1"),
        # the loops count steps in a signed 64-bit integer, up to T + 1
        ("--steps", "9223372036854775807", "must be <= 9223372036854775806"),
        ("--seed", "-1", "must be an unsigned 64-bit integer"),
        ("--seed", "18446744073709551616", "must be an unsigned 64-bit integer"),
        ("--dim", "-1", "must be >= 0"),
    ])
    def test_exits_1_with_one_line_naming_the_flag(self, one_line_file, tmp_path, capsys,
                                                    flag, value, message):
        with pytest.raises(SystemExit) as exc:
            train(one_line_file, tmp_path, flag, value)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"sparselin train: error: argument {flag}: {message}, got '{value}'"]


def test_largest_step_count_parses():
    args = build_parser().parse_args(["train", "--data", "d", "--model", "m", *TRAIN_FLAGS,
                                      "--steps", "9223372036854775806"])
    assert args.steps == 2**63 - 2 == MAX_STEPS


class TestOneTimePassOverflow:
    # numpy's RuntimeWarning text would be a second line: warnings are errors here
    def run(self, tmp_path, rows, *flags):
        data, model = tmp_path / "data.txt", tmp_path / "model.txt"
        data.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--data", str(data), "--model", str(model), *flags,
                       "--seed", "0"])
        assert not model.exists()
        return rc

    def test_centering_exits_1_naming_the_mean(self, tmp_path, capsys):
        # theta = 1 + |xbar|^2 overflows whatever lambda is
        rc = self.run(tmp_path, "1 1:1e200 2:1e200\n-1 1:1e200\n", "--algo", "casgd",
                      "--loss", "hinge", "--lambda", "1", "--steps", "5")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sparselin: error: theta = 1 + |xbar|^2 = inf is not finite: "
                                "the feature means are too large to center\n")

    @pytest.mark.parametrize("algo", ["sgd", "asgd", "casgd"])
    def test_recovery_exits_2(self, tmp_path, capsys, algo):
        # one step gives v = -5e10, which 1/(lambda*T) = 1e300 scales beyond any double
        rc = self.run(tmp_path, "5 1:1e10\n", "--algo", algo, "--loss", "squared",
                      "--lambda", "1e-300", "--steps", "1")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sparselin: numerical failure: the model overflows when its "
                                "sums are divided by lambda*T = 1e-300; lambda may be too small "
                                "for the data\n")


class TestFailedTrainKeepsTheModelPath:
    # one step with g*x = -1e310 makes v = -inf: the model is not finite
    @pytest.mark.parametrize("earlier", [False, True], ids=["new", "earlier"])
    def test_exits_1_leaving_the_path_as_it_was(self, tmp_path, capsys, reader_path, earlier):
        data, model = tmp_path / "data.txt", tmp_path / "model.txt"
        data.write_text("1e10 1:1e300\n")
        if earlier:
            model.write_text("an earlier model\n")
        rc = main(["train", "--data", str(data), "--model", str(model), *TRAIN_FLAGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.endswith("sparselin: error: model contains non-finite values\n")
        assert sorted(os.listdir(tmp_path)) == ["data.txt", "model.txt"][:1 + earlier]
        assert not earlier or model.read_text() == "an earlier model\n"

    def test_both_loops_print_one_line(self, tmp_path, capsys, monkeypatch):
        # the fallback loop's v update overflows as the compiled one does,
        # with no numpy RuntimeWarning as a second line: warnings are errors here
        from sparselin import _kernel

        assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
        data = tmp_path / "data.txt"
        data.write_text("1e10 1:1e300\n")
        runs = []
        for fallback in (False, True):
            if fallback:
                monkeypatch.setattr(_kernel, "load", lambda: None)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["train", "--data", str(data), "--model", str(tmp_path / "model.txt"),
                           *TRAIN_FLAGS])
            runs.append((rc, capsys.readouterr().err))
        assert runs[0] == runs[1] == (1, "sparselin: error: model contains non-finite values\n")

    def test_replaces_a_model_keeping_its_mode(self, one_line_file, tmp_path):
        # the mode open gives: the umask's for a new file, an existing file's own
        model = tmp_path / "model.txt"
        rc, _ = train(one_line_file, tmp_path)
        assert rc == 0
        umask = os.umask(0)
        os.umask(umask)
        assert model.stat().st_mode & 0o7777 == 0o666 & ~umask
        model.chmod(0o640)
        model.write_text("an earlier model\n")
        rc, _ = train(one_line_file, tmp_path)
        assert rc == 0
        assert model.stat().st_mode & 0o7777 == 0o640
        assert model.read_text().startswith("sparselin-model v1\n")
        assert sorted(os.listdir(tmp_path)) == ["model.txt", "train.txt"]

    def test_missing_directory_names_the_model_path(self, one_line_file, tmp_path, capsys):
        model = tmp_path / "missing" / "model.txt"
        assert main(["train", "--data", one_line_file, "--model", str(model), *TRAIN_FLAGS]) == 1
        assert capsys.readouterr().err.endswith(f"No such file or directory: '{model}'\n")

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_writes_through_a_device(self, one_line_file):
        assert main(["train", "--data", one_line_file, "--model", os.devnull, *TRAIN_FLAGS]) == 0


class TestNonFiniteScore:
    # 1e300 * 1e10 overflows to inf; a row holding both features sums to nan
    MODEL = "sparselin-model v1\nloss hinge\ndim 2\nbias 1e308\n0:1e300\n1:-1e300\n"

    @pytest.mark.parametrize("rows, first", [("1 1:1e10\n-1 2:1e10\n", 1),
                                             ("1 1:1\n-1 2:1e10\n", 2),
                                             ("1 1:1\n-1 1:1e10 2:1e10\n", 2),
                                             ("1 1:1\n1 1:1e8\n", 2)])  # 1e308 + bias
    @pytest.mark.parametrize("command", ["predict", "predict --out", "eval"])
    def test_exits_1_naming_the_example(self, tmp_path, capsys, command, rows, first):
        model, data, out = tmp_path / "model.txt", tmp_path / "data.txt", tmp_path / "out.txt"
        model.write_text(self.MODEL)
        data.write_text(rows)
        argv = [command.split()[0], "--model", str(model), "--data", str(data)]
        argv += {"predict": [], "predict --out": ["--out", str(out)],
                 "eval": ["--lambda", "1"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning text included
            rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"sparselin: error: example {first}: score -?(inf|nan) "
                            "is not finite\n", captured.err)
        assert not out.exists()


class TestNonFiniteObjective:
    # every score is finite, but the penalty or the average loss overflows
    @pytest.mark.parametrize("model, rows, message", [
        ("loss hinge\ndim 4\nbias 0\n0:1e300\n1:-1e300\n", "1 3:1\n",
         "penalty (lambda/2)(|w|^2 + b^2) = inf is not finite"),
        ("loss squared\ndim 2\nbias 0\n0:1e200\n", "1 1:1\n", "average loss inf is not finite"),
    ])
    def test_eval_exits_1_naming_the_term(self, tmp_path, capsys, model, rows, message):
        model_path, data = tmp_path / "model.txt", tmp_path / "data.txt"
        model_path.write_text("sparselin-model v1\n" + model)
        data.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning text included
            rc = main(["eval", "--model", str(model_path), "--data", str(data), "--lambda", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sparselin: error: {message}\n"

    def test_train_writes_the_model_then_exits_1(self, one_line_file, tmp_path, capsys):
        # one step with lambda 1e-200 gives w = b = 2e200: finite, but its loss overflows
        model_path = tmp_path / "model.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--data", one_line_file, "--model", str(model_path),
                       "--algo", "sgd", "--loss", "squared", "--lambda", "1e-200",
                       "--steps", "1", "--seed", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sparselin: error: average loss inf is not finite\n"
        assert model_path.read_text().endswith("bias 2e+200\n0:2e+200\n")


def fed_through_fifo(tmp_path, source, read):
    """``[read(fifo)]``, ``fifo`` naming a named pipe that another thread fills
    with the bytes of the file ``source``."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(source.read_bytes())

    result = []
    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: result.append(read(str(fifo))), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    hung = any(thread.is_alive() for thread in threads)
    if hung:  # release a reader that waits for a writer, and a writer that waits for a reader
        for flags in (os.O_WRONLY | os.O_NONBLOCK, os.O_RDONLY | os.O_NONBLOCK):
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, flags))
    assert not hung, "a command did not finish reading the pipe"
    fifo.unlink()
    return result


def through_fifo(tmp_path, capsys, argv, source):
    """``main(argv)``, each "FIFO" in argv naming a named pipe that another thread
    fills with the bytes of the file ``source``: the exit code, stdout and stderr."""
    rc = fed_through_fifo(tmp_path, source,
                          lambda fifo: main([fifo if a == "FIFO" else a for a in argv]))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
class TestPipeInputs:
    # a pipe can be read once only, so the readers cannot count it first: they
    # start with no room and grow, and must give what a regular file gives
    @pytest.fixture
    def files(self, tmp_path, capsys, monkeypatch):
        from sparselin import data_io

        monkeypatch.setattr(data_io, "CHUNK", 256)  # many blocks, each filling the room
        data, model = tmp_path / "data.txt", tmp_path / "model.txt"
        data.write_text("".join(f"{(-1) ** i} {i % 7 + 1}:{i / 8} {i % 11 + 9}:-0.5 {i + 20}:2e-3\n"
                                for i in range(300)))
        assert main(["train", "--data", str(data), "--model", str(model), "--algo", "casgd",
                     "--loss", "hinge", "--lambda", "1e-3", "--steps", "900", "--seed", "3"]) == 0
        assert model.read_text().count("\n") > 300
        return data, model, capsys.readouterr().out

    @pytest.mark.parametrize("command", ["predict --model FIFO --data DATA",
                                         "predict --model MODEL --data FIFO",
                                         "eval --model MODEL --data FIFO --lambda 1e-3"])
    def test_scoring(self, tmp_path, capsys, reader_path, files, command):
        data, model, _ = files
        argv = command.replace("DATA", str(data)).replace("MODEL", str(model)).split()
        source = model if argv[2] == "FIFO" else data
        assert main([str(source) if a == "FIFO" else a for a in argv]) == 0
        expected = capsys.readouterr().out
        assert through_fifo(tmp_path, capsys, argv, source) == ([0], expected, "")

    def test_train(self, tmp_path, capsys, reader_path, files):
        data, model, trained = files
        argv = ["train", "--data", "FIFO", "--model", str(tmp_path / "piped.txt"), "--algo",
                "casgd", "--loss", "hinge", "--lambda", "1e-3", "--steps", "900", "--seed", "3"]
        assert through_fifo(tmp_path, capsys, argv, data) == ([0], trained, "")
        assert (tmp_path / "piped.txt").read_bytes() == model.read_bytes()


class TestScoredBlocks:
    # predict and eval score a file a block of CHUNK bytes at a time as they
    # read it; the errors, their order and the output must be those of
    # scoring the whole file at once
    MODEL = "sparselin-model v1\nloss hinge\ndim 4\nbias 0.5\n0:1\n1:-2\n3:0.25\n"
    HUGE = "sparselin-model v1\nloss hinge\ndim 2\nbias 0\n0:1e300\n1:-1e300\n"

    @pytest.fixture(params=["file", "fifo"])
    def run(self, request, tmp_path, capsys, monkeypatch):
        """``run(model, rows, command, *flags)``: ``command`` (predict or eval)
        with a model file holding ``model`` and a data file or named pipe
        holding ``rows``, read 64 bytes at a time: the exit code, stdout and
        stderr."""
        from sparselin import data_io

        monkeypatch.setattr(data_io, "CHUNK", 64)

        def run(model, rows, command, *flags):
            model_path, data = tmp_path / "model.txt", tmp_path / "data.txt"
            model_path.write_text(model)
            data.write_bytes(rows.encode())
            argv = [command, "--model", str(model_path), "--data", "FIFO", *flags]
            if command == "eval":
                argv += ["--lambda", "1"]
            if request.param == "fifo":
                (rc,), out, err = through_fifo(tmp_path, capsys, argv, data)
                return rc, out, err
            rc = main([str(data) if a == "FIFO" else a for a in argv])
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        return run

    GOOD = "1 1:1 2:0.5\n-1 3:2\n" * 40  # 600 bytes: ten blocks

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_a_parse_error_in_the_last_block_comes_first(self, run, reader_path, command):
        rc, out, err = run(self.MODEL, "2 1:1\n" + self.GOOD + "1 x:1\n", command)
        assert (rc, out) == (1, "")
        assert err == "sparselin: error: line 82: bad feature index 'x'\n"

    def test_a_bad_label_comes_before_a_non_finite_score(self, run, reader_path):
        rows = "1 1:1e10\n" + self.GOOD + "0.5 1:1\n"
        rc, out, err = run(self.HUGE, rows, "eval")
        assert (rc, out) == (1, "")
        assert err == ("sparselin: error: example 82: hinge loss needs labels in {-1, +1}, "
                       "got 0.5\n")

    @pytest.mark.parametrize("command", ["predict", "predict --out", "eval"])
    def test_a_non_finite_score_writes_nothing(self, run, reader_path, tmp_path, command):
        out_path = tmp_path / "out.txt"
        command, *flags = command.split()
        rc, out, err = run(self.HUGE, self.GOOD + "1 1:1e10\n" + self.GOOD, command,
                           *(["--out", str(out_path)] if flags else []))
        assert (rc, out) == (1, "")
        assert err == "sparselin: error: example 81: score inf is not finite\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("rows", ["# only a comment\n", "# one\n\n  \n# two\n" * 20, ""])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_no_data_lines(self, run, reader_path, command, rows):
        assert run(self.MODEL, rows, command) == (
            1, "", "sparselin: error: no data lines found\n")

    # CRLF, comments and blank lines where blocks begin and end, a lone \r
    # (a line break to text-mode reading), a row longer than a block, indices
    # beyond the model's dim and :0 values
    ROWS = ("1 1:0.5 2:-1\r\n# a comment, long enough to straddle a block boundary\r\n"
            "\n\r\n-1 3:2 7:100\r\n1 1:1\r-1 2:0.25 4:0\n"
            + "1 " + " ".join(f"{j}:0.{j}" for j in range(1, 40)) + "\n"
            + "-1 2:3\r\n\n# end\n" * 9 + "1 4:-8")

    def test_predict_bytes_are_those_of_whole_file_scoring(self, run, reader_path, tmp_path):
        from sparselin.data_io import load_dataset, load_model, write_floats
        from sparselin.losses import scores

        rc, out, err = run(self.MODEL, self.ROWS, "predict")
        assert (rc, err) == (0, "")
        data = load_dataset(str(tmp_path / "data.txt"), require_labels=False)
        assert data.m == 15
        expected = io.StringIO()
        write_floats(scores(load_model(str(tmp_path / "model.txt")), data), expected)
        assert out == expected.getvalue()

    def test_eval_line_is_that_of_whole_file_scoring(self, run, reader_path, tmp_path):
        from sparselin.data_io import load_dataset, load_model
        from sparselin.losses import mean_loss, penalized, scores

        rc, out, err = run(self.MODEL, self.ROWS, "eval")
        assert (rc, err) == (0, "")
        model = load_model(str(tmp_path / "model.txt"))
        data = load_dataset(str(tmp_path / "data.txt"))
        p = scores(model, data)
        avg = mean_loss(model.loss, p, data.labels)
        accuracy = np.count_nonzero(p * data.labels > 0) / data.m
        assert out == (f"avg_loss={fmt_float(avg)} objective="
                       f"{fmt_float(penalized(model, 1.0, avg))} accuracy={fmt_float(accuracy)}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
class TestScoringInputIsReadOnce:
    # predict and eval's reader sizes its arrays as it reads, so it reads a
    # regular file once, as it reads a pipe, and gives for both the scores,
    # labels and first error of whole-file scoring
    MODEL, HUGE = TestScoredBlocks.MODEL, TestScoredBlocks.HUGE
    # long rows, then many short ones, then long ones: later blocks hold more
    # lines and more nonzeros than any before them
    ROWS = ("".join(f"{(-1) ** i} " + " ".join(f"{j}:{j / 8}" for j in range(1, 30, i % 3 + 1))
                    + "\n" for i in range(12))
            + "-1 2:0.5\n1 1:3\n" * 120 + TestScoredBlocks.ROWS + "\n"
            + "".join(f"1 {i % 4 + 1}:{i}e-3 {i + 5}:1\n" for i in range(200)))

    @pytest.mark.parametrize("chunk", [64, None])
    @pytest.mark.parametrize("model_text, rows, error", [
        (MODEL, ROWS, None),
        (MODEL, ROWS + "1 x:1\n" + ROWS, "line 489: bad feature index 'x'"),
        (HUGE, ROWS.replace("# end", "0.5 1:1") + "1 1:1e10\n", "example 259: hinge loss"),
        (HUGE, ROWS + "1 1:1e10\n" + ROWS, "example 468: score inf is not finite"),
    ])
    def test_a_file_is_not_counted_and_reads_as_a_pipe(self, tmp_path, monkeypatch, reader_path,
                                                       chunk, model_text, rows, error):
        from sparselin import data_io
        from sparselin.errors import SparselinError
        from sparselin.losses import scores

        if chunk is not None:
            monkeypatch.setattr(data_io, "CHUNK", chunk)
        path, data = tmp_path / "model.txt", tmp_path / "data.txt"
        path.write_text(model_text)
        data.write_text(rows)
        model = data_io.load_model(str(path))

        def outcome(source):
            try:
                p, y = data_io.load_scores(source, model)
            except SparselinError as exc:
                return type(exc), str(exc)
            return p.tobytes(), y.tobytes()

        def counted(fh):
            raise AssertionError("load_scores counted its input before reading it")

        with monkeypatch.context() as mp:
            mp.setattr(data_io, "_count", counted)
            from_file = outcome(str(data))
        assert fed_through_fifo(tmp_path, data, outcome) == [from_file]
        if error is None:
            whole = data_io.load_dataset(str(data))
            assert from_file == (scores(model, whole).tobytes(), whole.labels.tobytes())
        else:
            assert error in from_file[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        data = tmp_path / "train.txt"
        data.write_text("2 1:1\n")
        model = tmp_path / "model.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "sparselin", "train", "--data", str(data),
             "--model", str(model), *TRAIN_FLAGS],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("trained algo=sgd")

    def test_no_subcommand_exits_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sparselin"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 1
        assert "the following arguments are required: command" in proc.stderr

    def test_main_never_freezes(self, one_line_file, tmp_path, capsys):
        # tests and library callers run many commands in one process, whose
        # objects must stay collectable
        before = gc.get_freeze_count()
        rc, model = train(one_line_file, tmp_path)
        assert rc == 0
        assert main(["predict", "--model", model, "--data", one_line_file]) == 0
        assert main(["eval", "--model", model, "--data", one_line_file, "--lambda", "1"]) == 0
        assert main(["eval", "--model", str(tmp_path / "missing"), "--data", one_line_file,
                     "--lambda", "1"]) == 1
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, outcome", [
        (["train", "--data", "DATA", "--model", "MODEL", *TRAIN_FLAGS], 0),
        (["train", "--data", "MISSING", "--model", "MODEL", *TRAIN_FLAGS], 1),
        (["train", "--data", "DATA", "--model", "MODEL", "--algo", "sgd", "--loss", "squared",
          "--lambda", "1e-300", "--steps", "200", "--seed", "0"], 2),
        (["train", "--data", "DATA"], SystemExit(1)),
    ], ids=["exit0", "exit1", "exit2", "usage"])
    def test_run_freezes_once_however_main_ends(self, one_line_file, tmp_path, capsys,
                                                monkeypatch, argv, outcome):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        argv = [{"DATA": one_line_file, "MISSING": str(tmp_path / "missing"),
                 "MODEL": str(tmp_path / "model.txt")}.get(a, a) for a in argv]
        if isinstance(outcome, SystemExit):
            with pytest.raises(SystemExit) as exc:
                cli.run(argv)
            assert exc.value.code == outcome.code
        else:
            assert cli.run(argv) == outcome
        assert frozen == [True]

    def test_script_and_module_share_one_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads(Path(SRC).parent.joinpath("pyproject.toml").read_text())
        module, name = pyproject["project"]["scripts"]["sparselin"].split(":")
        # __main__.py is ``sys.exit(<name>())`` for a name it imports from .cli
        tree = ast.parse(Path(SRC, "sparselin", "__main__.py").read_text())
        imported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.module == "cli" for a in node.names}
        exits = [node.value.args[0].func.id for node in tree.body
                 if isinstance(node, ast.Expr) and ast.unparse(node.value.func) == "sys.exit"]
        assert len(exits) == 1 and exits[0] in imported
        assert getattr(importlib.import_module(module), name) is getattr(cli, exits[0])

    def test_import_loads_no_kernel(self):
        # the kernel's build and ctypes cost belongs to the commands that read
        # or train, not to every import; numpy may import ctypes on its own
        code = ("import sys; import numpy; numpy_ctypes = 'ctypes' in sys.modules; "
                "import sparselin; "
                "print('sparselin._kernel' in sys.modules, "
                "'ctypes' in sys.modules and not numpy_ctypes)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    def test_imports_form_one_chain(self):
        # a module imports, at module level, only modules before it in the
        # chain; a function imports only _kernel (see above); and no import
        # waits under TYPE_CHECKING
        chain = ["_kernel", "errors", "sparse_core", "losses", "solvers", "data_io", "cli",
                 "__init__", "__main__"]

        def package_modules(node):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "sparselin" for a in node.names)
            if not (isinstance(node, ast.ImportFrom) and node.level):
                return []
            return [node.module] if node.module else [a.name for a in node.names]

        for path in Path(SRC, "sparselin").glob("*.py"):
            source = path.read_text()
            assert "TYPE_CHECKING" not in source, path.name
            tree = ast.parse(source)
            for node in tree.body:
                for name in package_modules(node):
                    assert chain.index(name) < chain.index(path.stem), (path.name, name)
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(fn):
                        assert package_modules(node) in ([], ["_kernel"]), (path.name, fn.name)

    def test_names_resolve_from_their_old_modules(self):
        import sparselin
        from sparselin import data_io, solvers

        assert data_io.Dataset is sparselin.Dataset
        assert solvers.LinearModel is sparselin.LinearModel
        assert sparselin.__all__ == """Dataset DenseVec DimensionError EmptyDatasetError
            FormatError IndexOrderError LabelError LinearModel LossKind NonFiniteError
            ParseError SparseVec SparselinError TouchCounter TrainConfig
            asgd_train casgd_train draw_indices load_dataset load_model
            loss_subgradient loss_value mean_vector objective_value parse_libsvm predict
            read_model save_model sgd_train validate_labels write_libsvm
            write_model""".split()


@pytest.mark.skipif(os.name != "posix", reason="POSIX descriptors and pipes")
class TestStdoutWriteErrors:
    # stdout to a file or pipe is block-buffered, so a summary line or a short
    # prediction output is written only when main flushes it: an error there
    # is one line and exit 1, not the interpreter's report at exit (code 120)
    @pytest.fixture
    def model(self, one_line_file, tmp_path, capsys):
        rc, model = train(one_line_file, tmp_path)
        assert rc == 0
        capsys.readouterr()
        return model

    def command(self, command, model, one_line_file, tmp_path):
        return {"train": ["train", "--data", one_line_file, "--model",
                          str(tmp_path / "again.txt"), *TRAIN_FLAGS],
                "predict": ["predict", "--model", model, "--data", one_line_file],
                "eval": ["eval", "--model", model, "--data", one_line_file, "--lambda", "1"],
                "help": ["--help"],
                "train-help": ["train", "--help"],
                }[command]

    def run(self, argv, **popen):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        return subprocess.run([sys.executable, "-m", "sparselin", *argv], stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60, **popen)

    # argparse prints --help and exits inside parse_args, which main runs in
    # its try, so a write error in the help is reported as any other
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["train", "predict", "eval", "help", "train-help"])
    def test_full_device(self, model, one_line_file, tmp_path, command):
        with open("/dev/full", "wb") as full:
            proc = self.run(self.command(command, model, one_line_file, tmp_path), stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, "sparselin: error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_pipe_with_no_reader(self, model, one_line_file, tmp_path, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(self.command(command, model, one_line_file, tmp_path),
                            stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "sparselin: error: [Errno 32] Broken pipe\n")

    def test_predict_to_a_closed_stdout(self, model, one_line_file, tmp_path):
        proc = self.run(self.command("predict", model, one_line_file, tmp_path),
                        preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (
            1, "sparselin: error: standard output is closed; give --out\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_closed_stdout(self, model, one_line_file, tmp_path, command):
        # the summary line has nowhere to go: refused before any work, so
        # train writes no model
        proc = self.run(self.command(command, model, one_line_file, tmp_path),
                        preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (
            1, "sparselin: error: standard output is closed\n")
        assert not (tmp_path / "again.txt").exists()
