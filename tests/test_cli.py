import subprocess
import sys

import pytest

from sparselin.cli import main

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

    # 1e15 float64 weights are 8 PB, beyond the address space: the allocation
    # fails at once, so these tests allocate nothing
    @pytest.mark.parametrize("text, extra", [("1 1000000000000000:1\n", []),
                                             ("1 1:1\n", ["--dim", "1000000000000000"])])
    def test_too_large_dimension_exits_1(self, tmp_path, capsys, text, extra):
        data = tmp_path / "huge.txt"
        data.write_text(text)
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m"), *TRAIN_FLAGS,
                   *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("sparselin: error: ") and err.count("\n") == 1

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        data = tmp_path / "train.txt"
        data.write_text("2 1:1\n")
        model = tmp_path / "model.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "sparselin", "train", "--data", str(data),
             "--model", str(model), *TRAIN_FLAGS],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("trained algo=sgd")

    def test_no_subcommand_exits_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sparselin"], capture_output=True, text=True
        )
        assert proc.returncode == 1
