"""The README's examples run as written: the CLI transcript, the Scripts
section's make_synthetic command, and the library snippet."""

import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, flags=re.S)


def logical_lines(block: str) -> list[str]:
    """Lines with backslash continuations joined."""
    return block.replace("\\\n", " ").splitlines()


def shell(command: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run one README command in bash, with ``sparselin`` taken from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prelude = f'sparselin() {{ {shlex.quote(sys.executable)} -m sparselin "$@"; }}; '
    return subprocess.run(["bash", "-c", prelude + command], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def make_synthetic_command() -> str:
    (scripts,) = [b for _, b in BLOCKS if "scripts/make_synthetic.py" in b]
    (line,) = [ln for ln in logical_lines(scripts) if "make_synthetic.py" in ln]
    return line.replace("scripts/", shlex.quote(str(ROOT / "scripts")) + "/", 1)


def test_cli_transcript(tmp_path):
    (transcript,) = [b for _, b in BLOCKS if b.startswith("$ printf")]
    steps: list[tuple[str, list[str]]] = []
    for line in logical_lines(transcript):
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    assert len(steps) == 4
    for command, expected in steps:
        proc = shell(command, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == expected, command


def test_make_synthetic_finishes_at_readme_sizes():
    spec = importlib.util.spec_from_file_location("make_synthetic",
                                                  ROOT / "scripts" / "make_synthetic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    data = module.make_dataset("class", 50, 100_000, 10, seed=1)
    assert (data.m, data.dim, data.indices.size) == (50, 100_000, 500)
    assert set(data.labels.tolist()) <= {-1.0, 1.0}


def test_library_snippet(tmp_path, monkeypatch):
    proc = shell(make_synthetic_command(), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote 2000 examples, dim 100000")
    (snippet,) = [b for lang, b in BLOCKS if lang == "python"]
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert math.isfinite(scope["p"])
    assert 0.0 < scope["obj"] < math.log(2.0)  # beats the zero model's log loss
