#!/usr/bin/env python3
"""Record the reference values that run.py checks against.

Run from the root of the checkout whose outputs are the reference:

    python3 perfbench/record.py

For every workload and every seed of ``run.SEEDS`` it generates the corpus
and runs ``sparselin train`` in-process for each algorithm, then rewrites
recorded.json with:

- per corpus sha256: the printed objective and the model sha256 of each
  algorithm (run.py checks the objective and prints whether the model
  bytes still match);
- per workload: the TouchCounter totals of each algorithm, which depend on
  m, n, k and T only, since every row has exactly k nonzeros;
- the machine the values were recorded on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import checks
import corpus
from run import ALGOS, HERE, SEEDS, WORKLOADS, Run, count_touches, import_package, sha256_file


def main() -> int:
    root = Path.cwd()
    pkg = import_package(root)
    corpora, touches = {}, {}
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            run = Run(root, name, seed, started=time.monotonic())
            try:
                data = corpus.generate(w.spec, seed)
                run.labeled.write_bytes(data.labeled)
                entry = {"workload": name, "seed": seed, "objective": {}, "model_sha256": {}}
                for label, cmd in run.commands("record")[:len(ALGOS)]:
                    algo = label.removeprefix("train_")
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = pkg["cli"].main(cmd)
                    if rc != 0:
                        raise SystemExit(f"{name} seed {seed} {algo}: exit code {rc}")
                    entry["objective"][algo] = checks.summary_fields(out.getvalue())["objective"]
                    entry["model_sha256"][algo] = sha256_file(run.model_path("record", algo))
                corpora[corpus.sha256(data.labeled)] = entry
                if name not in touches:
                    touches[name] = count_touches(run, pkg)[1]
            finally:
                run.close()
                shutil.rmtree(run.work, ignore_errors=True)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    recorded = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
        "touches": touches,
        "corpora": corpora,
    }
    (HERE / "recorded.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
