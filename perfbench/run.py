#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sparselin command line.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0

A run generates its corpus from ``--seed`` (numpy only, see corpus.py; seeds
wrap around the recorded range SEEDS, so every run checks against a recorded
reference) and then drives a closed loop with one client: ``sparselin train`` for each
algorithm, ``predict`` and ``eval`` run as subprocesses one at a time, back
to back, and the cycle repeats until ``--seconds`` is spent.  Every command
and every output check is one operation.  The last line of stdout is one
JSON object with the operations attempted and failed and the metrics, each
the median over the run's cycles.  Command times are wall times scaled to a
reference CPU speed measured by a calibration program run between commands
(see CALIBRATION); the unscaled medians are printed beside them.

With ``--trace 1`` each cycle also runs the same commands in-process under
layertrace's wrappers and the run reports the per-layer metrics instead.
No layer queues or retries, so no waiting time is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import corpus
from layertrace import LAYERS, Tracer, deep_size

HERE = Path(__file__).resolve().parent
ALGOS = ("sgd", "asgd", "casgd")
SETUP_SAMPLES = 2  # fresh-interpreter imports timed per cycle
RUN_LIMIT_S = 170.0  # a run must end within 180 s; commands are killed past this
# The seeds whose reference outputs recorded.json holds (see record.py).  A
# --seed outside this range wraps around it, so no run goes unchecked.
SEEDS = range(0, 31)

# The speed of a shared CPU drifts by tens of percent over seconds, so every
# timed command runs between two runs of this fixed program, which does the
# same kind of work (interpreter start, numpy import, a Python parse loop
# with small numpy updates) and never imports sparselin.  A command's time is
# reported scaled by CALIBRATION_REF_S / (mean of the two calibration times
# around it): seconds at the speed at which the calibration takes 0.25 s.
CALIBRATION = """
import numpy as np
line = " ".join(f"{i * 7919 % 1000003}:{(i % 997) / 1000}" for i in range(20))
v = np.zeros(1000)
for r in range(4000):
    toks = line.split()
    idx = np.array([int(t.partition(":")[0]) % 1000 for t in toks])
    v[idx] += np.array([float(t.partition(":")[2]) for t in toks])
"""
CALIBRATION_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    spec: corpus.Spec
    loss: str
    lam: float
    steps: int
    dim: int | None  # --dim passed to train


# Why each workload exists and which layer it loads: see README.md.
WORKLOADS = {
    "tall": Workload(corpus.Spec(m=10_000, n=1_000_000, k=20, kind="class"),
                     loss="hinge", lam=1e-4, steps=10_000, dim=None),
    "steps": Workload(corpus.Spec(m=2_000, n=100_000, k=20, kind="class"),
                      loss="log", lam=1e-4, steps=100_000, dim=None),
    "wide": Workload(corpus.Spec(m=2_000, n=10_000_000, k=20, kind="regress"),
                     loss="squared", lam=1.0, steps=10_000, dim=10_000_000),
}

def metric_units(key: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under key."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


class Ledger:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # any fault in the output counts as a failed operation
            self.failed += 1
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


@dataclass
class Result:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def ensure_ok(self) -> None:
        if self.rc != 0:
            raise checks.CheckError(f"exit code {self.rc}: {self.stderr.strip()[-300:]}")


def sha256_file(path: Path) -> str:
    return corpus.sha256(path.read_bytes())


class Run:
    """One benchmark invocation: its workload, files and subprocess plumbing."""

    def __init__(self, root: Path, name: str, seed: int, started: float):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.work = root / ".perfbench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.labeled = self.work / "data.txt"
        self.features = self.work / "features.txt"
        self._launcher: subprocess.Popen | None = None
        self._calibration_s: float | None = None

    def spawn(self, argv: list[str]) -> Result:
        out_path, err_path = self.work / "cmd.out", self.work / "cmd.err"
        request = {"argv": argv, "env": self.env, "cwd": str(self.root),
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": max(self.started + RUN_LIMIT_S - time.monotonic(), 1.0)}
        if self._launcher is None:
            self._launcher = subprocess.Popen(
                [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return Result(reply["rc"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                      out_path.read_text(), err_path.read_text())

    def close(self) -> None:
        if self._launcher is None:
            return
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def calibrate(self) -> float:
        r = self.spawn([sys.executable, "-I", "-c", CALIBRATION])
        if r.rc != 0:
            raise RuntimeError(f"calibration program failed: {r.stderr.strip()[-300:]}")
        return r.wall_s

    def timed(self, argv: list[str]) -> tuple[Result, float]:
        """Run argv between two calibration runs; returns its result and its
        wall time scaled to the reference speed."""
        if self._calibration_s is None:
            self._calibration_s = self.calibrate()
        r = self.spawn(argv)
        after = self.calibrate()
        scaled = r.wall_s * CALIBRATION_REF_S * 2 / (self._calibration_s + after)
        self._calibration_s = after
        return r, scaled

    def commands(self, tag: str) -> list[tuple[str, list[str]]]:
        """The cycle's commands as (label, sparselin argv); outputs are named by tag."""
        w = self.workload
        cmds = []
        for algo in ALGOS:
            args = ["train", "--data", str(self.labeled), "--model", str(self.model_path(tag, algo)),
                    "--algo", algo, "--loss", w.loss, "--lambda", repr(w.lam),
                    "--steps", str(w.steps), "--seed", str(self.seed)]
            if w.dim is not None:
                args += ["--dim", str(w.dim)]
            cmds.append((f"train_{algo}", args))
        casgd = str(self.model_path(tag, "casgd"))
        cmds.append(("predict", ["predict", "--model", casgd, "--data", str(self.features),
                                 "--out", str(self.pred_path(tag))]))
        cmds.append(("eval", ["eval", "--model", casgd, "--data", str(self.labeled),
                              "--lambda", repr(w.lam)]))
        return cmds

    def model_path(self, tag: str, algo: str) -> Path:
        return self.work / f"{tag}.{algo}.model"

    def pred_path(self, tag: str) -> Path:
        return self.work / f"{tag}.pred"


def run_cycle(run: Run, data: corpus.Corpus, ledger: Ledger, samples: dict[str, list[float]],
              model_shas: dict[str, str], references: dict[str, float],
              ) -> tuple[dict[str, Result], str]:
    """One closed-loop pass of every command as a subprocess, then its output
    checks; returns the results and the prediction file's sha256."""
    setup = []
    for _ in range(SETUP_SAMPLES):
        r, scaled = run.timed([sys.executable, "-c", "import sparselin"])
        ledger.check("import sparselin exits 0", r.ensure_ok)
        samples["setup_s"].append(scaled)
        setup.append(r.wall_s)
    samples["_raw_setup_s"] += setup
    samples["_cycle_setup_s"].append(statistics.median(setup))

    results = {}
    for label, args in run.commands("cli"):
        r, scaled = run.timed([sys.executable, "-m", "sparselin", *args])
        results[label] = r
        ledger.check(f"{label} exits 0", r.ensure_ok)
        samples[f"{label}_s"].append(scaled)
        samples[f"_raw_{label}_s"].append(r.wall_s)
    for algo in ALGOS:
        samples[f"train_{algo}_rss_mb"].append(results[f"train_{algo}"].rss_mb)
    samples["score_rss_mb"].append(max(results["predict"].rss_mb, results["eval"].rss_mb))

    w = run.workload
    for algo in ALGOS:
        path = run.model_path("cli", algo)
        sha = sha256_file(path) if path.exists() else "missing"
        first = model_shas.setdefault(algo, sha)
        ledger.check(f"{algo} model bytes repeat", lambda: _same(sha, first, "model sha256"))
        ledger.check(f"train_{algo} objective", lambda: checks.check_train(
            results[f"train_{algo}"].stdout, checks.read_model(path.read_text()), data,
            w.lam, w.loss, references[algo]))
    casgd = run.model_path("cli", "casgd")
    pred = run.pred_path("cli")
    pred_sha = sha256_file(pred) if pred.exists() else "missing"
    ledger.check("predict output", lambda: checks.check_predict(
        pred.read_text(), checks.read_model(casgd.read_text()), data))
    ledger.check("eval output", lambda: checks.check_eval(
        results["eval"].stdout, checks.read_model(casgd.read_text()), data, w.lam))
    return results, pred_sha


def traced_cycle(run: Run, pkg: dict, ledger: Ledger, untraced: dict[str, Result],
                 pred_sha: str, model_shas: dict[str, str], spans_out: list,
                 ) -> tuple[dict[str, float], float]:
    """The same commands in-process under the layer wrappers; returns the layer
    metrics and the traced command time."""
    tracer = Tracer(pkg)
    roots = []
    tracer.install()
    try:
        for label, args in run.commands("traced"):
            index, rc, stdout = tracer.command(pkg["cli"].main, args)
            roots.append((label, index))
            if label != "predict":
                expect = untraced[label].stdout
                ledger.check(f"traced {label} prints the same line",
                             lambda: _same(stdout, expect, "stdout"))
            ledger.check(f"traced {label} exits 0", lambda: _same(rc, 0, "exit code"))
    finally:
        tracer.uninstall()
    for algo in ALGOS:
        path = run.model_path("traced", algo)
        ledger.check(f"traced {algo} model bytes", lambda: _same(
            sha256_file(path), model_shas[algo], "model sha256"))
    ledger.check("traced predict output bytes", lambda: _same(
        sha256_file(run.pred_path("traced")), pred_sha, "prediction sha256"))
    spans_out.append({"commands": [
        {"label": label, "root": index} for label, index in roots], "spans": tracer.dump()})
    return layer_metrics(run, tracer, roots, ledger)


def _same(got, want, what: str) -> None:
    if got != want:
        raise checks.CheckError(f"{what} {got!r} != {want!r}")


def layer_metrics(run: Run, tracer: Tracer, roots: list[tuple[str, int]],
                  ledger: Ledger) -> tuple[dict[str, float], float]:
    spans = tracer.spans
    own = tracer.self_times()
    ends = [index for _, index in roots[1:]] + [len(spans)]
    ranges = {label: range(index, end) for (label, index), end in zip(roots, ends)}

    def totals(name: str, labels=None) -> tuple[float, int]:
        picked = [i for label, rng in ranges.items() if labels is None or label in labels
                  for i in rng if spans[i].name == name]
        return sum(spans[i].busy for i in picked), sum(spans[i].calls for i in picked)

    def per_call(name: str) -> float:
        busy, calls = totals(name)
        return busy / calls if calls else 0.0

    w = run.workload
    m = {}
    parse_busy, _ = totals("data_io.load_dataset")
    parsed_bytes = 4 * run.labeled.stat().st_size + run.features.stat().st_size
    m["data_io.parse_s"] = per_call("data_io.load_dataset")
    m["data_io.parse_mb_per_s"] = parsed_bytes / 1e6 / parse_busy if parse_busy else 0.0
    for algo in ALGOS:
        self_s = sum(own[i] for i in ranges[f"train_{algo}"]
                     if spans[i].name == f"solvers.{algo}_train")
        m[f"solvers.train_self_s.{algo}"] = self_s
        m[f"solvers.step_us.{algo}"] = self_s / w.steps * 1e6
    m["sparse_core.finalize_s"] = per_call("sparse_core.finalize_combine")
    m["sparse_core.mean_vector_s"] = per_call("sparse_core.mean_vector")
    m["data_io.write_model_s"] = per_call("data_io.save_model")
    m["data_io.read_model_s"] = per_call("data_io.load_model")
    m["data_io.model_bytes"] = run.model_path("traced", "casgd").stat().st_size
    busy, calls = totals("solvers.predict")
    m["solvers.predict_us_per_row"] = busy / calls * 1e6 if calls else 0.0
    m["losses.objective_s"] = per_call("losses.objective_value")
    _, row_calls = totals("solvers.predict", {"eval"})
    _, objective_calls = totals("losses.objective_value", {"eval"})
    m["cli.eval_passes_per_row"] = row_calls / w.spec.m + objective_calls
    m["losses.validate_s"] = per_call("losses.validate_labels")
    m["solvers.draw_s"] = per_call("solvers.draw_indices")
    root_self = {label: own[index] for label, index in roots}
    m["cli.self_s.train"] = statistics.fmean(root_self[f"train_{a}"] for a in ALGOS)
    m["cli.self_s.predict"] = root_self["predict"]
    m["cli.self_s.eval"] = root_self["eval"]
    total = sum(spans[index].busy for _, index in roots)
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = sum(t for s, t in zip(spans, own) if s.layer == layer) / total
    ledger.check("every span nests inside its parent", tracer.check_nesting)
    return m, total


def count_touches(run: Run, pkg: dict) -> tuple[object, dict[str, dict[str, int]]]:
    """The parsed dataset, and the TouchCounter totals of one train call per algorithm."""
    w = run.workload
    data = pkg["data_io"].load_dataset(str(run.labeled), dim_override=w.dim)
    cfg = pkg["solvers"].TrainConfig(steps=w.steps, lam=w.lam, seed=run.seed,
                                     loss=pkg["losses"].LossKind(w.loss))
    counts = {}
    for algo in ALGOS:
        counter = pkg["sparse_core"].TouchCounter()
        getattr(pkg["solvers"], f"{algo}_train")(data, cfg, counter)
        counts[algo] = {kind: getattr(counter, f"{kind}_touches")
                        for kind in ("sparse", "outside_dense", "loop_dense")}
    return data, counts


def touch_pass(run: Run, pkg: dict, ledger: Ledger, recorded: dict) -> dict[str, float]:
    """Touch counts checked against the contract and the recorded run, and the
    parsed dataset's footprint."""
    w = run.workload
    data, counts = count_touches(run, pkg)
    m = {"data_io.dataset_bytes_per_nnz": deep_size(data) / (w.spec.m * w.spec.k)}
    want_all = recorded.get("touches", {}).get(run.name, {})
    for algo, got in counts.items():
        for kind, count in got.items():
            m[f"sparse_core.{kind}_touches.{algo}"] = count
        ledger.check(f"{algo} loop_dense_touches == 0",
                     lambda: _same(got["loop_dense"], 0, "loop_dense_touches"))
        ledger.check(f"{algo} touch counts repeat the recorded ones",
                     lambda: _same(got, want_all.get(algo), "touch counts"))
    return m


def import_package(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import sparselin.cli
    import sparselin.data_io
    import sparselin.losses
    import sparselin.solvers
    import sparselin.sparse_core

    located = Path(sparselin.__file__).resolve()
    if (root / "src").resolve() not in located.parents:
        raise SystemExit(f"perfbench: imported sparselin from {located}, not from {root / 'src'}")
    return {"cli": sparselin.cli, "data_io": sparselin.data_io, "losses": sparselin.losses,
            "solvers": sparselin.solvers, "sparse_core": sparselin.sparse_core}


def median_report(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        line = (f"  {name:36s} {value:12.6g} {unit:6s} median of {len(values)}; "
                f"min {min(values):.6g}, max {max(values):.6g}")
        if f"_raw_{name}" in samples:
            line += f"; unscaled wall median {statistics.median(samples[f'_raw_{name}']):.6g}"
        print(line)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help=f"corpus and sampling seed (>= 0; taken modulo {len(SEEDS)})")
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced in-process run")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # run the cleanup
    root = Path.cwd()
    if not (root / "src" / "sparselin" / "__init__.py").is_file():
        print("perfbench: no src/sparselin here; run from the root of a sparselin checkout",
              file=sys.stderr)
        return 1
    recorded = json.loads((HERE / "recorded.json").read_text())
    pkg = import_package(root) if args.trace else None

    run = Run(root, args.workload, SEEDS[args.seed % len(SEEDS)], started)
    try:
        return measure(run, args, recorded, pkg)
    finally:
        run.close()
        shutil.rmtree(run.work, ignore_errors=True)


def measure(run: Run, args, recorded: dict, pkg: dict | None) -> int:
    w = run.workload
    ledger = Ledger()
    t0 = time.perf_counter()
    data = corpus.generate(w.spec, run.seed)
    gen_s = time.perf_counter() - t0
    run.labeled.write_bytes(data.labeled)
    run.features.write_bytes(data.features)
    shas = {"data": corpus.sha256(data.labeled), "features": corpus.sha256(data.features)}
    again = corpus.generate(w.spec, run.seed)
    ledger.check("corpus regenerates byte-identical", lambda: _same(
        {"data": corpus.sha256(again.labeled), "features": corpus.sha256(again.features)},
        shas, "corpus sha256"))
    del again
    probe = run.spawn([sys.executable, "-c", "import sparselin; print(sparselin.__file__)"])
    if probe.rc != 0 or (run.root / "src").resolve() not in Path(probe.stdout.strip()).resolve().parents:
        print(f"perfbench: sparselin does not import from {run.root / 'src'}: "
              f"{probe.stdout.strip()} {probe.stderr.strip()[-300:]}", file=sys.stderr)
        return 1
    entry = recorded["corpora"].get(shas["data"], {})
    references = entry.get("objective", {})
    ledger.check("recorded.json holds this corpus's reference objectives",
                 lambda: _same(sorted(references), sorted(ALGOS), "recorded algorithms"))

    print(f"perfbench workload={run.name} seed={args.seed} (corpus seed {run.seed}) "
          f"trace={args.trace} m={w.spec.m} n={w.spec.n} k={w.spec.k} loss={w.loss} "
          f"lambda={w.lam!r} T={w.steps}"
          f"{'' if w.dim is None else f' dim={w.dim}'}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}")
    for kind, path in (("data", run.labeled), ("features", run.features)):
        print(f"corpus {kind}: {path.stat().st_size} bytes sha256={shas[kind]}")
    print(f"corpus generated in {gen_s:.3f} s (not a metric)")
    print("load: closed loop, one client, commands back to back; no layer queues or retries, "
          "so no waiting time is reported")

    samples: dict[str, list[float]] = defaultdict(list)
    model_shas: dict[str, str] = {}
    layer_samples: dict[str, list[float]] = {}
    overheads: list[float] = []
    spans_out: list = []
    measure_start = time.perf_counter()
    deadline = measure_start + args.seconds
    cycles = 0
    while True:
        begin = time.perf_counter()
        results, pred_sha = run_cycle(run, data, ledger, samples, model_shas, references)
        if pkg is not None:
            m, traced_s = traced_cycle(run, pkg, ledger, results, pred_sha, model_shas, spans_out)
            for name, value in m.items():
                layer_samples.setdefault(name, []).append(value)
            untraced_s = sum(results[label].wall_s for label, _ in run.commands("cli"))
            untraced_s -= len(run.commands("cli")) * samples["_cycle_setup_s"][-1]
            overheads.append(traced_s / untraced_s - 1.0)
        cycles += 1
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            break
    print(f"cycles: {cycles} in {time.perf_counter() - measure_start:.1f} s")
    for algo in ALGOS:
        was = entry.get("model_sha256", {}).get(algo)
        moved = "not recorded" if was is None else ("same" if was == model_shas[algo] else "differ")
        print(f"model {algo}: sha256={model_shas[algo]} (bytes vs recorded.json: {moved})")
    for label in (f"train_{a}" for a in ALGOS):
        print(f"{label}: {results[label].stdout.strip()}")
    print(f"eval: {results['eval'].stdout.strip()}")

    if pkg is None:
        samples["ok_frac"] = [(ledger.attempted - ledger.failed) / ledger.attempted]
        print("end-to-end metrics:")
        metrics = median_report(samples, metric_units("end_to_end"))
    else:
        for name, value in touch_pass(run, pkg, ledger, recorded).items():
            layer_samples[name] = [value]
        layer_samples["trace.overhead_frac"] = overheads
        spans_dir = run.root / ".perfbench_work" / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"{run.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(spans_out))
        print(f"spans: {spans_file.relative_to(run.root)}")
        print("per-layer metrics:")
        metrics = median_report(layer_samples, metric_units("per_layer"))
    print(f"failed_frac {ledger.failed / ledger.attempted!r} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
