"""Benchmark of the mmsqc pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py as a closed loop from this process: each
`mmsqc` command starts when the previous one returns, and the command chain
repeats until S seconds have passed (at least three times untraced). Every
output is checked after each pass. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it records the machine, the library versions, the thread settings
and every pass.

With --trace 1, untraced and traced passes alternate. Spans around the
calls into each module's public functions give per-layer times and counts;
the traced against the untraced pipeline time gives the tracing overhead.
Forward, BPTT and Adam are timed by replaying the first training epoch
through the public functions, which must reproduce the trained loss bit for
bit; simulate is rerun at another worker count and must give the same bytes.
The spans are written to .bench_work/trace-<workload>-seed<seed>.json.
A layer that does not run in a workload reports 0.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # before numpy loads, here and in every child process
    os.environ[_var] = "1"

import argparse
import contextlib
import filecmp
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
if not os.path.isfile(os.path.join(SRC, "mmsqc", "__init__.py")):
    sys.exit(f"benchmark: no mmsqc sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import mmsqc  # noqa: E402
from mmsqc import analysis, cli, dataset as ds, streams, surrogate as sg  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(mmsqc.__file__).startswith(SRC + os.sep):
    sys.exit(f"benchmark: imported mmsqc from {mmsqc.__file__}, not from {SRC}")

MIN_PASSES = 3
SETUP_REPEATS = 7
STAGES = ("simulate", "dataset", "train", "rollout", "analyze")

END_TO_END = {
    "setup_s": "s",                       # fresh interpreter: import mmsqc, build the model
    "pipeline_s": "s",                    # the workload's command chain
    "peak_rss_mb": "MB",
    "ok_frac": "share",                   # 1 - failed / attempted
}

PER_LAYER = {
    "sqc.ns_per_traj_substep": "ns",
    "sqc.substeps": "count",
    "sqc.run_ensemble.s": "s",
    "sqc.parallel_eff": "ratio",
    "sqc.sample_initial.us_per_traj": "us",
    "sqc.ensemble_energies.s": "s",
    "sqc.populations.s": "s",
    "sqc.populations.assigned_frac": "share",
    "sqc.content_hash.s": "s",
    "sqc.energy_drift_eV": "eV",
    "sqc.self_s": "s",
    "dataset.build_dataset.s": "s",
    "dataset.sequences": "count",
    "dataset.MB": "MB",
    "dataset.self_s": "s",
    "surrogate.one_to_many_forward.ms_per_batch": "ms",
    "surrogate.backward.ms_per_batch": "ms",
    "surrogate.adam_step.ms_per_batch": "ms",
    "surrogate.evaluate_loss.s": "s",
    "surrogate.gflop_per_epoch": "GFLOP",
    "surrogate.gflops": "GFLOP/s",
    "surrogate.adam_step.GBps": "GB/s",
    "surrogate.val_loss_best": "mse",
    "surrogate.self_s": "s",
    "analysis.rollout.us_per_traj_step": "us",
    "analysis.rollout_trajectory.ms_per_chunk": "ms",
    "analysis.rollout.cell_steps": "count",
    "analysis.rollout.useful_frac": "share",
    "analysis.rollout.amplitude_ratio": "ratio",
    "analysis.compare_populations.s": "s",
    "analysis.coordinate_histogram.s": "s",
    "analysis.dof_mae.s": "s",
    "analysis.pop_dev_max": "share",
    "analysis.self_s": "s",
    "arrayio.write_array_file.MBps": "MB/s",
    "arrayio.read_array_file.MBps": "MB/s",
    "arrayio.bytes_written": "bytes",
    "arrayio.bytes_read": "bytes",
    "arrayio.self_s": "s",
    "cli.simulate.s": "s",
    "cli.dataset.s": "s",
    "cli.train.s": "s",
    "cli.rollout.s": "s",
    "cli.analyze.s": "s",
    "cli.simulate.traj_fs_per_s": "traj.fs/s",
    "cli.train.seq_per_s": "seq/s",
    "cli.rollout.traj_steps_per_s": "steps/s",
    "cli.self_s": "s",
    "machine.copy_GBps": "GB/s",
    "machine.copy_MB": "MB",
    "machine.llc_MB": "MB",
    "machine.dgemm_gflops": "GFLOP/s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# counts taken at span boundaries


def _rollout_counts(args, result):
    cfg = args["cfg"]
    chunk = cfg.seq_len - 1
    return {"traj_steps": cfg.n_traj * cfg.total_steps,
            "cell_steps": cfg.n_traj * math.ceil(cfg.total_steps / chunk) * chunk}


HOOKS = {
    "sqc.run_ensemble": lambda a, r: {
        "substeps": a["n_traj"] * round(a["t_end"] / a["icfg"].dt_internal)},
    "sqc.populations": lambda a, r: {
        "windows_assigned": round(float(np.sum(1.0 - r.unassigned)) * r.n_traj),
        "windows_tried": r.n_traj * len(r.times)},
    "dataset.build_dataset": lambda a, r: {
        "sequences": r.n_train + r.n_validation,
        "dataset_bytes": r.train.nbytes + r.validation.nbytes},
    "arrayio.write_array_file": lambda a, r: {"bytes_written": os.path.getsize(a["path"])},
    "arrayio.read_array_file": lambda a, r: {"bytes_read": os.path.getsize(a["path"])},
    "analysis.rollout_ensemble": _rollout_counts,
}


# ---------------------------------------------------------------------------
# passes


def _passed(pipe, step, rc) -> bool:
    """Exit code and output check of one command; failures go to stderr."""
    command = " ".join(step.argv[:2] if step.stage == "analyze" else step.argv[:1])
    if rc != 0:
        print(f"benchmark: `mmsqc {command}` exited {rc}", file=sys.stderr)
        return False
    try:
        step.check(pipe)
    except workloads.CheckError as exc:
        print(f"benchmark: `mmsqc {command}` output check failed: {exc}", file=sys.stderr)
        return False
    except Exception:
        print(f"benchmark: `mmsqc {command}` output check raised:", file=sys.stderr)
        traceback.print_exc()
        return False
    return True


def run_pass(pipe, tracer=None) -> dict:
    """Run the command chain back to back, then check every output."""
    stage_s = dict.fromkeys(STAGES, 0.0)
    codes = []
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for step in pipe.steps:
                t0 = perf_counter()
                codes.append(cli.main(list(step.argv)))
                stage_s[step.stage] += perf_counter() - t0
        pipeline_s = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    failed = sum(not _passed(pipe, step, rc) for step, rc in zip(pipe.steps, codes))
    return {"pipeline_s": pipeline_s, "stage_s": stage_s, "traced": tracer is not None,
            "attempted": len(codes), "failed": failed}


def measure_setup(model_label: str) -> float:
    """Median wall time of a fresh interpreter importing mmsqc and building the model."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mmsqc; mmsqc.build_model(sys.argv[2])"
    argv = [sys.executable, "-c", code, SRC, model_label]
    subprocess.run(argv, check=True)   # warm-up; writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# traced-run extras


def check_workers(pipe, simulate_s: float):
    """Rerun simulate at the other worker count: the bytes must match
    (criterion 9). Returns (same, t(workers=1) / (2 t(workers=2)))."""
    other = 1 if pipe.w.workers > 1 else 2
    alt = pipe.path["alt.traj"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        rc = cli.main(list(pipe.simulate_argv(other, alt)))
        elapsed = perf_counter() - t0
    same = rc == 0 and filecmp.cmp(pipe.path["sim.traj"], alt, shallow=False)
    t1, t2 = (elapsed, simulate_s) if other == 1 else (simulate_s, elapsed)
    return same, t1 / (2.0 * t2)


def replay_training_epoch(pipe) -> tuple[bool, dict]:
    """Epoch 0 of `train`, batch by batch, through the public forward,
    backward and Adam functions; its mean loss must equal the checkpoint's
    first train loss exactly."""
    w = pipe.w
    data = ds.SequenceDataset.load(pipe.path["train.seq"])
    cfg = sg.TrainConfig(seq_len=w.seq_len, hidden=w.hidden,
                         learning_rate=workloads.LR, batch_size=workloads.BATCH,
                         epochs=workloads.EPOCHS, seed=pipe.seed + 2)
    params = sg.init_params(data.dim, cfg.hidden, streams.substream(cfg.seed, "init"))
    adam = sg.AdamState.zeros(data.dim, cfg.hidden)
    order = streams.substream(cfg.seed, "batch", 0).permutation(data.n_train)
    fwd, bwd, opt = [], [], []
    epoch_sq = 0.0
    for start in range(0, data.n_train, cfg.batch_size):
        seqs = data.train[order[start:start + cfg.batch_size]]
        targets = seqs[:, 1:, :]
        t0 = perf_counter()
        ys, caches = sg.one_to_many_forward(seqs[:, 0, :], cfg.seq_len, params)
        t1 = perf_counter()
        loss = sg.sequence_loss(ys, targets)
        dY = (2.0 / ys.size) * (ys - targets)
        t2 = perf_counter()
        grads = sg.backward(caches, dY, params)
        t3 = perf_counter()
        params, adam = sg.adam_step(params, grads, adam, cfg.learning_rate,
                                    cfg.beta1, cfg.beta2, cfg.eps)
        t4 = perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
        opt.append(t4 - t3)
        epoch_sq += loss * seqs.shape[0]
    same = epoch_sq / data.n_train == pipe.train_header["train_loss"][0]

    D, H, steps = data.dim, cfg.hidden, cfg.seq_len - 1
    # matmul flops per sequence: forward 2*4H*(D+H) + 2*D*H per step; BPTT twice that
    fwd_flop = steps * (8 * H * (D + H) + 2 * D * H)
    n_params = 4 * H * (D + H + 1) + D * H + D
    # Adam reads params, grads and both moments and writes params and moments
    adam_bytes = 7 * 8 * n_params
    return same, {
        "surrogate.one_to_many_forward.ms_per_batch": statistics.median(fwd) * 1e3,
        "surrogate.backward.ms_per_batch": statistics.median(bwd) * 1e3,
        "surrogate.adam_step.ms_per_batch": statistics.median(opt) * 1e3,
        "surrogate.gflop_per_epoch": (3 * data.n_train + data.n_validation) * fwd_flop / 1e9,
        "surrogate.gflops": 3 * data.n_train * fwd_flop / (sum(fwd) + sum(bwd)) / 1e9,
        "surrogate.adam_step.GBps": adam_bytes * len(opt) / sum(opt) / 1e9,
    }


def replay_rollouts(pipe, count: int = 4) -> tuple[bool, float]:
    """Replay the first predicted trajectories one by one through
    `rollout_trajectory`; they must equal the ensemble's rows exactly.
    Returns (same, ms per chunk)."""
    params, _ = sg.load_checkpoint(pipe.path["model.ckpt"])
    count = min(count, pipe.rollout_traj)
    same, elapsed = True, 0.0
    for i in range(count):
        t0 = perf_counter()
        traj = analysis.rollout_trajectory(pipe.pred_data[i, 0], params, pipe.rollout_steps,
                                           pipe.w.seq_len, pipe.model.n_states,
                                           workloads.RECORD_DT)
        elapsed += perf_counter() - t0
        same = same and np.array_equal(traj.data, pipe.pred_data[i])
    chunks = math.ceil(pipe.rollout_steps / (pipe.w.seq_len - 1))
    return same, elapsed / (count * chunks) * 1e3


def _llc_bytes() -> int:
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True).stdout
        except FileNotFoundError:
            break
        if out.strip().isdigit() and int(out) > 0:
            return int(out)
    return 32 << 20


def machine_probes() -> dict:
    """Single-thread copy bandwidth over an array at least 4x the last-level
    cache (capped at 2 GiB), and a 1024^3 dgemm rate."""
    llc = _llc_bytes()
    buf = np.ones(min(4 * llc, 2 << 30) // 8)
    half = buf.size // 2
    times = []
    for _ in range(3):
        t0 = perf_counter()
        np.copyto(buf[half:2 * half], buf[:half])
        times.append(perf_counter() - t0)
    copy_mb = buf.nbytes / 1e6
    del buf
    n = 1024
    a = np.random.default_rng(0).standard_normal((n, n))
    gemm = []
    for _ in range(3):
        t0 = perf_counter()
        a @ a
        gemm.append(perf_counter() - t0)
    return {"machine.copy_GBps": 2 * half * 8 / statistics.median(times) / 1e9,
            "machine.copy_MB": copy_mb, "machine.llc_MB": llc / 1e6,
            "machine.dgemm_gflops": 2 * n**3 / statistics.median(gemm) / 1e9}


# ---------------------------------------------------------------------------
# metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_pass_metrics(s: dict) -> dict:
    incl, calls, c = s["incl"], s["calls"], s["counters"]
    metrics = {
        "sqc.run_ensemble.s": incl["sqc.run_ensemble"],
        "sqc.substeps": c["substeps"],
        # run_ensemble minus the traced sampling calls: integration and fan-out
        "sqc.ns_per_traj_substep": _ratio(s["self"]["sqc.run_ensemble"], c["substeps"]) * 1e9,
        "sqc.sample_initial.us_per_traj": _ratio(incl["sqc.sample_initial"],
                                                 calls["sqc.sample_initial"]) * 1e6,
        "sqc.ensemble_energies.s": incl["sqc.ensemble_energies"],
        "sqc.populations.s": incl["sqc.populations"],
        "sqc.populations.assigned_frac": _ratio(c["windows_assigned"], c["windows_tried"]),
        "sqc.content_hash.s": incl["sqc.TrajectoryEnsemble.content_hash"],
        "dataset.build_dataset.s": incl["dataset.build_dataset"],
        "dataset.sequences": c["sequences"],
        "dataset.MB": c["dataset_bytes"] / 1e6,
        "surrogate.evaluate_loss.s": incl["surrogate.evaluate_loss"],
        "analysis.rollout.us_per_traj_step": _ratio(incl["analysis.rollout_ensemble"],
                                                    c["traj_steps"]) * 1e6,
        "analysis.rollout.cell_steps": c["cell_steps"],
        "analysis.rollout.useful_frac": _ratio(c["traj_steps"], c["cell_steps"]),
        "analysis.compare_populations.s": incl["analysis.compare_populations"],
        "analysis.coordinate_histogram.s": incl["analysis.coordinate_histogram"],
        "analysis.dof_mae.s": incl["analysis.dof_mae"],
        "arrayio.write_array_file.MBps": _ratio(c["bytes_written"],
                                                incl["arrayio.write_array_file"]) / 1e6,
        "arrayio.read_array_file.MBps": _ratio(c["bytes_read"],
                                               incl["arrayio.read_array_file"]) / 1e6,
        "arrayio.bytes_written": c["bytes_written"],
        "arrayio.bytes_read": c["bytes_read"],
        "trace.spans": s["spans"],
    }
    metrics.update({f"{layer}.self_s": t for layer, t in s["layer_self"].items()})
    return metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_benchmark(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and the pass records."""
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{w.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        pipe = workloads.Pipeline(w, seed, work)
        if trace:
            values, passes = _traced_run(pipe, seconds)
            units = PER_LAYER
        else:
            setup_s = measure_setup(w.model)
            passes = []
            t_start = perf_counter()
            while len(passes) < MIN_PASSES or perf_counter() - t_start < seconds:
                passes.append(run_pass(pipe))
            values = {
                "setup_s": setup_s,
                "pipeline_s": statistics.median([p["pipeline_s"] for p in passes]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not trace:
        values["ok_frac"] = 1.0 - failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: _metric(values[name], unit) for name, unit in units.items()}}
    return {"result": result, "passes": passes}


def _traced_run(pipe, seconds: float):
    """Alternate untraced and traced passes, then the replays and probes.
    The replays and the worker check are recorded as one extra pass."""
    tracer = spans.Tracer(HOOKS)
    passes, layer = [], []
    t_start = perf_counter()
    while not layer or perf_counter() - t_start < seconds:
        passes.append(run_pass(pipe))
        tracer.trace_id = len(layer)
        passes.append(run_pass(pipe, tracer))
        layer.append(traced_pass_metrics(tracer.summary(tracer.trace_id)))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median([m[name] for m in layer]) for name in layer[0]}

    w = pipe.w
    stage = {s: statistics.median([p["stage_s"][s] for p in untraced]) for s in STAGES}
    values.update({f"cli.{s}.s": t for s, t in stage.items()})
    values["cli.simulate.traj_fs_per_s"] = w.sim_traj * w.sim_fs / stage["simulate"]
    values["trace.overhead_frac"] = (statistics.median([p["pipeline_s"] for p in traced])
                                     / statistics.median([p["pipeline_s"] for p in untraced]) - 1.0)
    extra = {"attempted": 0, "failed": 0, "traced": False, "extra": True}

    def verify(ok: bool, message: str) -> None:
        extra["attempted"] += 1
        if not ok:
            extra["failed"] += 1
            print(f"benchmark: {message}", file=sys.stderr)

    try:
        same, values["sqc.parallel_eff"] = check_workers(pipe, stage["simulate"])
        verify(same, "simulate output differs between worker counts")
        if w.seq_len:
            same, replay = replay_training_epoch(pipe)
            verify(same, "replayed epoch-0 loss differs from the trained one")
            values.update(replay)
            same, values["analysis.rollout_trajectory.ms_per_chunk"] = replay_rollouts(pipe)
            verify(same, "rollout_trajectory differs from the ensemble rows")
            values["cli.train.seq_per_s"] = pipe.n_train * workloads.EPOCHS / stage["train"]
            values["cli.rollout.traj_steps_per_s"] = (pipe.rollout_traj * pipe.rollout_steps
                                                      / stage["rollout"])
    except Exception:
        # outputs that a failed pass left behind can make a replay raise
        traceback.print_exc()
        verify(False, "worker check or replay raised")
    values.update(machine_probes())
    quality = {"sqc.energy_drift_eV": "energy_drift_eV",
               "surrogate.val_loss_best": "val_loss_best",
               "analysis.pop_dev_max": "pop_dev_max",
               "analysis.rollout.amplitude_ratio": "amplitude_ratio"}
    values.update({name: pipe.quality.get(key, 0.0) for name, key in quality.items()})
    for name in PER_LAYER:
        values.setdefault(name, 0.0)

    with open(os.path.join(WORK, f"trace-{w.name}-seed{pipe.seed}.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": pipe.seed,
                   "fields": ["id", "parent", "trace", "name", "start_s", "end_s"],
                   "spans": tracer.spans}, fh)
    return values, passes + [extra]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    run = run_benchmark(w, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": w.name, "why": w.why, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(), "passes": run["passes"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
