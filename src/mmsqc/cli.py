"""Command-line pipeline driver.

Subcommands: model, simulate, dataset, train, rollout, analyze. Parameter
precedence is flags > config file (--config, JSON keyed by subcommand) >
defaults. All randomness derives from the per-command --seed through named
substreams; --workers (or MMSQC_WORKERS) never changes results. Output files
are written atomically. Exit codes: 0 success, 2 usage, 1 runtime error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from mmsqc import analysis, dataset as ds, models, sqc, surrogate
from mmsqc.arrayio import write_atomic


class UsageError(Exception):
    pass


def _resolve(args: argparse.Namespace, config: dict, command: str,
             key: str, default, cast=None):
    """flags > config[command][key] > config[key] > default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        section = config.get(command, {})
        value = section.get(key, config.get(key, None)) if isinstance(section, dict) else None
    if value is None:
        value = default
    if value is not None and cast is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise UsageError(f"invalid value for --{key}: {value!r}") from None
    return value


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _positive(value, name: str):
    if value is not None and value <= 0:
        raise UsageError(f"--{name} must be positive, got {value}")
    return value


def _init_state_index(init_state: int, model: models.SiteExcitonModel) -> int:
    if not 1 <= init_state <= model.n_states:
        raise UsageError(
            f"--init-state {init_state} out of range 1..{model.n_states} "
            f"for model {model.label}"
        )
    return init_state - 1


def _run_config(command: str, **params) -> dict:
    return {"command": command, **params}


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(args, config) -> int:
    label = _require(_resolve(args, config, "model", "id", None, str), "id")
    model = models.resolve_model(label)
    out = _resolve(args, config, "model", "out", None, str)
    if out:
        models.save_model(model, out)
        print(f"wrote {out}")
    print(f"model {model.label}: {model.n_states} states, {model.n_modes} modes, "
          f"state-vector dimension {model.dim}")
    return 0


def cmd_simulate(args, config) -> int:
    get = lambda key, default, cast: _resolve(args, config, "simulate", key, default, cast)
    model = models.resolve_model(_require(get("model", None, str), "model"))
    n_traj = _positive(_require(get("ntraj", None, int), "ntraj"), "ntraj")
    t_end = _positive(_require(get("t-end", None, float), "t-end"), "t-end")
    record_dt = _positive(get("record-dt", 1.0, float), "record-dt")
    dt = _positive(get("dt", 0.01, float), "dt")
    seed = get("seed", 0, int)
    workers = _positive(get("workers", os.environ.get("MMSQC_WORKERS", 1), int), "workers")
    init_state = _init_state_index(get("init-state", 1, int), model)
    out = _require(get("out", None, str), "out")

    icfg = sqc.IntegratorConfig(dt_internal=dt)
    t0 = time.perf_counter()
    ensemble = sqc.run_ensemble(model, n_traj, init_state, seed, icfg,
                                t_end, record_dt, workers=workers)
    wall = time.perf_counter() - t0
    energies = sqc.ensemble_energies(model, ensemble)
    drift = float(np.max(np.abs(energies - energies[:, :1])))
    run_config = _run_config("simulate", model=model.label, ntraj=n_traj,
                             t_end=t_end, record_dt=record_dt, dt=dt, seed=seed,
                             init_state=init_state + 1)
    ensemble.save(out, extra_header={"run_config": run_config})
    print(f"simulated {n_traj} trajectories of model {model.label} to {t_end:g} fs")
    print(f"max energy drift {drift:.3e} eV, wall time {wall:.1f} s -> {out}")
    return 0


def cmd_dataset(args, config) -> int:
    get = lambda key, default, cast: _resolve(args, config, "dataset", key, default, cast)
    source = _require(get("ensemble", None, str), "ensemble")
    seq_len = _positive(_require(get("seq-len", None, int), "seq-len"), "seq-len")
    seed = get("seed", 0, int)
    out = _require(get("out", None, str), "out")

    ensemble = sqc.TrajectoryEnsemble.load(source)
    data = ds.build_dataset(ensemble, seq_len, seed)
    run_config = _run_config("dataset", ensemble=os.path.basename(source),
                             seq_len=seq_len, seed=seed)
    data.save(out, extra_header={"run_config": run_config})
    print(f"{data.n_train} training / {data.n_validation} validation sequences "
          f"of length {seq_len} -> {out}")
    return 0


def cmd_train(args, config) -> int:
    get = lambda key, default, cast: _resolve(args, config, "train", key, default, cast)
    source = _require(get("dataset", None, str), "dataset")
    hidden = _positive(get("hidden", 2000, int), "hidden")
    lr = get("lr", 1e-5, float)
    batch = _positive(get("batch", 50, int), "batch")
    epochs = _positive(get("epochs", 2000, int), "epochs")
    seed = get("seed", 0, int)
    out = _require(get("out", None, str), "out")
    loss_csv = get("loss-csv", None, str)
    if lr < 0:
        raise UsageError(f"--lr must be non-negative, got {lr}")

    data = ds.SequenceDataset.load(source)
    cfg = surrogate.TrainConfig(seq_len=data.seq_len, hidden=hidden,
                                learning_rate=lr, batch_size=batch,
                                epochs=epochs, seed=seed)
    every = max(1, epochs // 20)
    progress = (lambda e, tr, va: print(f"epoch {e + 1}/{epochs}  train {tr:.3e}  val {va:.3e}")
                if (e + 1) % every == 0 else None)
    params, report = surrogate.train(data, cfg, progress=progress)
    run_config = _run_config("train", dataset=os.path.basename(source), hidden=hidden,
                             lr=lr, batch=batch, epochs=epochs, seed=seed)
    surrogate.save_checkpoint(out, params, cfg, report,
                              extra_header={"run_config": run_config,
                                            "source_hash": data.source_hash})
    if loss_csv:
        lines = ["epoch,train_loss,val_loss"]
        for e in range(epochs):
            lines.append(f"{e},{float(report.train_loss[e])!r},{float(report.val_loss[e])!r}")
        write_atomic(loss_csv, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"best epoch {report.best_epoch} (val loss {report.val_loss[report.best_epoch]:.3e}), "
          f"wall time {report.wall_time_s:.0f} s -> {out}")
    return 0


def cmd_rollout(args, config) -> int:
    get = lambda key, default, cast: _resolve(args, config, "rollout", key, default, cast)
    model = models.resolve_model(_require(get("model", None, str), "model"))
    ckpt_path = _require(get("checkpoint", None, str), "checkpoint")
    n_traj = _positive(_require(get("ntraj", None, int), "ntraj"), "ntraj")
    steps = _positive(_require(get("steps", None, int), "steps"), "steps")
    record_dt = _positive(get("record-dt", 1.0, float), "record-dt")
    seed = get("seed", 0, int)
    workers = _positive(get("workers", os.environ.get("MMSQC_WORKERS", 1), int), "workers")
    init_state = _init_state_index(get("init-state", 1, int), model)
    out = _require(get("out", None, str), "out")

    params, header = surrogate.load_checkpoint(ckpt_path)
    cfg = analysis.RolloutConfig(n_traj=n_traj, total_steps=steps,
                                 seq_len=int(header["seq_len"]), seed=seed,
                                 init_state=init_state, record_dt=record_dt,
                                 workers=workers)
    t0 = time.perf_counter()
    ensemble = analysis.rollout_ensemble(model, params, cfg)
    wall = time.perf_counter() - t0
    run_config = _run_config("rollout", model=model.label,
                             checkpoint=os.path.basename(ckpt_path), ntraj=n_traj,
                             steps=steps, record_dt=record_dt, seed=seed,
                             init_state=init_state + 1)
    ensemble.save(out, extra_header={"run_config": run_config, "predicted": True})
    print(f"rolled out {n_traj} trajectories x {steps} steps "
          f"(chunk length {cfg.seq_len}), wall time {wall:.1f} s -> {out}")
    return 0


def cmd_analyze(args, config) -> int:
    what = args.what
    get = lambda key, default, cast: _resolve(args, config, "analyze", key, default, cast)
    out = _require(get("out", None, str), "out")

    if what == "populations":
        ensemble = sqc.TrajectoryEnsemble.load(_require(get("ensemble", None, str), "ensemble"))
        analysis.write_populations_csv(out, sqc.populations(ensemble))
    elif what == "compare":
        pred = sqc.TrajectoryEnsemble.load(_require(get("pred", None, str), "pred"))
        ref = sqc.TrajectoryEnsemble.load(_require(get("ref", None, str), "ref"))
        dev = analysis.compare_populations(pred, ref)
        analysis.write_compare_csv(out, dev)
        print(f"mean abs deviation per state: "
              f"{', '.join(f'{v:.4f}' for v in dev.mean_abs)}")
    elif what == "mae":
        pred = sqc.TrajectoryEnsemble.load(_require(get("pred", None, str), "pred"))
        ref = sqc.TrajectoryEnsemble.load(_require(get("ref", None, str), "ref"))
        slices = _require(get("slices", "20,40,60,80,100", str), "slices")
        try:
            times = [float(s) for s in slices.split(",") if s]
        except ValueError:
            raise UsageError(f"bad --slices list: {slices!r}") from None
        analysis.write_mae_csv(out, analysis.dof_mae(pred, ref, times))
    elif what == "hist":
        ensemble = sqc.TrajectoryEnsemble.load(_require(get("ensemble", None, str), "ensemble"))
        var = _require(get("var", None, int), "var")
        bins = _positive(get("bins", 50, int), "bins")
        lo = get("min", -3.0, float)
        hi = get("max", 3.0, float)
        hist = analysis.coordinate_histogram(ensemble, var, bins, (lo, hi))
        analysis.write_histogram_csv(out, hist)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown analysis {what!r}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsqc",
        description="Simulate MM-SQC trajectories of site-exciton models, train an "
                    "LSTM trajectory surrogate, and compare the two.",
    )
    parser.add_argument("--config", help="JSON file with per-subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="inspect or export a model definition")
    p.add_argument("--id", help="built-in label I..VI or config path")
    p.add_argument("--out", help="write the model config JSON here")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("simulate", help="run an MM-SQC trajectory ensemble")
    p.add_argument("--model", help="built-in label I..VI or config path")
    p.add_argument("--ntraj", type=int)
    p.add_argument("--t-end", type=float, help="propagation time in fs")
    p.add_argument("--record-dt", type=float, help="recording interval in fs (default 1)")
    p.add_argument("--dt", type=float, help="integrator step in fs (default 0.01)")
    p.add_argument("--init-state", type=int, help="initially excited state, 1-based (default 1)")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", help="build a training dataset from an ensemble")
    p.add_argument("--ensemble", help="trajectory ensemble file")
    p.add_argument("--seq-len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the one-to-many LSTM")
    p.add_argument("--dataset")
    p.add_argument("--hidden", type=int, help="LSTM width (default 2000)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-5)")
    p.add_argument("--batch", type=int, help="batch size (default 50)")
    p.add_argument("--epochs", type=int, help="training epochs (default 2000)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--loss-csv", help="optional per-epoch loss history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rollout", help="replay trajectories with a trained network")
    p.add_argument("--model")
    p.add_argument("--checkpoint")
    p.add_argument("--ntraj", type=int)
    p.add_argument("--steps", type=int, help="predicted steps on the record grid")
    p.add_argument("--record-dt", type=float)
    p.add_argument("--init-state", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("analyze", help="write analysis CSVs")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("populations", help="window-binned populations of one ensemble")
    q.add_argument("--ensemble")
    q.add_argument("--out")
    q = what.add_parser("compare", help="population deviation between two ensembles")
    q.add_argument("--pred")
    q.add_argument("--ref")
    q.add_argument("--out")
    q = what.add_parser("mae", help="per-DOF MAE at selected times")
    q.add_argument("--pred")
    q.add_argument("--ref")
    q.add_argument("--slices", help="comma-separated times in fs (default 20,40,60,80,100)")
    q.add_argument("--out")
    q = what.add_parser("hist", help="time-resolved histogram of one variable")
    q.add_argument("--ensemble")
    q.add_argument("--var", type=int, help="flat variable index in x_e|p_e|Q|P order")
    q.add_argument("--bins", type=int)
    q.add_argument("--min", type=float)
    q.add_argument("--max", type=float)
    q.add_argument("--out")
    p.set_defaults(func=cmd_analyze)
    return parser


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
