"""Command-line pipeline driver.

Subcommands: model, simulate, dataset, train, rollout, analyze. Parameter
precedence is flags > config file (--config, JSON keyed by subcommand) >
defaults. All randomness derives from the per-command --seed through named
substreams; --workers (or MMSQC_WORKERS) never changes results. Output files
are written atomically. Exit codes: 0 success, 2 usage, 1 runtime error.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from mmsqc import analysis, dataset as ds, models, sqc, surrogate


class UsageError(Exception):
    pass


class _OutOfRange(ValueError):
    """A `_resolve` cast refuses the value; the message follows its source."""


def _learning_rate(text) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:   # also refuses nan
        raise _OutOfRange(f"must be finite and non-negative, got {value}")
    return value


def _positive_float(text) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:   # also refuses nan
        raise _OutOfRange(f"must be finite and positive, got {value}")
    return value


def _finite_float(text) -> float:
    value = float(text)
    if not -np.inf < value < np.inf:   # also refuses nan
        raise _OutOfRange(f"must be finite, got {value}")
    return value


def _time_list(text) -> list[float]:
    times = [_finite_float(item) for item in text.split(",") if item]
    if not times:
        raise _OutOfRange("must name at least one time")
    return times


def _resolve(args: argparse.Namespace, config: dict, command: str, key: str,
             default, cast, positive: bool = False, env: str | None = None):
    """flags > config[command][key] > config[key] > environment variable `env`
    > default. A config value is cast from its JSON text, as if given as the
    flag, so `2.7` or `true` is no integer. Errors name the value's source.
    `positive` is for integers; floats use a cast such as `_positive_float`."""
    value, source = getattr(args, key.replace("-", "_"), None), f"--{key}"
    section = config.get(command, {})
    if value is None and isinstance(section, dict):
        for name, scope in ((f"{command}.{key}", section), (key, config)):
            if scope.get(key) is not None:
                value, source = scope[key], f"config key {name}"
                value = value if isinstance(value, str) else json.dumps(value)
                break
    if value is None and env is not None and env in os.environ:
        value, source = os.environ[env], env
    if value is None:
        return default
    try:
        value = cast(value)
    except _OutOfRange as exc:
        raise UsageError(f"{source} {exc}") from None
    except ValueError:
        raise UsageError(f"invalid value for {source}: {value!r}") from None
    if positive and value <= 0:
        raise UsageError(f"{source} must be positive, got {value}")
    return value


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _init_state_index(init_state: int, model: models.SiteExcitonModel) -> int:
    if not 1 <= init_state <= model.n_states:
        raise UsageError(
            f"--init-state {init_state} out of range 1..{model.n_states} "
            f"for model {model.label}"
        )
    return init_state - 1


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
    get = functools.partial(_resolve, args, config, "simulate")
    model = models.resolve_model(_require(get("model", None, str), "model"))
    n_traj = _require(get("ntraj", None, int, positive=True), "ntraj")
    t_end = _require(get("t-end", None, _positive_float), "t-end")
    record_dt = get("record-dt", 1.0, _positive_float)
    dt = get("dt", sqc.IntegratorConfig.dt_internal, _positive_float)
    seed = get("seed", 0, int)
    workers = get("workers", 1, int, positive=True, env="MMSQC_WORKERS")
    init_state = _init_state_index(get("init-state", 1, int), model)
    out = _require(get("out", None, str), "out")

    icfg = sqc.IntegratorConfig(dt_internal=dt)
    t0 = time.perf_counter()
    ensemble = sqc.run_ensemble(model, n_traj, init_state, seed, icfg,
                                t_end, record_dt, workers=workers)
    wall = time.perf_counter() - t0
    energies = sqc.ensemble_energies(model, ensemble)
    drift = float(np.max(np.abs(energies - energies[:, :1])))
    run_config = {"command": "simulate", "model": model.label, "ntraj": n_traj,
                  "t_end": t_end, "record_dt": record_dt, "dt": dt, "seed": seed,
                  "init_state": init_state + 1}
    ensemble.save(out, extra_header={"run_config": run_config})
    print(f"simulated {n_traj} trajectories of model {model.label} to {t_end:g} fs")
    print(f"max energy drift {drift:.3e} eV, wall time {wall:.1f} s -> {out}")
    return 0


def cmd_dataset(args, config) -> int:
    get = functools.partial(_resolve, args, config, "dataset")
    source = _require(get("ensemble", None, str), "ensemble")
    seq_len = _require(get("seq-len", None, int, positive=True), "seq-len")
    seed = get("seed", 0, int)
    out = _require(get("out", None, str), "out")

    ensemble = sqc.TrajectoryEnsemble.load(source)
    data = ds.build_dataset(ensemble, seq_len, seed)
    run_config = {"command": "dataset", "ensemble": os.path.basename(source),
                  "seq_len": seq_len, "seed": seed}
    data.save(out, extra_header={"run_config": run_config})
    print(f"{data.n_train} training / {data.n_validation} validation sequences "
          f"of length {seq_len} -> {out}")
    return 0


def cmd_train(args, config) -> int:
    get = functools.partial(_resolve, args, config, "train")
    source = _require(get("dataset", None, str), "dataset")
    hidden = get("hidden", surrogate.TrainConfig.hidden, int, positive=True)
    lr = get("lr", surrogate.TrainConfig.learning_rate, _learning_rate)
    batch = get("batch", surrogate.TrainConfig.batch_size, int, positive=True)
    epochs = get("epochs", surrogate.TrainConfig.epochs, int, positive=True)
    seed = get("seed", 0, int)
    out = _require(get("out", None, str), "out")
    loss_csv = get("loss-csv", None, str)

    data = ds.SequenceDataset.load(source)
    cfg = surrogate.TrainConfig(seq_len=data.seq_len, hidden=hidden,
                                learning_rate=lr, batch_size=batch,
                                epochs=epochs, seed=seed)
    every = max(1, epochs // 20)

    def progress(e, tr, va):   # on stderr, so stdout keeps only the summary
        if (e + 1) % every == 0:
            print(f"epoch {e + 1}/{epochs}  train {tr:.3e}  val {va:.3e}", file=sys.stderr)

    params, report = surrogate.train(data, cfg, progress=progress)
    run_config = {"command": "train", "dataset": os.path.basename(source), "hidden": hidden,
                  "lr": lr, "batch": batch, "epochs": epochs, "seed": seed}
    surrogate.save_checkpoint(out, params, cfg, report,
                              extra_header={"run_config": run_config,
                                            "source_hash": data.source_hash})
    if loss_csv:
        analysis.write_csv(loss_csv, ["epoch", "train_loss", "val_loss"],
                           zip(range(epochs), report.train_loss, report.val_loss))
    print(f"best epoch {report.best_epoch} (val loss {report.val_loss[report.best_epoch]:.3e}), "
          f"wall time {report.wall_time_s:.0f} s -> {out}")
    return 0


def cmd_rollout(args, config) -> int:
    get = functools.partial(_resolve, args, config, "rollout")
    model = models.resolve_model(_require(get("model", None, str), "model"))
    ckpt_path = _require(get("checkpoint", None, str), "checkpoint")
    n_traj = _require(get("ntraj", None, int, positive=True), "ntraj")
    steps = _require(get("steps", None, int, positive=True), "steps")
    record_dt = get("record-dt", analysis.RolloutConfig.record_dt, _positive_float)
    seed = get("seed", 0, int)
    workers = get("workers", 1, int, positive=True, env="MMSQC_WORKERS")
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
    run_config = {"command": "rollout", "model": model.label,
                  "checkpoint": os.path.basename(ckpt_path), "ntraj": n_traj,
                  "steps": steps, "record_dt": record_dt, "seed": seed,
                  "init_state": init_state + 1}
    ensemble.save(out, extra_header={"run_config": run_config, "predicted": True})
    print(f"rolled out {n_traj} trajectories x {steps} steps "
          f"(chunk length {cfg.seq_len}), wall time {wall:.1f} s -> {out}")
    return 0


def cmd_analyze(args, config) -> int:
    what = args.what
    get = functools.partial(_resolve, args, config, "analyze")
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
    elif what == "mae":   # the times are checked before any file is read
        times = get("slices", [20.0, 40.0, 60.0, 80.0, 100.0], _time_list)
        pred = sqc.TrajectoryEnsemble.load(_require(get("pred", None, str), "pred"))
        ref = sqc.TrajectoryEnsemble.load(_require(get("ref", None, str), "ref"))
        analysis.write_mae_csv(out, analysis.dof_mae(pred, ref, times))
    elif what == "hist":
        var = _require(get("var", None, int), "var")
        bins = get("bins", 50, int, positive=True)
        lo = get("min", -3.0, _finite_float)
        hi = get("max", 3.0, _finite_float)
        if not lo < hi:
            raise UsageError(f"--min must be below --max, got {lo} and {hi}")
        ensemble = sqc.TrajectoryEnsemble.load(_require(get("ensemble", None, str), "ensemble"))
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
    p.add_argument("--dt", type=float,
                   help=f"integrator step in fs (default {sqc.IntegratorConfig.dt_internal:g})")
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
    p.add_argument("--hidden", type=int,
                   help=f"LSTM width (default {surrogate.TrainConfig.hidden})")
    p.add_argument("--lr", type=float,
                   help=f"learning rate (default {surrogate.TrainConfig.learning_rate:g})")
    p.add_argument("--batch", type=int,
                   help=f"batch size (default {surrogate.TrainConfig.batch_size})")
    p.add_argument("--epochs", type=int,
                   help=f"training epochs (default {surrogate.TrainConfig.epochs})")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--loss-csv", help="optional per-epoch loss history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rollout", help="replay trajectories with a trained network")
    p.add_argument("--model")
    p.add_argument("--checkpoint")
    p.add_argument("--ntraj", type=int)
    p.add_argument("--steps", type=int, help="predicted steps on the record grid")
    p.add_argument("--record-dt", type=float,
                   help=f"recording interval in fs (default {analysis.RolloutConfig.record_dt:g})")
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
