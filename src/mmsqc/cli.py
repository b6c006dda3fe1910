"""The mmsqc command line: model, simulate, dataset, train, rollout, analyze.

Each option is one row of `COMMANDS`: its flag, config key, cast, default and
help. All randomness derives from the per-command --seed through named
substreams; --workers never changes results. Output files are written
atomically. Exit codes: 0 success, 2 usage, 1 runtime error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from mmsqc import analysis, dataset as ds, models, sqc, surrogate


class UsageError(Exception):
    pass


class _OutOfRange(ValueError):
    """A cast refuses the value; the message follows its source."""


def _cast(kind, ok, what: str):
    """A cast to `kind` that refuses a value failing `ok` as "must be `what`".
    The float casts below also refuse nan."""
    def cast(text):
        value = kind(text)
        if not ok(value):
            raise _OutOfRange(f"must be {what}, got {value}")
        return value
    return cast


_positive_int = _cast(int, lambda v: v > 0, "positive")
_learning_rate = _cast(float, lambda v: 0.0 <= v < np.inf, "finite and non-negative")
_positive_float = _cast(float, lambda v: 0.0 < v < np.inf, "finite and positive")
_finite_float = _cast(float, lambda v: -np.inf < v < np.inf, "finite")


def _time_list(text) -> list[float]:
    times = [_finite_float(item) for item in text.split(",") if item]
    if not times:
        raise _OutOfRange("must name at least one time")
    return times


REQUIRED = object()   # the default of an option that must be given

# rows that several commands share: (option, cast, default or REQUIRED, help)
MODEL = ("model", str, REQUIRED, "built-in label I..VI or config path")
NTRAJ = ("ntraj", _positive_int, REQUIRED, "number of trajectories")
INIT_STATE = ("init-state", int, 1, "initially excited state, 1-based")
SEED = ("seed", int, 0, "random seed")
WORKERS = ("workers", _positive_int, 1, "worker processes (or MMSQC_WORKERS)")
TRAJ_OUT = ("out", str, REQUIRED, "trajectory ensemble file to write")
ENSEMBLE = ("ensemble", str, REQUIRED, "trajectory ensemble file")
PRED = ("pred", str, REQUIRED, "predicted ensemble")
REF = ("ref", str, REQUIRED, "reference ensemble")
CSV_OUT = ("out", str, REQUIRED, "CSV file to write")

# command -> (help, rows). The analyses share the config section "analyze".
COMMANDS = {
    "model": ("inspect or export a model definition", [
        ("id", str, REQUIRED, "built-in label I..VI or config path"),
        ("out", str, None, "write the model config JSON here")]),
    "simulate": ("run an MM-SQC trajectory ensemble", [
        MODEL, NTRAJ, ("t-end", _positive_float, REQUIRED, "propagation time in fs"),
        ("record-dt", _positive_float, 1.0, "recording interval in fs"),
        ("dt", _positive_float, sqc.IntegratorConfig.dt_internal, "integrator step in fs"),
        INIT_STATE, SEED, WORKERS, TRAJ_OUT]),
    "dataset": ("build a training dataset from an ensemble", [
        ENSEMBLE, ("seq-len", _positive_int, REQUIRED, "sequence length L"), SEED,
        ("out", str, REQUIRED, "dataset file to write")]),
    "train": ("train the one-to-many LSTM", [
        ("dataset", str, REQUIRED, "dataset file"),
        ("hidden", _positive_int, surrogate.TrainConfig.hidden, "LSTM width"),
        ("lr", _learning_rate, surrogate.TrainConfig.learning_rate, "learning rate"),
        ("batch", _positive_int, surrogate.TrainConfig.batch_size, "batch size"),
        ("epochs", _positive_int, surrogate.TrainConfig.epochs, "training epochs"),
        SEED, ("out", str, REQUIRED, "checkpoint path"),
        ("loss-csv", str, None, "optional per-epoch loss history CSV")]),
    "rollout": ("replay trajectories with a trained network", [
        MODEL, ("checkpoint", str, REQUIRED, "trained network"), NTRAJ,
        ("steps", _positive_int, REQUIRED, "predicted steps on the record grid"),
        ("record-dt", _positive_float, analysis.RolloutConfig.record_dt,
         "recording interval in fs"), INIT_STATE, SEED, WORKERS, TRAJ_OUT]),
    "analyze populations": ("window-binned populations of one ensemble", [ENSEMBLE, CSV_OUT]),
    "analyze compare": ("population deviation between two ensembles", [PRED, REF, CSV_OUT]),
    "analyze mae": ("per-DOF MAE at selected times", [
        PRED, REF, ("slices", _time_list, "20,40,60,80,100", "comma-separated times in fs"),
        CSV_OUT]),
    "analyze hist": ("time-resolved histogram of one variable", [
        ENSEMBLE, ("var", int, REQUIRED, "flat variable index in x_e|p_e|Q|P order"),
        ("bins", _positive_int, 50, "number of bins"),
        ("min", _finite_float, -3.0, "lower edge of the bins; write -1e-3 as --min=-1e-3"),
        ("max", _finite_float, 3.0, "upper edge of the bins; write -1e-3 as --max=-1e-3"),
        CSV_OUT]),
}


def _resolve(args: argparse.Namespace, config: dict, command: str) -> argparse.Namespace:
    """Set each option of `command` on `args`: flag > config[section][key] > config[key] >
    MMSQC_WORKERS (for workers) > default. Each value goes through its row's cast, a config
    value as its JSON text (so `2.7` or `true` is no integer); errors name its source."""
    section = command.split()[0]
    scoped = config[section] if isinstance(config.get(section), dict) else {}
    for name, cast, default, _ in COMMANDS[command][1]:
        shared = None if isinstance(config.get(name), dict) else config.get(name)
        env = os.environ.get("MMSQC_WORKERS") if name == "workers" else None
        sources = ((getattr(args, name.replace("-", "_")), f"--{name}"),
                   (scoped.get(name), f"config key {section}.{name}"),
                   (shared, f"config key {name}"), (env, "MMSQC_WORKERS"), (default, "default"))
        value, source = next(((v, s) for v, s in sources if v is not None), (None, None))
        if value is REQUIRED:
            raise UsageError(f"missing required option --{name}")
        if value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                value = cast(text)
            except _OutOfRange as exc:
                raise UsageError(f"{source} {exc}") from None
            except ValueError:
                raise UsageError(f"invalid value for {source}: {text!r}") from None
        setattr(args, name.replace("-", "_"), value)
    return args


def _init_state_index(init_state: int, model: models.SiteExcitonModel) -> int:
    if not 1 <= init_state <= model.n_states:
        raise UsageError(f"--init-state {init_state} out of range 1..{model.n_states} "
                         f"for model {model.label}")
    return init_state - 1


# subcommands: `main` looks cmd_<command> up by name when it runs it (so a wrapper set on
# the module is called) and passes the options that `_resolve` set on `args`


def cmd_model(args) -> int:
    model = models.resolve_model(args.id)
    if args.out:
        models.save_model(model, args.out)
        print(f"wrote {args.out}")
    print(f"model {model.label}: {model.n_states} states, {model.n_modes} modes, "
          f"state-vector dimension {model.dim}")
    return 0


def cmd_simulate(args) -> int:
    model = models.resolve_model(args.model)
    init_state = _init_state_index(args.init_state, model)
    icfg = sqc.IntegratorConfig(dt_internal=args.dt)
    shape = (args.ntraj, sqc.record_count(args.t_end, args.record_dt), model.dim)
    run_config = {"command": "simulate", "model": model.label, "ntraj": args.ntraj,
                  "t_end": args.t_end, "record_dt": args.record_dt, "dt": args.dt,
                  "seed": args.seed, "init_state": init_state + 1}
    t0 = time.perf_counter()
    # the trajectories go straight into the file, and the run scores their drift
    with sqc.ensemble_file(args.out, model, shape, args.record_dt, args.seed,
                           {"run_config": run_config}) as out:
        drift, norm_drift = sqc.run_ensemble(model, args.ntraj, init_state, args.seed, icfg,
                                             args.t_end, args.record_dt,
                                             workers=args.workers, out=out)
    wall = time.perf_counter() - t0
    print(f"simulated {args.ntraj} trajectories of model {model.label} to {args.t_end:g} fs")
    print(f"max energy drift {drift:.3e} eV, max mapping-norm drift {norm_drift:.3e}, "
          f"wall time {wall:.1f} s -> {args.out}")
    return 0


def cmd_dataset(args) -> int:
    data = ds.build_dataset(sqc.TrajectoryEnsemble.load(args.ensemble), args.seq_len, args.seed)
    run_config = {"command": "dataset", "ensemble": os.path.basename(args.ensemble),
                  "seq_len": args.seq_len, "seed": args.seed}
    data.save(args.out, extra_header={"run_config": run_config})
    print(f"{data.n_train} training / {data.n_validation} validation sequences "
          f"of length {args.seq_len} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    data = ds.SequenceDataset.load(args.dataset)
    cfg = surrogate.TrainConfig(seq_len=data.seq_len, hidden=args.hidden, learning_rate=args.lr,
                                batch_size=args.batch, epochs=args.epochs, seed=args.seed)
    every = max(1, args.epochs // 20)

    def progress(e, tr, va):   # on stderr, so stdout keeps only the summary
        if (e + 1) % every == 0:
            print(f"epoch {e + 1}/{args.epochs}  train {tr:.3e}  val {va:.3e}", file=sys.stderr)

    params, report = surrogate.train(data, cfg, progress=progress)
    run_config = {"command": "train", "dataset": os.path.basename(args.dataset),
                  "hidden": args.hidden, "lr": args.lr, "batch": args.batch,
                  "epochs": args.epochs, "seed": args.seed}
    surrogate.save_checkpoint(args.out, params, cfg, report, extra_header={
        "run_config": run_config, "source_hash": data.source_hash})
    if args.loss_csv:
        analysis.write_csv(args.loss_csv, ["epoch", "train_loss", "val_loss"],
                           zip(range(args.epochs), report.train_loss, report.val_loss))
    print(f"best epoch {report.best_epoch} (val loss {report.val_loss[report.best_epoch]:.3e}), "
          f"wall time {report.wall_time_s:.0f} s -> {args.out}")
    return 0


def cmd_rollout(args) -> int:
    model = models.resolve_model(args.model)
    init_state = _init_state_index(args.init_state, model)
    params, header = surrogate.load_checkpoint(args.checkpoint)
    cfg = analysis.RolloutConfig(n_traj=args.ntraj, total_steps=args.steps, seed=args.seed,
                                 seq_len=int(header["seq_len"]), init_state=init_state,
                                 record_dt=args.record_dt, workers=args.workers)
    run_config = {"command": "rollout", "model": model.label,
                  "checkpoint": os.path.basename(args.checkpoint), "ntraj": args.ntraj,
                  "steps": args.steps, "record_dt": args.record_dt, "seed": args.seed,
                  "init_state": init_state + 1}
    t0 = time.perf_counter()
    with sqc.ensemble_file(args.out, model, (args.ntraj, args.steps + 1, model.dim),
                           args.record_dt, args.seed,
                           {"run_config": run_config, "predicted": True}) as out:
        analysis.rollout_ensemble(model, params, cfg, out=out)
    wall = time.perf_counter() - t0
    print(f"rolled out {args.ntraj} trajectories x {args.steps} steps "
          f"(chunk length {cfg.seq_len}), wall time {wall:.1f} s -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    what, out, load = args.what, args.out, sqc.TrajectoryEnsemble.load
    if what == "populations":
        analysis.write_populations_csv(out, sqc.populations(load(args.ensemble)))
    elif what == "compare":
        dev = analysis.compare_populations(load(args.pred), load(args.ref))
        analysis.write_compare_csv(out, dev)
        print(f"mean abs deviation per state: {', '.join(f'{v:.4f}' for v in dev.mean_abs)}")
    elif what == "mae":
        analysis.write_mae_csv(out, analysis.dof_mae(load(args.pred), load(args.ref), args.slices))
    else:   # hist
        if not args.min < args.max:
            raise UsageError(f"--min must be below --max, got {args.min} and {args.max}")
        hist = analysis.coordinate_histogram(load(args.ensemble), args.var, args.bins,
                                             (args.min, args.max))
        analysis.write_histogram_csv(out, hist)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsqc", description="Simulate MM-SQC trajectories of site-exciton models, train "
                                  "an LSTM trajectory surrogate, and compare the two.")
    subs, analyses = parser.add_subparsers(dest="command", required=True), None
    options = [(parser, [("config", str, None, "JSON file with per-subcommand defaults")])]
    for command, (text, rows) in COMMANDS.items():
        group, _, what = command.partition(" ")
        if what and analyses is None:
            analyses = subs.add_parser(group, help="write analysis CSVs").add_subparsers(
                dest="what", required=True)
        options.append(((analyses if what else subs).add_parser(what or command, help=text), rows))
    for p, rows in options:
        for name, _, default, text in rows:
            if default is not None:
                text += " (required)" if default is REQUIRED else f" (default {default})"
            p.add_argument(f"--{name}", help=text)
    return parser


def _load_config(path: str) -> dict:
    """Read the config file. An object-valued key is a command's section, any other key an
    option shared by all commands; a key that no option reads, or a repeated key, is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, object_pairs_hook=models.unique_keys)
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config: {exc.strerror}") from None
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError, a repeated key
        raise UsageError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    sections = {}
    for command, (_, rows) in COMMANDS.items():
        sections.setdefault(command.split()[0], set()).update(row[0] for row in rows)
    shared = set().union(*sections.values())
    for key, value in config.items():
        if isinstance(value, dict) and key in sections:
            for name in sorted(value.keys() - sections[key]):
                raise UsageError(f"unknown config key {key}.{name}")
        elif key in sections and key not in shared:
            raise UsageError(f"config key {key} must be an object")
        elif isinstance(value, dict) or key not in shared:
            raise UsageError(f"unknown config key {key}")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"analyze {args.what}" if args.command == "analyze" else args.command
    try:
        config = _load_config(args.config) if args.config else {}
        return globals()[f"cmd_{args.command}"](_resolve(args, config, command))
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
