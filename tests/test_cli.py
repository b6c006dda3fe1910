import csv
import errno
import json
import os
import string
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsqc import cli
from mmsqc.analysis import RolloutConfig, rollout_ensemble
from mmsqc.cli import main
from mmsqc.dataset import SequenceDataset
from mmsqc.models import build_model, load_model
from mmsqc.sqc import IntegratorConfig, TrajectoryEnsemble, ensemble_energies, run_ensemble
from mmsqc.surrogate import load_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def tiny_pipeline(tmp_path):
    """A small simulate -> dataset -> train -> rollout chain."""
    paths = {
        "ref": tmp_path / "ref.traj",
        "data": tmp_path / "data.seq",
        "ckpt": tmp_path / "model.ckpt",
        "pred": tmp_path / "pred.traj",
    }
    assert run("simulate", "--model", "I", "--ntraj", 5, "--t-end", 8,
               "--record-dt", 1, "--dt", 0.05, "--seed", 42,
               "--out", paths["ref"]) == 0
    assert run("dataset", "--ensemble", paths["ref"], "--seq-len", 5,
               "--seed", 1, "--out", paths["data"]) == 0
    assert run("train", "--dataset", paths["data"], "--hidden", 8,
               "--lr", "1e-3", "--batch", 8, "--epochs", 2, "--seed", 3,
               "--out", paths["ckpt"],
               "--loss-csv", tmp_path / "loss.csv") == 0
    assert run("rollout", "--model", "I", "--checkpoint", paths["ckpt"],
               "--ntraj", 5, "--steps", 8, "--seed", 9,
               "--out", paths["pred"]) == 0
    return tmp_path, paths


def test_simulate_writes_ensemble(tmp_path, capsys):
    out = tmp_path / "e.traj"
    assert run("simulate", "--model", "I", "--ntraj", 3, "--t-end", 5,
               "--record-dt", 1, "--dt", 0.05, "--seed", 7, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "energy drift" in printed and "3 trajectories" in printed
    ens = TrajectoryEnsemble.load(str(out))
    assert ens.data.shape == (3, 6, 36)
    assert ens.seed == 7
    # the resolved run parameters are recorded in the header for replays
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["run_config"] == {"command": "simulate", "model": "I",
                                    "ntraj": 3, "t_end": 5.0, "record_dt": 1.0,
                                    "dt": 0.05, "seed": 7, "init_state": 1}


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b, c = tmp_path / "a.traj", tmp_path / "b.traj", tmp_path / "c.traj"
    common = ["simulate", "--model", "I", "--ntraj", 4, "--t-end", 4,
              "--record-dt", 1, "--dt", 0.05, "--seed", 3]
    assert run(*common, "--out", a) == 0
    assert run(*common, "--out", b) == 0
    assert run(*common, "--workers", 2, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_simulate_prints_the_drift_of_the_written_ensemble(tmp_path, capsys):
    """The drift line the workers score is the one `ensemble_energies` and
    the mapping norm of the written file give."""
    out = tmp_path / "e.traj"
    assert run("simulate", "--model", "III", "--ntraj", 9, "--t-end", 6, "--dt", 0.05,
               "--seed", 2, "--workers", 2, "--out", out) == 0
    printed = capsys.readouterr().out
    ens = TrajectoryEnsemble.load(str(out))
    model = build_model("III")
    energies = ensemble_energies(model, ens)
    E = ens.data[:, :, :2 * model.n_states]
    norm = 0.5 * np.sum(E * E, axis=-1)
    drift = np.max(np.abs(energies - energies[:, :1]))
    norm_drift = np.max(np.abs(norm - norm[:, :1]))
    assert (f"max energy drift {drift:.3e} eV, max mapping-norm drift {norm_drift:.3e}, "
            in printed)


def test_simulate_and_rollout_write_what_save_writes(tiny_pipeline, tmp_path):
    """The files that the workers fill in place are the same bytes at 1, 2
    and 3 workers, and the bytes `TrajectoryEnsemble.save` writes for the
    ensemble `run_ensemble` or `rollout_ensemble` returns."""
    _, paths = tiny_pipeline
    model = build_model("I")
    params, ckpt = load_checkpoint(str(paths["ckpt"]))
    saved = tmp_path / "saved.traj"
    files = {}
    for w in (1, 2, 3):
        files["simulate", w] = tmp_path / f"sim{w}.traj"
        assert run("simulate", "--model", "I", "--ntraj", 70, "--t-end", 3, "--dt", 0.05,
                   "--seed", 5, "--workers", w, "--out", files["simulate", w]) == 0
        files["rollout", w] = tmp_path / f"pred{w}.traj"
        assert run("rollout", "--model", "I", "--checkpoint", paths["ckpt"], "--ntraj", 130,
                   "--steps", 6, "--seed", 5, "--workers", w,
                   "--out", files["rollout", w]) == 0
    for command in ("simulate", "rollout"):
        raw = files[command, 1].read_bytes()
        assert files[command, 2].read_bytes() == raw == files[command, 3].read_bytes()
        header = json.loads(raw.split(b"\n", 1)[0])
        if command == "simulate":
            ens = run_ensemble(model, 70, 0, 5, IntegratorConfig(0.05), 3.0, 1.0)
        else:
            ens = rollout_ensemble(model, params, RolloutConfig(130, 6, ckpt["seq_len"], seed=5))
        extra = {key: header[key] for key in ("run_config", "predicted") if key in header}
        ens.save(str(saved), extra_header=extra)
        assert saved.read_bytes() == raw


CLI_MEMORY_PROBE = """
import resource, sys
from mmsqc import cli

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(["simulate", "--model", "I", "--ntraj", "3400", "--t-end", "50",
                 "--dt", "0.5", "--workers", "2", "--out", sys.argv[1]])
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
print(code, grown / (3400 * 51 * 36 * 8))
"""


def test_simulate_parent_never_holds_the_ensemble(tmp_path):
    """`mmsqc simulate --workers 2` on a 50 MB payload (3400 x 51 x 36
    doubles) grows the parent's peak RSS by less than a quarter payload:
    forked workers sample, write their rows into the output file through
    its row writer and score the drift, so the parent touches no payload
    page. (Reading the ensemble back, for the drift or to save it, grew it
    by about one payload; a one-worker run, which propagates in this
    process, grows it too.) Run in a fresh interpreter so that the
    high-water mark starts from a clean import."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", CLI_MEMORY_PROBE, str(tmp_path / "e.traj")],
                           env=env, capture_output=True, text=True, check=True, timeout=300)
    code, ratio = probe.stdout.splitlines()[-1].split()
    assert code == "0" and float(ratio) < 0.25


def file_command(command, ckpt, workers):
    """simulate or rollout argv that writes its file at `workers` (rollout
    fans out by blocks of 64 trajectories, so it needs more than 64)."""
    if command == "simulate":
        args = ["simulate", "--model", "I", "--ntraj", 4, "--t-end", 2, "--dt", 0.05]
    else:
        args = ["rollout", "--model", "I", "--checkpoint", ckpt, "--ntraj", 70, "--steps", 3]
    return [str(a) for a in args + ["--seed", 1, "--workers", workers]]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["simulate", "rollout"])
def test_write_failures_leave_no_file(tiny_pipeline, tmp_path, monkeypatch, capsys,
                                      command, workers):
    """A full disk when the rows are written, in this process or in a
    worker, exits 1 naming the error, leaves neither the file nor a temp
    file, and leaves an older file of the same name as it was."""
    _, paths = tiny_pipeline
    folder = tmp_path / "out"
    folder.mkdir()
    out = folder / "e.traj"
    out.write_bytes(b"older")

    def full(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "pwrite", full)
    capsys.readouterr()
    assert run(*file_command(command, paths["ckpt"], workers), "--out", out) == 1
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert [p.name for p in folder.iterdir()] == ["e.traj"]
    assert out.read_bytes() == b"older"


MMAP_PROBE = """
import sys
from mmsqc import cli

print(cli.main(sys.argv[1:]), "mmap" in sys.modules)
"""

IN_MEMORY_PROBE = """
import sys
from mmsqc import analysis, sqc, surrogate
from mmsqc.models import build_model

command, ckpt, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
model = build_model("I")
if command == "run_ensemble":
    sqc.run_ensemble(model, 4, 0, 1, sqc.IntegratorConfig(0.05), 2.0, 1.0, workers=workers)
else:   # 70 trajectories: rollout fans out by blocks of 64
    params, header = surrogate.load_checkpoint(ckpt)
    analysis.rollout_ensemble(model, params, analysis.RolloutConfig(
        70, 3, header["seq_len"], seed=1, workers=workers))
print(0, "mmap" in sys.modules)
"""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["simulate", "rollout", "run_ensemble", "rollout_ensemble"])
def test_writing_a_file_leaves_mmap_unloaded(tiny_pipeline, tmp_path, command, workers):
    """`simulate` and `rollout` write their rows through the file's
    descriptor at any worker count, and the in-memory `run_ensemble` and
    `rollout_ensemble` through a temp file's: nothing loads `mmap`. Run in
    a fresh interpreter."""
    _, paths = tiny_pipeline
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    if command in ("simulate", "rollout"):
        argv = [MMAP_PROBE, *file_command(command, paths["ckpt"], workers),
                "--out", str(tmp_path / "e.traj")]
    else:
        argv = [IN_MEMORY_PROBE, command, str(paths["ckpt"]), str(workers)]
    probe = subprocess.run([sys.executable, "-c", *argv], env=env,
                           capture_output=True, text=True, check=True, timeout=300)
    assert probe.stdout.split()[-2:] == ["0", "False"]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run("simulate", "--model", "I", "--ntraj", 0, "--t-end", 5,
               "--out", tmp_path / "x.traj") == 2
    assert run("simulate", "--model", "I", "--t-end", 5,
               "--out", tmp_path / "x.traj") == 2   # missing --ntraj
    capsys.readouterr()
    assert run("simulate", "--model", "I", "--ntraj", "many") == 2
    assert "usage error: invalid value for --ntraj: 'many'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run("no-such-command")


def test_workers_from_environment(tmp_path, monkeypatch):
    common = ["simulate", "--model", "I", "--ntraj", 4, "--t-end", 2,
              "--dt", 0.05, "--seed", 3]
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv("MMSQC_WORKERS", bad)
        assert run(*common, "--out", tmp_path / "x.traj") == 2
    assert not (tmp_path / "x.traj").exists()
    monkeypatch.setenv("MMSQC_WORKERS", "2")
    assert run(*common, "--out", tmp_path / "env.traj") == 0
    monkeypatch.delenv("MMSQC_WORKERS")
    assert run(*common, "--out", tmp_path / "one.traj") == 0
    assert (tmp_path / "env.traj").read_bytes() == (tmp_path / "one.traj").read_bytes()


def test_unknown_model_is_runtime_error(tmp_path, capsys):
    assert run("simulate", "--model", "XL", "--ntraj", 1, "--t-end", 1,
               "--out", tmp_path / "x.traj") == 1
    assert "unknown model" in capsys.readouterr().err


def test_model_export_round_trip(tmp_path):
    out = tmp_path / "modelI.json"
    assert run("model", "--id", "I", "--out", out) == 0
    loaded = load_model(str(out))
    built = build_model("I")
    assert np.array_equal(loaded.v, built.v)
    assert loaded.omega.tobytes() == built.omega.tobytes()
    assert loaded.kappa.tobytes() == built.kappa.tobytes()
    assert loaded.state_slices == built.state_slices


def test_dataset_command(tiny_pipeline):
    tmp_path, paths = tiny_pipeline
    ds = SequenceDataset.load(str(paths["data"]))
    # 9 records, L=5 -> 5 windows per trajectory; floor(5/4)=1 to validation
    assert ds.n_train == 5 * 4
    assert ds.n_validation == 5 * 1
    assert ds.seq_len == 5


def test_dataset_seq_len_too_long(tmp_path, tiny_pipeline, capsys):
    _, paths = tiny_pipeline
    assert run("dataset", "--ensemble", paths["ref"], "--seq-len", 200,
               "--out", tmp_path / "x.seq") == 1
    assert "records" in capsys.readouterr().err


def test_train_outputs(tiny_pipeline):
    tmp_path, paths = tiny_pipeline
    params, header = load_checkpoint(str(paths["ckpt"]))
    assert header["hidden"] == 8
    assert header["seq_len"] == 5
    assert len(header["val_loss"]) == 2
    with open(tmp_path / "loss.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_loss"]
    assert len(rows) == 3
    assert float(rows[1][1]) > 0 and float(rows[2][2]) > 0
    assert np.isclose(float(rows[2][2]), header["val_loss"][1])


def test_train_progress_goes_to_stderr(tiny_pipeline, capsys):
    tmp_path, paths = tiny_pipeline
    capsys.readouterr()
    out = tmp_path / "again.ckpt"
    assert run("train", "--dataset", paths["data"], "--hidden", 8, "--lr", "1e-3",
               "--batch", 8, "--epochs", 3, "--seed", 3, "--out", out) == 0
    printed = capsys.readouterr()
    summary = printed.out.splitlines()
    assert len(summary) == 1 and summary[0].startswith("best epoch") and str(out) in summary[0]
    progress = printed.err.splitlines()
    assert [line.split()[:2] for line in progress] == [["epoch", f"{e}/3"] for e in (1, 2, 3)]


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_refuses_non_finite_learning_rate(tiny_pipeline, capsys, lr):
    tmp_path, paths = tiny_pipeline
    capsys.readouterr()
    out = tmp_path / "bad.ckpt"
    assert run("train", "--dataset", paths["data"], "--hidden", 8, "--lr", lr,
               "--epochs", 1, "--out", out) == 2
    assert f"--lr must be finite and non-negative, got {lr}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source, lr", [("flag", "-1"), ("config", "nan"), ("config", -1)])
def test_learning_rate_error_names_its_source(tmp_path, capsys, source, lr):
    """The range check runs where the value is read, so a config value is
    not blamed on a flag the user never passed."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": {"lr": lr} if source == "config" else {}}))
    flags = ["--lr", lr] if source == "flag" else []
    out = tmp_path / "bad.ckpt"
    assert run("--config", config, "train", "--dataset", tmp_path / "none.seq",
               *flags, "--out", out) == 2
    name = "--lr" if source == "flag" else "config key train.lr"
    message = f"{name} must be finite and non-negative, got {float(lr)}"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_defaults_come_from_the_configs(tiny_pipeline):
    """Flags left out take the library configs' defaults."""
    tmp_path, paths = tiny_pipeline
    out = tmp_path / "dt.traj"
    assert run("simulate", "--model", "I", "--ntraj", 1, "--t-end", 1, "--out", out) == 0
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["run_config"]["dt"] == IntegratorConfig.dt_internal
    assert TrajectoryEnsemble.load(str(paths["pred"])).record_dt == RolloutConfig.record_dt


def test_rollout_outputs_and_determinism(tiny_pipeline, tmp_path):
    _, paths = tiny_pipeline
    ens = TrajectoryEnsemble.load(str(paths["pred"]))
    assert ens.data.shape == (5, 9, 36)
    again = tmp_path / "pred2.traj"
    assert run("rollout", "--model", "I", "--checkpoint", paths["ckpt"],
               "--ntraj", 5, "--steps", 8, "--seed", 9, "--workers", 2,
               "--out", again) == 0
    assert paths["pred"].read_bytes() == again.read_bytes()


def test_rollout_dimension_mismatch(tiny_pipeline, tmp_path, capsys):
    _, paths = tiny_pipeline
    assert run("rollout", "--model", "III", "--checkpoint", paths["ckpt"],
               "--ntraj", 2, "--steps", 4, "--out", tmp_path / "x.traj") == 1
    assert "dimension" in capsys.readouterr().err


def test_analyze_outputs(tiny_pipeline, tmp_path):
    _, paths = tiny_pipeline
    pops = tmp_path / "pops.csv"
    assert run("analyze", "populations", "--ensemble", paths["ref"], "--out", pops) == 0
    with open(pops) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "P1", "P2", "unassigned"]
    assert len(rows) == 10

    cmp_csv = tmp_path / "cmp.csv"
    assert run("analyze", "compare", "--pred", paths["pred"], "--ref", paths["ref"],
               "--out", cmp_csv) == 0
    with open(cmp_csv) as fh:
        assert fh.readline().strip() == "state,mean_abs_dev,max_abs_dev"

    mae_csv = tmp_path / "mae.csv"
    assert run("analyze", "mae", "--pred", paths["pred"], "--ref", paths["ref"],
               "--slices", "2,4,6", "--out", mae_csv) == 0
    with open(mae_csv) as fh:
        assert fh.readline().strip().startswith("dof_label,t2,t4,t6")

    hist_csv = tmp_path / "hist.csv"
    assert run("analyze", "hist", "--ensemble", paths["ref"], "--var", 0,
               "--bins", 10, "--min", -3, "--max", 3, "--out", hist_csv) == 0
    with open(hist_csv) as fh:
        assert fh.readline().strip() == "time,bin_center,density"


def test_analyze_off_grid_slice(tiny_pipeline, tmp_path, capsys):
    _, paths = tiny_pipeline
    assert run("analyze", "mae", "--pred", paths["pred"], "--ref", paths["ref"],
               "--slices", "2.5", "--out", tmp_path / "x.csv") == 1
    assert "grid" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "simulate": {"model": "I", "ntraj": 2, "t-end": 3.0, "dt": 0.05, "seed": 5},
    }))
    out1 = tmp_path / "a.traj"
    assert run("--config", config, "simulate", "--out", out1) == 0
    assert TrajectoryEnsemble.load(str(out1)).n_traj == 2
    # explicit flag wins over the config file
    out2 = tmp_path / "b.traj"
    assert run("--config", config, "simulate", "--ntraj", 3, "--out", out2) == 0
    assert TrajectoryEnsemble.load(str(out2)).n_traj == 3


def test_init_state_flag(tmp_path):
    out = tmp_path / "s2.traj"
    assert run("simulate", "--model", "II", "--ntraj", 2, "--t-end", 2,
               "--dt", 0.05, "--init-state", 2, "--seed", 1, "--out", out) == 0
    ens = TrajectoryEnsemble.load(str(out))
    e2 = 0.5 * (ens.data[:, 0, 1]**2 + ens.data[:, 0, 3]**2)
    assert np.all(e2 >= 1.0)
    assert run("simulate", "--model", "II", "--ntraj", 2, "--t-end", 2,
               "--init-state", 3, "--out", tmp_path / "x.traj") == 2


def test_bad_values_name_their_source(tmp_path, monkeypatch, capsys):
    common = ["simulate", "--model", "I", "--t-end", 2, "--dt", 0.05,
              "--out", tmp_path / "x.traj"]
    assert run(*common, "--ntraj", 0) == 2
    assert "--ntraj must be positive, got 0" in capsys.readouterr().err
    monkeypatch.setenv("MMSQC_WORKERS", "abc")
    assert run(*common, "--ntraj", 2) == 2
    assert "invalid value for MMSQC_WORKERS: 'abc'" in capsys.readouterr().err
    monkeypatch.setenv("MMSQC_WORKERS", "0")
    assert run(*common, "--ntraj", 2) == 2
    assert "MMSQC_WORKERS must be positive, got 0" in capsys.readouterr().err
    monkeypatch.delenv("MMSQC_WORKERS")
    config = tmp_path / "run.json"
    for section, message in [({"ntraj": 2.7}, "config key simulate.ntraj: '2.7'"),
                             ({"ntraj": 2, "workers": True},
                              "config key simulate.workers: 'true'"),
                             ({"ntraj": 2, "workers": 0},
                              "config key simulate.workers must be positive")]:
        config.write_text(json.dumps({"simulate": section}))
        assert run("--config", config, *common) == 2
        assert message in capsys.readouterr().err
    config.write_text(json.dumps({"ntraj": "x", "simulate": {}}))
    assert run("--config", config, *common) == 2
    assert "invalid value for config key ntraj: 'x'" in capsys.readouterr().err
    assert not (tmp_path / "x.traj").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "dt", "nan"), ("simulate", "t-end", "nan"), ("simulate", "t-end", "inf"),
    ("simulate", "record-dt", "nan"), ("rollout", "record-dt", "nan"),
    ("rollout", "record-dt", "inf")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_times_are_refused(tmp_path, capsys, command, flag, value, source):
    """Time steps and spans must be finite and positive; the error names
    where the value came from, and nothing is written."""
    out = tmp_path / "x.traj"
    args = {"simulate": ["--model", "I", "--ntraj", 2, "--t-end", 2, "--dt", 0.05],
            "rollout": ["--model", "I", "--checkpoint", tmp_path / "none.ckpt",
                        "--ntraj", 2, "--steps", 3]}[command]
    if source == "flag":
        argv, name = [command, *args, f"--{flag}", value], f"--{flag}"
    else:
        i = args.index(f"--{flag}") if f"--{flag}" in args else len(args)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({command: {flag: value}}))
        argv, name = ["--config", config, command, *args[:i], *args[i + 2:]], \
            f"config key {command}.{flag}"
    assert run(*argv, "--out", out) == 2
    assert f"{name} must be finite and positive, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("what, flag, value, shown", [
    ("hist", "min", "nan", "nan"), ("hist", "max", "inf", "inf"),
    ("hist", "min", "-inf", "-inf"), ("mae", "slices", "nan", "nan"),
    ("mae", "slices", "20,inf", "inf")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_analysis_ranges_are_refused(tmp_path, capsys, what, flag, value, shown,
                                                source):
    """Histogram bounds and MAE times must be finite. The error names where
    the value came from, and it comes before any file is read."""
    out = tmp_path / "x.csv"
    args = {"hist": ["--ensemble", tmp_path / "none.traj", "--var", 0],
            "mae": ["--pred", tmp_path / "none.traj", "--ref", tmp_path / "none.traj"]}[what]
    if source == "flag":
        argv, name = ["analyze", what, *args, f"--{flag}={value}"], f"--{flag}"
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"analyze": {flag: value}}))
        argv, name = ["--config", config, "analyze", what, *args], f"config key analyze.{flag}"
    assert run(*argv, "--out", out) == 2
    assert f"{name} must be finite, got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("slices", ["", ",", ",,"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_mae_refuses_a_slice_list_without_times(tmp_path, capsys, slices, source):
    """A slice list that names no time is a usage error, raised before any
    file is read (the ensembles here do not exist)."""
    out, missing = tmp_path / "x.csv", tmp_path / "none.traj"
    argv, name = ["analyze", "mae", "--pred", missing, "--ref", missing], "--slices"
    if source == "flag":
        argv.append(f"--slices={slices}")
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"analyze": {"slices": slices}}))
        argv, name = ["--config", config, *argv], "config key analyze.slices"
    assert run(*argv, "--out", out) == 2
    assert f"{name} must name at least one time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lo, hi", [(3, -3), (1, 1)])
def test_hist_refuses_an_empty_range(tmp_path, capsys, lo, hi):
    """--min at or above --max is a usage error naming both flags, raised
    before the ensemble (here missing) is read."""
    out = tmp_path / "x.csv"
    assert run("analyze", "hist", "--ensemble", tmp_path / "none.traj", "--var", 0,
               "--min", lo, "--max", hi, "--out", out) == 2
    assert (f"--min must be below --max, got {float(lo)} and {float(hi)}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_hist_negative_exponent_in_equals_form(tmp_path):
    """argparse reads `--min -1e-3` as a flag, not a value; `--min=-1e-3` parses."""
    ens, out = tmp_path / "I.traj", tmp_path / "hist.csv"
    assert run("simulate", "--model", "I", "--ntraj", 2, "--t-end", 1, "--dt", 0.05,
               "--out", ens) == 0
    assert run("analyze", "hist", "--ensemble", ens, "--var", 0, "--bins", 2,
               "--min=-1e-3", "--max=-5e-4", "--out", out) == 0
    with open(out) as fh:
        centers = sorted({float(row["bin_center"]) for row in csv.DictReader(fh)})
    assert centers == pytest.approx([-8.75e-4, -6.25e-4])


@pytest.mark.parametrize("corrupt, key", [
    (lambda text: text.replace('"omega": 0.068', '"omega": true'), "omega"),
    (lambda text: text.replace('"n_states": 2', '"n_states": true'), "n_states"),
    (lambda text: json.dumps({**json.loads(text), "v": [["0", "0.2"], ["0.2", "0"]]}), "v"),
    (lambda text: text.replace('"label": "I"', '"label": "I", "label": "II"'), "label"),
    (lambda text: text.replace('"label"', '"lable"'), "lable"),
    (lambda text: text.replace('"kappa": -0.0266,', '"kappa": -0.0266, "kapa": 0.0,', 1),
     "kapa")])
def test_model_config_refuses_non_numbers_and_repeats(tmp_path, capsys, corrupt, key):
    """A model file whose numbers are not JSON numbers, whose keys repeat or
    that holds a key no field reads, is refused by key."""
    good, bad = tmp_path / "I.json", tmp_path / "bad.json"
    assert run("model", "--id", "I", "--out", good) == 0
    bad.write_text(corrupt(good.read_text()))
    capsys.readouterr()
    assert run("model", "--id", bad, "--out", tmp_path / "copy.json") == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "copy.json").exists()


def test_config_numbers_parse_like_flags(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"simulate": {"model": "I", "ntraj": 2, "t-end": 3,
                                               "dt": 0.05, "seed": "4"}}))
    out = tmp_path / "a.traj"
    assert run("--config", config, "simulate", "--out", out) == 0
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["run_config"]["t_end"] == 3.0 and header["run_config"]["seed"] == 4
    assert b'"t_end":3.0' in out.read_bytes().split(b"\n", 1)[0]


def test_analyze_refuses_other_model(tiny_pipeline, tmp_path, capsys):
    _, paths = tiny_pipeline
    other = tmp_path / "II.traj"
    assert run("simulate", "--model", "II", "--ntraj", 5, "--t-end", 8,
               "--dt", 0.05, "--seed", 42, "--out", other) == 0
    capsys.readouterr()
    for what in (["compare"], ["mae", "--slices", "2,4"]):
        assert run("analyze", *what, "--pred", paths["pred"], "--ref", other,
                   "--out", tmp_path / "x.csv") == 1
        assert "different models: I vs II" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_sections_and_shared_keys(tmp_path, capsys):
    """An object-valued key is a command's section, any other key an option of
    every command. `model` is both a command and an option: a top-level string
    is the option. A non-object under a command name that is no option is refused,
    and does not hide the top-level keys."""
    config, out = tmp_path / "run.json", tmp_path / "a.traj"
    config.write_text(json.dumps({"model": "I", "ntraj": 2, "simulate": {"t-end": 2}}))
    assert run("--config", config, "simulate", "--dt", 0.05, "--out", out) == 0
    ens = TrajectoryEnsemble.load(str(out))
    assert (ens.model_label, ens.n_traj, ens.data.shape[1]) == ("I", 2, 3)
    config.write_text(json.dumps({"model": {"id": "II"}}))
    assert run("--config", config, "model") == 0
    assert "model II" in capsys.readouterr().out
    config.write_text(json.dumps({"simulate": 5, "ntraj": 2}))
    assert run("--config", config, "simulate", "--model", "I", "--t-end", 2,
               "--out", tmp_path / "x.traj") == 2
    assert "usage error: config key simulate must be an object" in capsys.readouterr().err
    assert not (tmp_path / "x.traj").exists()


@pytest.mark.parametrize("config, key", [
    ({"simulate": {"ntraj": 2, "t-end": 2, "record_dt": 0.5}}, "simulate.record_dt"),
    ({"analyze": {"bins": 10, "seq-len": 5}}, "analyze.seq-len"),
    ({"model": {"id": "I", "ntraj": 2}}, "model.ntraj"),
    ({"record_dt": 0.5}, "record_dt"),
    ({"simulation": {"ntraj": 2}}, "simulation"),
    ({"ntraj": {"simulate": 2}}, "ntraj")])
def test_unknown_config_keys_are_refused(tmp_path, capsys, config, key):
    """Every key must be read by some option of its section's commands (an
    `analyze` key by any analysis), or, at the top level, of any command."""
    path, out = tmp_path / "run.json", tmp_path / "x.traj"
    path.write_text(json.dumps(config))
    assert run("--config", path, "simulate", "--model", "I", "--ntraj", 2, "--t-end", 2,
               "--out", out) == 2
    assert f"usage error: unknown config key {key}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    (None, "cannot read config: No such file or directory"),
    ('{"simulate": {"ntraj": 2,}\n}', "config is not valid JSON: Expecting property name"),
    ("[1, 2]", "config must be a JSON object"),
    ('{"model": {"id": "I", "id": "II"}}', "config is not valid JSON: repeated key 'id'"),
    ('{"seed": 1, "seed": 2}', "config is not valid JSON: repeated key 'seed'")])
def test_config_file_errors_name_the_file(tmp_path, capsys, text, reason):
    path = tmp_path / "run.json"
    if text is not None:
        path.write_text(text)
    assert run("--config", path, "simulate", "--model", "I", "--ntraj", 2, "--t-end", 2,
               "--out", tmp_path / "x.traj") == 2
    assert f"usage error: {path}: {reason}" in capsys.readouterr().err


# Valid values of each cast of the option table, as the text a flag carries,
# and invalid ones; a new cast needs an entry here.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID = {
    str: st.text(string.ascii_letters + string.digits + "._/", min_size=1, max_size=8),
    int: st.integers(-10**6, 10**6).map(str),
    cli._positive_int: st.integers(1, 10**6).map(str),
    cli._positive_float: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    .map(repr),
    cli._learning_rate: st.floats(min_value=0.0, allow_infinity=False).map(repr),
    cli._finite_float: FINITE.map(repr),
    cli._time_list: st.lists(FINITE, min_size=1, max_size=3).map(
        lambda times: ",".join(map(repr, times))),
}
INVALID = {
    str: [], int: ["x", "2.5", ""], cli._positive_int: ["0", "-2", "2.5"],
    cli._positive_float: ["0", "-1", "nan", "inf"], cli._learning_rate: ["-1", "nan", "inf"],
    cli._finite_float: ["nan", "-inf", "x"], cli._time_list: ["", ",", "1,nan"],
}
ROWS = [(command, row) for command, (_, rows) in cli.COMMANDS.items() for row in rows]


@pytest.mark.parametrize("command, row", ROWS,
                         ids=[f"{command.replace(' ', '-')}-{row[0]}" for command, row in ROWS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_option_precedence_over_the_table(command, row, data, tmp_path_factory):
    """For every option of every command: flag > config[section][key] >
    config[key] > MMSQC_WORKERS (workers only) > default, over any subset of
    sources holding distinct values. An invalid value is refused only where it
    would win, and the error names exactly that source."""
    name, cast, default, _ = row
    section = command.split()[0]
    labels = {"flag": f"--{name}", "section": f"config key {section}.{name}",
              "top": f"config key {name}", "env": "MMSQC_WORKERS"}
    order = ["flag", "section", "top"] + (["env"] if name == "workers" else [])
    present = [source for source in order if data.draw(st.booleans(), label=source)]
    texts = data.draw(st.lists(VALID[cast], min_size=len(present), max_size=len(present),
                               unique_by=lambda text: repr(cast(text))), label="values")
    values = dict(zip(present, texts))
    bad = data.draw(st.sampled_from([None, *present] if INVALID[cast] else [None]), label="bad")
    if bad:
        values[bad] = data.draw(st.sampled_from(INVALID[cast]), label="invalid")
    seen = dict(values)   # the text each source hands to the cast
    config = {}
    for source, scope in (("section", config.setdefault(section, {})), ("top", config)):
        if source in values:
            raw = values[source]
            if cast not in (str, cli._time_list) and data.draw(st.booleans(), label="number"):
                try:   # a config may hold a number as a JSON number
                    raw = json.loads(raw)
                    seen[source] = json.dumps(raw)
                except ValueError:
                    pass
            scope[name] = raw
    argv = [*command.split(), *(f"--{other}={data.draw(VALID[other_cast])}"
                                for other, other_cast, other_default, _ in cli.COMMANDS[command][1]
                                if other_default is cli.REQUIRED and other != name)]
    if "flag" in values:
        argv.append(f"--{name}={values['flag']}")
    path = tmp_path_factory.getbasetemp() / "precedence.json"
    path.write_text(json.dumps(config))
    winner = next((source for source in order if source in values), None)
    with mock.patch.dict(os.environ):
        os.environ.pop("MMSQC_WORKERS", None)
        if "env" in values:
            os.environ["MMSQC_WORKERS"] = values["env"]
        args, loaded = cli.build_parser().parse_args(argv), cli._load_config(str(path))
        if (winner is not None and winner == bad) or (winner is None and default is cli.REQUIRED):
            with pytest.raises(cli.UsageError) as exc:
                cli._resolve(args, loaded, command)
            message = str(exc.value)
            if winner is None:
                assert message == f"missing required option --{name}"
            else:
                assert labels[winner] in message
                assert not [label for source, label in labels.items()
                            if source != winner and label in message]
            return
        got = getattr(cli._resolve(args, loaded, command), name.replace("-", "_"))
    if winner is not None:
        assert repr(got) == repr(cast(seen[winner]))
    else:
        assert repr(got) == repr(None if default is None else cast(str(default)))
