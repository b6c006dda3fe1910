"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them).

The end-to-end surrogate criterion trains a desk-scale network (hidden 128,
300 epochs on 200 trajectories) and takes tens of minutes; everything else
finishes in a few minutes combined.
"""

import time

import numpy as np
import pytest

from mmsqc import analysis, cli, dataset as ds, models, sqc, surrogate as sg
from mmsqc.models import HBAR_EV_FS
from mmsqc.streams import substream
from reference_tables import DEBYE_MODES_EV

GAMMA = 1.0 / 3.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def kappa_zeroed(model):
    modes = [[(w, 0.0) for w in model.omega[sl]] for sl in model.state_slices]
    return models.SiteExcitonModel(model.label + "-k0", model.v, modes)


# ---------------------------------------------------------------------------
# 1. Debye discretization reproduces the reference 70-mode table


def test_criterion_1_debye_table():
    t0 = time.perf_counter()
    modes = models.discretize_debye(**models.DEBYE_SPEC)
    omegas, kappas = modes.T
    rel_omega = np.abs(omegas - DEBYE_MODES_EV[:, 0]) / DEBYE_MODES_EV[:, 0]
    rel_kappa = np.abs(kappas - DEBYE_MODES_EV[:, 1]) / DEBYE_MODES_EV[:, 1]
    on_grid = np.allclose(omegas, models.DEBYE_SPEC["delta_omega"] * np.arange(1, 71),
                          rtol=0, atol=1e-15)
    elapsed = time.perf_counter() - t0
    ok = (len(modes) == 70 and on_grid
          and rel_omega.max() < 1e-3 and rel_kappa.max() < 1e-3
          and elapsed < 1.0)
    report(1, ok, f"70 modes, worst rel dev omega {rel_omega.max():.2e}, "
                  f"kappa {rel_kappa.max():.2e}, {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Integrator oracle: decoupled model against the matrix exponential


def test_criterion_2_integrator_oracle():
    t0 = time.perf_counter()
    model = kappa_zeroed(models.build_model("I"))
    ens = sqc.run_ensemble(model, 5000, 0, 4242, sqc.IntegratorConfig(0.01),
                           100.0, 1.0, workers=2)

    w, V = np.linalg.eigh(model.v)
    a0 = (ens.data[:, 0, :2] + 1j * ens.data[:, 0, 2:4]) / np.sqrt(2)
    amp_err = 0.0
    for it, t in enumerate(ens.times):
        U = V @ np.diag(np.exp(-1j * w * t / HBAR_EV_FS)) @ V.conj().T
        at = (ens.data[:, it, :2] + 1j * ens.data[:, it, 2:4]) / np.sqrt(2)
        amp_err = max(amp_err, np.max(np.abs(at - a0 @ U.T)))

    pops = sqc.populations(ens)
    rabi = np.cos(0.2 * ens.times / HBAR_EV_FS)**2
    pop_dev = np.nanmax(np.abs(pops.values[:, 0] - rabi))
    elapsed = time.perf_counter() - t0
    ok = amp_err < 1e-6 and pop_dev < 0.05 and elapsed < 60.0
    report(2, ok, f"amplitude error {amp_err:.2e} (<1e-6), Rabi deviation "
                  f"{pop_dev:.3f} (<0.05), {elapsed:.0f} s (<60)")


# ---------------------------------------------------------------------------
# 3. Energy conservation


def test_criterion_3_energy_conservation():
    model1 = models.build_model("I")
    ens1 = sqc.run_ensemble(model1, 50, 0, 31, sqc.IntegratorConfig(0.01),
                            100.0, 1.0, workers=2)
    e1 = sqc.ensemble_energies(model1, ens1)
    drift1 = np.max(np.abs(e1 - e1[:, :1]))

    model5 = models.build_model("V")
    ens5 = sqc.run_ensemble(model5, 10, 0, 32, sqc.IntegratorConfig(0.01),
                            200.0, 1.0, workers=2)
    e5 = sqc.ensemble_energies(model5, ens5)
    drift5 = np.max(np.abs(e5 - e5[:, :1]))

    ok = drift1 <= 1e-5 and drift5 <= 5e-5
    report(3, ok, f"model I drift {drift1:.2e} eV (<=1e-5), "
                  f"model V drift {drift5:.2e} eV (<=5e-5)")


# ---------------------------------------------------------------------------
# 4. Window disjointness and sampling assignment certainty


def test_criterion_4_window_properties():
    rng = np.random.default_rng(77)
    overlaps = 0
    for n_states in (2, 3):
        n = rng.uniform(-GAMMA, 2.0, size=(1_000_000, n_states))
        positive = np.zeros(len(n), dtype=int)
        for k in range(n_states):
            ok_k = n[:, k] + GAMMA >= 1.0
            for j in range(n_states):
                if j != k:
                    ok_k &= (n[:, j] + GAMMA >= 0.0) & (n[:, k] + n[:, j] <= 2 - 2 * GAMMA)
            positive += ok_k
        overlaps += int(np.sum(positive > 1))

    mismatched = 0
    draws = 0
    for label, init in (("I", 0), ("I", 1), ("III", 2), ("V", 0)):
        model = models.build_model(label)
        ne = model.n_states
        for i in range(25_000):
            s = sqc.sample_initial(model, init, substream(55, "sampling", i))
            draws += 1
            if sqc.assign_from_actions(sqc.action(s[:ne], s[ne:2 * ne])) != init:
                mismatched += 1
    ok = overlaps == 0 and mismatched == 0
    report(4, ok, f"0 overlapping windows in 2x1e6 action vectors "
                  f"(got {overlaps}), {mismatched}/{draws} draws misassigned")


# ---------------------------------------------------------------------------
# 5. BPTT gradients against central finite differences


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    dim, hidden, seq_len = 6, 8, 5
    step = 1e-5
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        params = sg.init_params(dim, hidden, rng)
        x0 = rng.normal(size=(1, dim))
        target = rng.normal(size=(1, seq_len - 1, dim))
        ys, caches = sg.one_to_many_forward(x0, seq_len, params)
        grads = sg.backward(caches, (2.0 / ys.size) * (ys - target), params)
        for name in sg.TENSOR_FIELDS:
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up, _ = sg.one_to_many_forward(x0, seq_len, params)
                arr[idx] = orig - step
                dn, _ = sg.one_to_many_forward(x0, seq_len, params)
                arr[idx] = orig
                numeric[idx] = (sg.sequence_loss(up, target)
                                - sg.sequence_loss(dn, target)) / (2 * step)
            analytic = getattr(grads, name)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    report(5, ok, f"worst tensor gradient deviation {worst:.2e} (<1e-5) over "
                  f"5 seeds, {elapsed:.0f} s (<60)")


# ---------------------------------------------------------------------------
# 6. Sequence bookkeeping


def test_criterion_6_sequence_counts():
    rng = np.random.default_rng(0)
    t101 = sqc.Trajectory(1.0, rng.normal(size=(101, 8)), 1)
    t201 = sqc.Trajectory(1.0, rng.normal(size=(201, 8)), 1)
    n97 = len(ds.split_sequences(t101, 5))
    n182 = len(ds.split_sequences(t201, 20))
    ok = n97 == 97 and n182 == 182
    report(6, ok, f"101 records/L=5 -> {n97} (97), 201 records/L=20 -> {n182} (182)")


# ---------------------------------------------------------------------------
# 7 + 8. Desk-scale end-to-end surrogate and long-horizon stability


@pytest.fixture(scope="module")
def desk_scale():
    model = models.build_model("I")
    icfg = sqc.IntegratorConfig(0.01)
    train_ens = sqc.run_ensemble(model, 200, 0, 1001, icfg, 100.0, 1.0, workers=2)
    data = ds.build_dataset(train_ens, 5, split_seed=2002)
    cfg = sg.TrainConfig(seq_len=5, hidden=128, learning_rate=1e-3,
                         batch_size=50, epochs=300, seed=3003)
    params, train_report = sg.train(data, cfg)
    return {
        "model": model,
        "icfg": icfg,
        "params": params,
        "report": train_report,
        "train_range": np.abs(train_ens.data).max(axis=(0, 1)),
    }


def test_criterion_7_desk_scale_end_to_end(desk_scale):
    model = desk_scale["model"]
    pred = analysis.rollout_ensemble(model, desk_scale["params"],
                                     analysis.RolloutConfig(500, 100, 5, seed=4004),
                                     )
    ref = sqc.run_ensemble(model, 500, 0, 4004, desk_scale["icfg"], 100.0, 1.0,
                           workers=2)
    dev = analysis.compare_populations(pred, ref)
    worst = float(dev.mean_abs.max())
    ok = worst < 0.05
    report(7, ok, f"mean |P_pred - P_ref| per state {np.round(dev.mean_abs, 4)} "
                  f"(max {worst:.4f} < 0.05), max deviation {dev.max_abs.max():.3f}, "
                  f"best val loss {desk_scale['report'].val_loss.min():.2e}")


def test_criterion_8_long_horizon_stability(desk_scale):
    model = desk_scale["model"]
    pred = analysis.rollout_ensemble(model, desk_scale["params"],
                                     analysis.RolloutConfig(500, 400, 5, seed=4004))
    finite = bool(np.all(np.isfinite(pred.data)))
    ratio = float(np.max(np.abs(pred.data).max(axis=(0, 1)) / desk_scale["train_range"]))
    pops = sqc.populations(pred)
    defined = bool(pops.defined.all())
    in_range = bool(np.nanmin(pops.values) >= 0.0 and np.nanmax(pops.values) <= 1.0)
    ok = finite and ratio < 10.0 and defined and in_range
    report(8, ok, f"400-step rollout finite={finite}, worst amplitude ratio "
                  f"{ratio:.2f} (<10), populations defined everywhere={defined}, "
                  f"in [0,1]={in_range}")


# ---------------------------------------------------------------------------
# 9. Byte-level determinism of simulate and rollout across worker counts


def test_criterion_9_cli_determinism(tmp_path):
    sims = []
    for tag, workers in (("a", 1), ("b", 2), ("c", 3)):
        out = tmp_path / f"sim_{tag}.traj"
        code = cli.main(["simulate", "--model", "I", "--ntraj", "6",
                         "--t-end", "5", "--record-dt", "1", "--dt", "0.05",
                         "--seed", "11", "--workers", str(workers),
                         "--out", str(out)])
        assert code == 0
        sims.append(out.read_bytes())
    sim_ok = sims[0] == sims[1] == sims[2]

    data = ds.build_dataset(sqc.TrajectoryEnsemble.load(str(tmp_path / "sim_a.traj")),
                            3, split_seed=1)
    data.save(str(tmp_path / "d.seq"))
    cfg = sg.TrainConfig(seq_len=3, hidden=8, learning_rate=1e-3, batch_size=8,
                         epochs=2, seed=5)
    params, rep = sg.train(data, cfg)
    sg.save_checkpoint(str(tmp_path / "m.ckpt"), params, cfg, rep)

    rolls = []
    for tag, workers in (("a", 1), ("b", 2), ("c", 3)):
        out = tmp_path / f"roll_{tag}.traj"
        code = cli.main(["rollout", "--model", "I",
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--ntraj", "5", "--steps", "7", "--seed", "13",
                         "--workers", str(workers), "--out", str(out)])
        assert code == 0
        rolls.append(out.read_bytes())
    roll_ok = rolls[0] == rolls[1] == rolls[2]

    ok = sim_ok and roll_ok
    report(9, ok, f"simulate byte-identical across workers 1/2/3: {sim_ok}; "
                  f"rollout byte-identical: {roll_ok}")
