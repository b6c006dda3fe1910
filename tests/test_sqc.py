import numpy as np
import pytest

from mmsqc import arrayio
from mmsqc.models import HBAR_EV_FS, Mode, SiteExcitonModel, build_model
from mmsqc.sqc import (
    IntegrationError,
    IntegratorConfig,
    PhaseSpaceState,
    Trajectory,
    TrajectoryEnsemble,
    WindowConfig,
    action,
    assign_from_actions,
    eom,
    mm_energy,
    pack_state,
    populations,
    propagate,
    run_ensemble,
    sample_initial,
    unpack_state,
    window_assign,
    ensemble_energies,
    _map_chunks,
    _propagate_chunk,
    _sample_starts,
)
from mmsqc.streams import substream

GAMMA = 1.0 / 3.0


def zero_state(model, t=0.0):
    return PhaseSpaceState(np.zeros(model.n_states), np.zeros(model.n_states),
                           np.zeros(model.n_modes), np.zeros(model.n_modes), t=t)


def kappa_zeroed(model):
    modes = [[Mode(m.omega, 0.0) for m in lst] for lst in model.modes_per_state]
    return SiteExcitonModel(model.label + "-k0", model.v, modes)


def random_state(model, seed):
    rng = np.random.default_rng(seed)
    return PhaseSpaceState(rng.normal(size=model.n_states),
                           rng.normal(size=model.n_states),
                           rng.normal(size=model.n_modes),
                           rng.normal(size=model.n_modes))


# ---------------------------------------------------------------------------
# configs, actions, windows


def test_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(gamma=0.0)
    with pytest.raises(ValueError):
        WindowConfig(gamma=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt_internal=0.0)


def test_action_values():
    cfg = WindowConfig()
    assert action(np.sqrt(2.0), 0.0, cfg) == pytest.approx(2.0 / 3.0)
    assert action(0.0, 0.0, cfg) == pytest.approx(-GAMMA)
    assert action(1.0, 1.0, cfg) == pytest.approx(2.0 / 3.0)


def test_window_assign_examples():
    cfg = WindowConfig()
    assert assign_from_actions(np.array([0.8, -0.1]), cfg) == 0
    assert assign_from_actions(np.array([0.5, 0.5]), cfg) == -1
    # all mapping variables zero
    assert window_assign(np.zeros(2), np.zeros(2), cfg) is None
    x = np.sqrt(2.0 * np.array([0.8 + GAMMA, -0.1 + GAMMA]))
    assert window_assign(x, np.zeros(2), cfg) == 0


def test_window_disjointness_random_actions():
    rng = np.random.default_rng(123)
    cfg = WindowConfig()
    for n_states in (2, 3):
        n = rng.uniform(-GAMMA, 2.0, size=(200_000, n_states))
        positive = np.zeros(len(n), dtype=int)
        for k in range(n_states):
            ok = n[:, k] + cfg.gamma >= 1.0
            for j in range(n_states):
                if j != k:
                    ok &= (n[:, j] + cfg.gamma >= 0.0) & (n[:, k] + n[:, j] <= 2 - 2 * cfg.gamma)
            positive += ok
        assert positive.max() <= 1
        # the vectorized assignment agrees with the per-window evaluation
        assigned = assign_from_actions(n, cfg)
        assert np.array_equal(assigned >= 0, positive == 1)


# ---------------------------------------------------------------------------
# energy and equations of motion


def test_mm_energy_examples():
    assert mm_energy(build_model("I"), zero_state(build_model("I"))) == 0.0
    m2 = build_model("II")
    assert mm_energy(m2, zero_state(m2)) == pytest.approx(-GAMMA * 0.2)
    excited = PhaseSpaceState(np.array([np.sqrt(2 * (1 + GAMMA)), 0.0]), np.zeros(2),
                              np.zeros(16), np.zeros(16))
    assert mm_energy(m2, excited) == pytest.approx(0.2)


def test_mm_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        mm_energy(build_model("I"), zero_state(build_model("III")))


def test_eom_at_origin():
    """At the origin the electronic derivatives and dQ vanish; the nuclear
    momenta feel the residual zero-point force dP = gamma*kappa/hbar from the
    -gamma shift in the mapping weight."""
    model = build_model("I")
    dx, dp, dQ, dP = eom(model, zero_state(model))
    assert np.array_equal(dx, np.zeros(2))
    assert np.array_equal(dp, np.zeros(2))
    assert np.array_equal(dQ, np.zeros(16))
    assert np.allclose(dP, GAMMA * model.kappa / HBAR_EV_FS, rtol=1e-12)


@pytest.mark.parametrize("label,seed", [("I", 0), ("I", 1), ("III", 2), ("V", 3)])
def test_eom_matches_energy_gradient(label, seed):
    """Hamilton's equations = (1/hbar) * symplectic gradient of the energy."""
    model = build_model(label)
    state = random_state(model, seed)
    dx, dp, dQ, dP = eom(model, state)
    vec = pack_state(state)
    h = 1e-6
    grad = np.zeros(model.dim)
    for i in range(model.dim):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        ep = mm_energy(model, unpack_state(vp, model.n_states))
        em = mm_energy(model, unpack_state(vm, model.n_states))
        grad[i] = (ep - em) / (2 * h)
    ne, nv = model.n_states, model.n_modes
    dE_dx = grad[:ne]
    dE_dp = grad[ne:2 * ne]
    dE_dQ = grad[2 * ne:2 * ne + nv]
    dE_dP = grad[2 * ne + nv:]
    expected = np.concatenate([dE_dp, -dE_dx, dE_dP, -dE_dQ]) / HBAR_EV_FS
    got = np.concatenate([dx, dp, dQ, dP])
    assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# sampling


def test_sample_initial_support_and_rings():
    model = build_model("III")
    cfg = WindowConfig()
    for i in range(500):
        s = sample_initial(model, 1, cfg, substream(9, "sampling", i))
        e = 0.5 * (s.x_e**2 + s.p_e**2)
        assert 1.0 <= e[1] <= 2.0
        for j in (0, 2):
            assert 0.0 <= e[j] <= 1.0
            assert e[1] + e[j] <= 2.0
        assert np.max(np.abs(s.Q**2 + s.P**2 - 1.0)) < 1e-12
        assert window_assign(s.x_e, s.p_e, cfg) == 1
        assert s.t == 0.0


def test_sample_initial_mean_radial_action():
    """Mean of e_init over the triangle {e1 in [1,2], e2 in [0,1],
    e1+e2 <= 2} is its centroid coordinate 4/3."""
    model = build_model("I")
    cfg = WindowConfig()
    rng = np.random.default_rng(2024)
    n = 40_000
    e1 = np.empty(n)
    for i in range(n):
        s = sample_initial(model, 0, cfg, rng)
        e1[i] = 0.5 * (s.x_e[0]**2 + s.p_e[0]**2)
    assert e1.mean() == pytest.approx(4.0 / 3.0, abs=0.01)


def test_sample_initial_bad_state_index():
    with pytest.raises(ValueError):
        sample_initial(build_model("I"), 2, WindowConfig(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# propagation


def test_record_count():
    model = build_model("I")
    state = sample_initial(model, 0, WindowConfig(), np.random.default_rng(1))
    traj = propagate(model, state, IntegratorConfig(0.05), t_end=10.0, record_dt=1.0)
    assert traj.n_records == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    assert np.array_equal(traj.data[0], pack_state(state))


def test_grid_validation():
    model = build_model("I")
    state = zero_state(model)
    with pytest.raises(ValueError, match="t_end"):
        propagate(model, state, IntegratorConfig(0.01), t_end=10.5, record_dt=1.0)
    with pytest.raises(ValueError, match="record_dt"):
        propagate(model, state, IntegratorConfig(0.03), t_end=10.0, record_dt=1.0)


def test_uncoupled_mode_returns_after_one_period():
    model = SiteExcitonModel("osc", [[0.0, 0.0], [0.0, 0.0]],
                             [[Mode(0.2, 0.0)], []])
    state = PhaseSpaceState(np.zeros(2), np.zeros(2), np.array([1.0]), np.array([0.0]))
    period = 2 * np.pi * HBAR_EV_FS / 0.2   # about 20.68 fs
    icfg = IntegratorConfig(dt_internal=period / 2068)
    traj = propagate(model, state, icfg, t_end=period, record_dt=period)
    assert traj.data[-1, 4] == pytest.approx(1.0, abs=1e-6)
    assert traj.data[-1, 5] == pytest.approx(0.0, abs=1e-6)


def test_electronic_amplitudes_match_unitary_oracle():
    """With all couplings zeroed the mapping amplitudes evolve like a
    two-level Schroedinger problem; compare against the matrix exponential."""
    model = kappa_zeroed(build_model("I"))
    ens = run_ensemble(model, 20, 0, 77, IntegratorConfig(0.01), 100.0, 1.0)
    w, V = np.linalg.eigh(model.v)
    a0 = (ens.data[:, 0, :2] + 1j * ens.data[:, 0, 2:4]) / np.sqrt(2)
    worst = 0.0
    for it, t in enumerate(ens.times):
        U = V @ np.diag(np.exp(-1j * w * t / HBAR_EV_FS)) @ V.conj().T
        at = (ens.data[:, it, :2] + 1j * ens.data[:, it, 2:4]) / np.sqrt(2)
        worst = max(worst, np.max(np.abs(at - a0 @ U.T)))
    assert worst < 1e-6


def test_energy_conservation_short():
    model = build_model("I")
    ens = run_ensemble(model, 3, 0, 5, IntegratorConfig(0.01), 100.0, 1.0)
    energies = ensemble_energies(model, ens)
    assert np.max(np.abs(energies - energies[:, :1])) <= 1e-5


def test_time_reversal():
    model = build_model("I")
    state = sample_initial(model, 0, WindowConfig(), np.random.default_rng(4))
    icfg = IntegratorConfig(0.01)
    forward = propagate(model, state, icfg, 10.0, 10.0)
    end = forward.state(1)
    flipped = PhaseSpaceState(end.x_e, -end.p_e, end.Q, -end.P)
    back = propagate(model, flipped, icfg, 10.0, 10.0).state(1)
    returned = np.concatenate([back.x_e, -back.p_e, back.Q, -back.P])
    assert np.max(np.abs(returned - pack_state(state))) < 1e-8


def test_integration_error_reports_time_and_variable():
    model = build_model("I")
    state = zero_state(model)
    state.x_e[0] = 1e200   # overflows within the first recording interval
    with pytest.raises(IntegrationError) as err:
        propagate(model, state, IntegratorConfig(0.01), 2.0, 1.0)
    assert err.value.t > 0
    assert err.value.variable


# ---------------------------------------------------------------------------
# ensembles


def test_run_ensemble_shapes_and_determinism():
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    ens = run_ensemble(model, 6, 0, 11, icfg, 10.0, 1.0)
    assert ens.data.shape == (6, 11, 36)
    again = run_ensemble(model, 6, 0, 11, icfg, 10.0, 1.0)
    assert np.array_equal(ens.data, again.data)
    # each row equals the individually propagated trajectory, bit for bit
    state = sample_initial(model, 0, WindowConfig(), substream(11, "sampling", 3))
    single = propagate(model, state, icfg, 10.0, 1.0)
    assert np.array_equal(single.data, ens.data[3])


def test_run_ensemble_worker_invariance():
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    base = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=1)
    for workers in (2, 3):
        other = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=workers)
        assert np.array_equal(base.data, other.data)


@pytest.mark.parametrize("workers", [1, 2])
def test_fan_out_error_names_absolute_trajectory(workers):
    model = build_model("I")
    Y0 = _sample_starts(model, 6, 0, 5, WindowConfig())
    Y0[4, 0] = 1e200   # overflows within the first recording interval
    with pytest.raises(IntegrationError) as err:
        _map_chunks(_propagate_chunk, Y0, workers,
                    model, IntegratorConfig(0.05), 2.0, 1.0, GAMMA)
    assert err.value.trajectory == 4


def test_run_ensemble_rejects_zero_trajectories():
    with pytest.raises(ValueError):
        run_ensemble(build_model("I"), 0, 0, 1, IntegratorConfig(), 1.0, 1.0)


def test_model_v_state_dimension():
    model = build_model("V")
    ens = run_ensemble(model, 2, 0, 1, IntegratorConfig(0.05), 2.0, 1.0)
    assert ens.dim == 284


# ---------------------------------------------------------------------------
# populations


def test_populations_initial_certainty_and_normalization():
    model = build_model("I")
    ens = run_ensemble(model, 40, 0, 21, IntegratorConfig(0.05), 10.0, 1.0)
    pops = populations(ens)
    assert pops.values[0, 0] == 1.0
    assert pops.unassigned[0] == 0.0
    sums = pops.values[pops.defined].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all((pops.values[pops.defined] >= 0) & (pops.values[pops.defined] <= 1))


def test_populations_flag_undefined():
    data = np.zeros((5, 3, 8))   # all mapping variables zero: nothing assigned
    ens = TrajectoryEnsemble(1.0, data, 2)
    pops = populations(ens)
    assert not pops.defined.any()
    assert np.all(np.isnan(pops.values))
    assert np.all(pops.unassigned == 1.0)


def test_populations_rabi_small():
    model = kappa_zeroed(build_model("I"))
    ens = run_ensemble(model, 400, 0, 99, IntegratorConfig(0.01), 20.0, 1.0)
    pops = populations(ens)
    theory = np.cos(0.2 * ens.times / HBAR_EV_FS)**2
    assert np.nanmax(np.abs(pops.values[:, 0] - theory)) < 0.08


# ---------------------------------------------------------------------------
# state packing and file round trips


def test_pack_unpack_round_trip():
    model = build_model("III")
    state = random_state(model, 8)
    vec = pack_state(state)
    assert vec.shape == (54,)
    back = unpack_state(vec, 3, t=2.0)
    assert np.array_equal(back.x_e, state.x_e)
    assert np.array_equal(back.P, state.P)
    assert back.t == 2.0


def test_trajectory_state_accessors():
    model = build_model("I")
    ens = run_ensemble(model, 2, 0, 3, IntegratorConfig(0.05), 3.0, 1.0)
    traj = ens.trajectory(1)
    assert traj.n_records == 4
    assert traj.state(2).t == pytest.approx(2.0)


def test_ensemble_file_round_trip(tmp_path):
    model = build_model("I")
    ens = run_ensemble(model, 4, 0, 31, IntegratorConfig(0.05), 5.0, 1.0)
    path = str(tmp_path / "e.traj")
    ens.save(path)
    loaded = TrajectoryEnsemble.load(path)
    assert np.array_equal(loaded.data, ens.data)
    assert loaded.record_dt == ens.record_dt
    assert loaded.model_label == "I"
    assert loaded.seed == 31
    # byte-identical rewrite
    ens.save(str(tmp_path / "e2.traj"))
    assert (tmp_path / "e.traj").read_bytes() == (tmp_path / "e2.traj").read_bytes()
    assert loaded.content_hash() == ens.content_hash()


def test_ensemble_file_errors(tmp_path):
    model = build_model("I")
    ens = run_ensemble(model, 2, 0, 1, IntegratorConfig(0.05), 2.0, 1.0)
    path = str(tmp_path / "e.traj")
    ens.save(path)
    raw = (tmp_path / "e.traj").read_bytes()

    (tmp_path / "bad1.traj").write_bytes(b"not json" + raw)
    with pytest.raises(arrayio.HeaderError):
        TrajectoryEnsemble.load(str(tmp_path / "bad1.traj"))

    (tmp_path / "bad2.traj").write_bytes(raw[:-16])
    with pytest.raises(arrayio.PayloadSizeError):
        TrajectoryEnsemble.load(str(tmp_path / "bad2.traj"))

    header_end = raw.index(b"\n")
    tampered = raw[:header_end].replace(b'"version":1', b'"version":9') + raw[header_end:]
    (tmp_path / "bad3.traj").write_bytes(tampered)
    with pytest.raises(arrayio.VersionError):
        TrajectoryEnsemble.load(str(tmp_path / "bad3.traj"))
